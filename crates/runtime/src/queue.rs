//! A bounded MPMC queue built on a ranked `Mutex` + `Condvar`.
//!
//! This is the runtime's backpressure point: producers choose between
//! blocking ([`BoundedQueue::push_blocking`]) and fail-fast
//! ([`BoundedQueue::try_push`]) submission, consumers block in
//! [`BoundedQueue::pop`] until an item arrives or the queue is closed and
//! drained. Closing distinguishes *drain* (consumers finish what is queued)
//! from *abort* ([`BoundedQueue::close_and_take`] hands the remainder back to
//! the caller for rejection).

use std::collections::VecDeque;
use std::sync::Condvar;

use dcdiff_telemetry::sync::{Mutex, Rank};

/// Why a push did not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue was at capacity (fail-fast push only).
    Full,
    /// The queue was closed; no further items are accepted.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full => write!(f, "queue full"),
            PushError::Closed => write!(f, "queue closed"),
        }
    }
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer multi-consumer FIFO.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Queue holding at most `capacity` items (at least 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Rank::RuntimeQueue, Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().items.is_empty()
    }

    /// Fail-fast push: enqueue or return [`PushError::Full`] immediately.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] after [`BoundedQueue::close`]; [`PushError::Full`]
    /// at capacity.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking push: wait while the queue is full.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] if the queue is (or becomes, while waiting)
    /// closed.
    pub fn push_blocking(&self, item: T) -> Result<(), PushError> {
        let mut inner = self
            .inner
            .lock()
            .wait_while(&self.not_full, |q| !q.closed && q.items.len() >= self.capacity);
        if inner.closed {
            return Err(PushError::Closed);
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop: the next item, or `None` once the queue is closed *and*
    /// empty (drain semantics — queued items are still delivered after
    /// close).
    pub fn pop(&self) -> Option<T> {
        let mut inner = self
            .inner
            .lock()
            .wait_while(&self.not_empty, |q| q.items.is_empty() && !q.closed);
        // Empty here means closed and drained.
        let item = inner.items.pop_front()?;
        drop(inner);
        self.not_full.notify_one();
        Some(item)
    }

    /// Non-blocking: remove and return up to `max` queued items for which
    /// `matches` is true, preserving FIFO order among them. Used by workers
    /// to gather a micro-batch behind an item they already popped.
    pub fn take_matching<F: FnMut(&T) -> bool>(&self, max: usize, mut matches: F) -> Vec<T> {
        let mut inner = self.inner.lock();
        let mut taken = Vec::new();
        let mut i = 0;
        while i < inner.items.len() && taken.len() < max {
            if matches(&inner.items[i]) {
                // remove(i) preserves relative order of the rest; the loop
                // condition keeps i in bounds, so None cannot happen.
                if let Some(item) = inner.items.remove(i) {
                    taken.push(item);
                }
            } else {
                i += 1;
            }
        }
        if !taken.is_empty() {
            drop(inner);
            self.not_full.notify_all();
        }
        taken
    }

    /// Close for new pushes; queued items remain poppable (drain mode).
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Close for new pushes and hand back everything still queued (abort
    /// mode). Consumers observe an empty, closed queue and exit.
    pub fn close_and_take(&self) -> Vec<T> {
        let mut inner = self.inner.lock();
        inner.closed = true;
        let remainder = inner.items.drain(..).collect();
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
        remainder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fail_fast_push_reports_full_then_closed() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.try_push(4), Err(PushError::Closed));
        // Drain semantics: the two accepted items are still delivered.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push_blocking(10).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_blocking(20))
        };
        // Give the producer time to block on the full queue.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.len(), 1, "producer must be blocked, not enqueued");
        assert_eq!(q.pop(), Some(10));
        assert_eq!(producer.join().unwrap(), Ok(()));
        assert_eq!(q.pop(), Some(20));
    }

    #[test]
    fn blocking_push_unblocks_on_close() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push_blocking(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_blocking(2))
        };
        std::thread::sleep(Duration::from_millis(30));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed));
    }

    #[test]
    fn pop_blocks_until_item_arrives() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(30));
        q.try_push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    fn abort_close_hands_back_remainder() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let remainder = q.close_and_take();
        assert_eq!(remainder, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.pop(), None);
        assert_eq!(q.try_push(9), Err(PushError::Closed));
    }

    #[test]
    fn take_matching_preserves_order_and_skips_nonmatching() {
        let q = BoundedQueue::new(8);
        for i in 0..6 {
            q.try_push(i).unwrap();
        }
        let even = q.take_matching(2, |v| v % 2 == 0);
        assert_eq!(even, vec![0, 2]);
        // Remaining order intact: 1, 3, 4, 5.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), Some(5));
    }

    #[test]
    fn mpmc_delivers_every_item_exactly_once() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        q.push_blocking(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expected: Vec<i32> = (0..50).chain(1000..1050).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }
}

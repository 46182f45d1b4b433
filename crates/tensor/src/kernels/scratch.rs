//! Thread-local reuse of f32 work buffers.
//!
//! GEMM packing panels are requested on every blocked product, hundreds of
//! times per DDIM step, and the convolution backward pass needs
//! multi-megabyte im2col and gradient staging buffers. [`take`] hands back
//! a zeroed buffer recycled from this thread's pool and [`put`] returns it;
//! [`take_dirty`] skips the zeroing for callers that overwrite every
//! element before reading (GEMM packing, the backward pass's im2col).
//! Buffers that must outlive the call are simply never returned and the
//! pool regenerates.
//!
//! Recycling is **best-fit**: a request takes the smallest pooled buffer
//! whose capacity suffices. First-fit let a kilobyte-sized request walk off
//! with a multi-megabyte staging buffer, so the next large request missed
//! the pool and paid a fresh `mmap` plus a page-fault storm.

use std::cell::RefCell;

/// Per-thread pool bound. Sized for the deepest mix the training path
/// reaches: A/B packing panels plus the convolution backward pass's
/// gradient, im2col and column-gradient buffers live at once, across ~a
/// dozen distinct conv shapes per network.
const POOL_SLOTS: usize = 16;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Smallest pooled buffer with `capacity >= len`, if any.
fn take_best_fit(len: usize) -> Option<Vec<f32>> {
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        let pos = pool
            .iter()
            .enumerate()
            .filter(|(_, buf)| buf.capacity() >= len)
            .min_by_key(|(_, buf)| buf.capacity())
            .map(|(p, _)| p);
        pos.map(|p| pool.swap_remove(p))
    })
}

/// A zero-filled buffer of exactly `len` elements, reusing this thread's
/// returned buffers when one is large enough.
pub fn take(len: usize) -> Vec<f32> {
    match take_best_fit(len) {
        Some(mut buf) => {
            buf.clear();
            buf.resize(len, 0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// A buffer of exactly `len` elements with **unspecified contents** (all
/// finite f32 values from earlier uses, or zeros when freshly allocated).
/// Callers must write every element they later read; in exchange, recycled
/// buffers skip the full-length zeroing `take` pays.
pub fn take_dirty(len: usize) -> Vec<f32> {
    match take_best_fit(len) {
        Some(mut buf) => {
            if buf.len() >= len {
                buf.truncate(len);
            } else {
                buf.resize(len, 0.0);
            }
            buf
        }
        None => vec![0.0; len],
    }
}

/// Return a buffer to this thread's pool for later takes. Keeps the
/// `POOL_SLOTS` largest buffers and drops the rest.
pub fn put(buf: Vec<f32>) {
    if buf.capacity() == 0 {
        return;
    }
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        pool.push(buf);
        if pool.len() > POOL_SLOTS {
            pool.sort_by_key(|b| std::cmp::Reverse(b.capacity()));
            pool.truncate(POOL_SLOTS);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_exact_len() {
        let mut buf = take(16);
        buf.iter_mut().for_each(|v| *v = 7.0);
        put(buf);
        let again = take(12);
        assert_eq!(again.len(), 12);
        assert!(again.iter().all(|&v| v == 0.0), "recycled buffer must be zeroed");
    }

    #[test]
    fn reuses_capacity() {
        let buf = take(1024);
        let ptr = buf.as_ptr();
        put(buf);
        let again = take(512);
        assert_eq!(again.as_ptr(), ptr, "smaller request should reuse the buffer");
    }

    #[test]
    fn best_fit_leaves_large_buffers_for_large_requests() {
        let big = take(1 << 20);
        let small = take(64);
        let big_ptr = big.as_ptr();
        let small_ptr = small.as_ptr();
        put(big);
        put(small);
        // The tiny request must take the tiny buffer, not the megabyte one…
        let again_small = take_dirty(32);
        assert_eq!(again_small.as_ptr(), small_ptr, "small request should best-fit");
        // …so the large request still finds the large buffer.
        let again_big = take_dirty(1 << 20);
        assert_eq!(again_big.as_ptr(), big_ptr, "large request should reuse the large buffer");
    }

    #[test]
    fn take_dirty_has_exact_len_without_zeroing_guarantee() {
        let mut buf = take(100);
        buf.iter_mut().for_each(|v| *v = 3.0);
        put(buf);
        let shrunk = take_dirty(40);
        assert_eq!(shrunk.len(), 40);
        put(shrunk);
        let grown = take_dirty(200);
        assert_eq!(grown.len(), 200);
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..3 * POOL_SLOTS {
            put(vec![0.0; 8]);
        }
        POOL.with(|pool| assert!(pool.borrow().len() <= POOL_SLOTS));
    }
}

//! Ranked locks: the workspace's one lock hierarchy.
//!
//! Every product lock is a [`Mutex`] or [`RwLock`] from this module, built
//! with a [`Rank`]. [`Rank`] lists every lock in the workspace, outermost
//! first: a thread may acquire a lock only when its rank is strictly
//! greater than every rank the thread already holds. In debug builds each
//! guard records its rank and its `#[track_caller]` acquisition site in a
//! thread-local list, and an out-of-order acquisition panics naming both
//! sites. The check runs before the thread blocks, so an ABBA pair panics
//! in whichever test first takes either order instead of deadlocking on a
//! lucky interleaving. Release builds compile to the plain `std::sync`
//! lock.
//!
//! Both wrappers recover from poisoning: a panic while a lock was held is
//! a bug the job boundary already reports, and poisoning would only
//! cascade it into every later caller.
//!
//! Condition variables stay `std::sync::Condvar`; wait through
//! [`MutexGuard::wait_while`] and [`MutexGuard::wait_timeout_while`],
//! which loop over spurious wakeups by construction.
#![expect(
    clippy::disallowed_types,
    reason = "the one place the std locks are wrapped; everything else uses these wrappers"
)]

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// Every lock in the workspace, outermost first. A thread may acquire a
/// lock only while every lock it holds ranks strictly lower, so two locks
/// of one rank are never held together either.
///
/// The nestings this order permits, each exercised by a tier-1 test
/// (ARCHITECTURE.md names them):
/// * [`Rank::ServeRuntime`] is held across `Runtime::queue_depth` and
///   `Runtime::submit_watched`, which take [`Rank::RuntimeQueue`] and, when
///   a full queue is logged, [`Rank::LogWindow`];
/// * [`Rank::TraceWriter`] is held while the writer runs, which for
///   `trace_to_vec` locks [`Rank::TraceBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// `dcdiff serve`'s runtime slot (`None` once the drain took it).
    ServeRuntime,
    /// `dcdiff serve`'s per-client in-flight counts (the fairness cap).
    ServeClients,
    /// The runtime's bounded job queue.
    RuntimeQueue,
    /// The runtime's shutdown report.
    RuntimeResults,
    /// One watched job's result slot.
    ResultSlot,
    /// The kernel pool's dispatch sender.
    PoolSender,
    /// The kernel pool's shared receiver, held by an idle worker while it
    /// blocks for work.
    PoolJobs,
    /// One `parallel_for` call's countdown latch.
    PoolLatch,
    /// The process-wide telemetry handle (`install` / `global`).
    TelemetryGlobal,
    /// `WindowedMetrics`' ring of registry snapshots.
    MetricsWindows,
    /// A registry's counter, gauge or histogram map. The three share one
    /// rank, so each is read under its own lock, never two at once.
    Registry,
    /// The logger's rate-limit window.
    LogWindow,
    /// A trace sink's writer.
    TraceWriter,
    /// `trace_to_vec`'s in-memory buffer.
    TraceBuffer,
}

/// Lock acquisitions the calling thread has made through these wrappers
/// so far. Counted in debug builds only; release builds always read 0.
pub fn acquisitions() -> u64 {
    order::acquisitions()
}

/// A ranked, poison-recovering [`std::sync::Mutex`].
pub struct Mutex<T: ?Sized> {
    rank: Rank,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A mutex at `rank` holding `value`.
    pub const fn new(rank: Rank, value: T) -> Self {
        Mutex { rank, inner: std::sync::Mutex::new(value) }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is free.
    ///
    /// # Panics
    ///
    /// In debug builds, when the calling thread already holds a lock whose
    /// rank is not strictly lower than this one's.
    #[track_caller]
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = order::Held::acquire(self.rank);
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, _held: held }
    }
}

impl<T: ?Sized> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").field("rank", &self.rank).finish_non_exhaustive()
    }
}

/// Guard of a [`Mutex`]; releases the lock (and its rank) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
    _held: order::Held,
}

impl<'a, T> MutexGuard<'a, T> {
    /// Block on `condvar` while `condition` holds, releasing the lock while
    /// asleep ([`Condvar::wait_while`]). The rank stays recorded: a
    /// sleeping thread acquires nothing else.
    pub fn wait_while(self, condvar: &Condvar, condition: impl FnMut(&mut T) -> bool) -> Self {
        let MutexGuard { inner, _held } = self;
        let inner = condvar
            .wait_while(inner, condition)
            .unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, _held }
    }

    /// [`MutexGuard::wait_while`], giving up after `timeout`
    /// ([`Condvar::wait_timeout_while`]).
    pub fn wait_timeout_while(
        self,
        condvar: &Condvar,
        timeout: Duration,
        condition: impl FnMut(&mut T) -> bool,
    ) -> (Self, WaitTimeoutResult) {
        let MutexGuard { inner, _held } = self;
        let (inner, result) = condvar
            .wait_timeout_while(inner, timeout, condition)
            .unwrap_or_else(PoisonError::into_inner);
        (MutexGuard { inner, _held }, result)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A ranked, poison-recovering [`std::sync::RwLock`]. Readers and writers
/// alike hold its rank.
pub struct RwLock<T: ?Sized> {
    rank: Rank,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// A reader-writer lock at `rank` holding `value`.
    pub const fn new(rank: Rank, value: T) -> Self {
        RwLock { rank, inner: std::sync::RwLock::new(value) }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    ///
    /// # Panics
    ///
    /// As for [`Mutex::lock`].
    #[track_caller]
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = order::Held::acquire(self.rank);
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard { inner, _held: held }
    }

    /// Acquire exclusive write access.
    ///
    /// # Panics
    ///
    /// As for [`Mutex::lock`].
    #[track_caller]
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = order::Held::acquire(self.rank);
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard { inner, _held: held }
    }
}

impl<T: ?Sized> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock").field("rank", &self.rank).finish_non_exhaustive()
    }
}

/// Shared guard of a [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _held: order::Held,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive guard of a [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _held: order::Held,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// The debug-build rank check: a thread-local list of the ranks this
/// thread holds, strictly increasing because every acquisition must
/// outrank the last entry.
#[cfg(debug_assertions)]
mod order {
    use std::cell::{Cell, RefCell};
    use std::panic::Location;

    use super::Rank;

    thread_local! {
        static HELD: RefCell<Vec<(Rank, &'static Location<'static>)>> =
            const { RefCell::new(Vec::new()) };
        static ACQUIRED: Cell<u64> = const { Cell::new(0) };
    }

    /// One recorded acquisition; dropping it forgets the rank.
    pub(super) struct Held(Rank);

    impl Held {
        /// Check `rank` against the innermost lock this thread holds and
        /// record it. A lock taken during thread teardown, after the
        /// thread's record is destroyed (a thread-local's destructor that
        /// locks), is neither checked nor recorded.
        #[track_caller]
        pub(super) fn acquire(rank: Rank) -> Held {
            let site = Location::caller();
            let conflict = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                match held.last() {
                    Some(&(top, top_site)) if top >= rank => Some((top, top_site)),
                    _ => {
                        held.push((rank, site));
                        None
                    }
                }
            });
            if let Ok(Some((top, top_site))) = conflict {
                panic!(
                    "lock order violation: {rank:?} acquired at {site} while holding \
                     {top:?} acquired at {top_site} (sync::Rank lists locks outermost first)"
                );
            }
            let _ = ACQUIRED.try_with(|n| n.set(n.get() + 1));
            Held(rank)
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            // Guards may drop in any order, and after the thread-local is
            // gone during thread teardown.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(i) = held.iter().rposition(|&(rank, _)| rank == self.0) {
                    held.remove(i);
                }
            });
        }
    }

    pub(super) fn acquisitions() -> u64 {
        ACQUIRED.with(Cell::get)
    }
}

/// Release builds: no record, no check.
#[cfg(not(debug_assertions))]
mod order {
    use super::Rank;

    pub(super) struct Held;

    impl Held {
        #[inline(always)]
        pub(super) fn acquire(_rank: Rank) -> Held {
            Held
        }
    }

    pub(super) fn acquisitions() -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_nesting_and_release_in_any_order() {
        let outer = Mutex::new(Rank::RuntimeQueue, 1);
        let inner = RwLock::new(Rank::Registry, 2);
        let a = outer.lock();
        let b = inner.write();
        drop(a);
        drop(b);
        // Released ranks are forgotten: the same pair again, either way round.
        let b = inner.read();
        drop(b);
        let a = outer.lock();
        assert_eq!(*a + *inner.read(), 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn abba_through_the_wrappers_panics_naming_both_sites() {
        let a = std::sync::Arc::new(Mutex::new(Rank::RuntimeQueue, ()));
        let b = std::sync::Arc::new(Mutex::new(Rank::ResultSlot, ()));
        // A then B is the ranked order.
        drop((a.lock(), b.lock()));
        // B then A, on a thread of its own so the panic is observable.
        let (a2, b2) = (std::sync::Arc::clone(&a), std::sync::Arc::clone(&b));
        let err = std::thread::spawn(move || {
            let _b = b2.lock();
            let _a = a2.lock();
        })
        .join()
        .expect_err("acquiring RuntimeQueue under ResultSlot must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("RuntimeQueue acquired at"), "{msg}");
        assert!(msg.contains("while holding ResultSlot acquired at"), "{msg}");
        assert_eq!(msg.matches("sync.rs:").count(), 2, "both sites named: {msg}");
        // The panicking thread never took A: it is still free.
        drop(a.lock());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn one_rank_twice_panics() {
        let first = Mutex::new(Rank::Registry, ());
        let second = Mutex::new(Rank::Registry, ());
        let _g = first.lock();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(second.lock())));
        assert!(caught.is_err(), "two locks of one rank must not be held together");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn acquisitions_count_per_thread() {
        let m = Mutex::new(Rank::LogWindow, 0u8);
        let before = acquisitions();
        drop(m.lock());
        drop(m.lock());
        assert_eq!(acquisitions() - before, 2);
    }

    #[test]
    fn condvar_waits_loop_until_the_condition_clears() {
        let state = std::sync::Arc::new((Mutex::new(Rank::PoolLatch, 3u32), Condvar::new()));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let state = std::sync::Arc::clone(&state);
                std::thread::spawn(move || {
                    *state.0.lock() -= 1;
                    state.1.notify_all();
                })
            })
            .collect();
        let left = state.0.lock().wait_while(&state.1, |n| *n > 0);
        assert_eq!(*left, 0);
        drop(left);
        for w in workers {
            w.join().unwrap();
        }
        let (guard, timeout) =
            state.0.lock().wait_timeout_while(&state.1, Duration::from_millis(5), |n| *n == 0);
        assert!(timeout.timed_out());
        assert_eq!(*guard, 0);
    }

    #[test]
    fn poisoned_locks_recover() {
        let m = std::sync::Arc::new(Mutex::new(Rank::TraceBuffer, 7));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}

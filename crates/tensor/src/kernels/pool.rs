//! A std-only persistent worker pool with a scoped `parallel_for`.
//!
//! The pool exists so the GEMM/conv kernels can shard work across cores
//! without spawning OS threads per call (a U-Net forward issues hundreds of
//! GEMMs per DDIM step). Workers are spawned lazily on first parallel use
//! and live for the process; dispatch is one channel send per participating
//! worker plus a condvar wait, a few microseconds per call.
//!
//! [`parallel_for`] has rayon-scope-like semantics: the closure borrows from
//! the caller's stack and the call does not return until every task has
//! finished, so handing out non-`'static` references is sound. Work items
//! are claimed from a shared atomic counter, so uneven tasks load-balance
//! across workers and the caller (which participates instead of idling).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, OnceLock};

use dcdiff_telemetry::sync::{Mutex, Rank};

use super::config::configured_threads;

/// Countdown latch: the caller waits until every kicked worker checks in.
struct Latch {
    state: Mutex<LatchState>,
    cond: Condvar,
}

struct LatchState {
    remaining: usize,
    panicked: bool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            state: Mutex::new(Rank::PoolLatch, LatchState { remaining: count, panicked: false }),
            cond: Condvar::new(),
        }
    }

    fn check_in(&self, panicked: bool) {
        let mut state = self.state.lock();
        state.remaining -= 1;
        state.panicked |= panicked;
        if state.remaining == 0 {
            self.cond.notify_all();
        }
    }

    /// Block until all participants checked in; returns whether any panicked.
    fn wait(&self) -> bool {
        self.state.lock().wait_while(&self.cond, |state| state.remaining > 0).panicked
    }
}

/// One parallel region: tasks `0..total` claimed from `next`.
struct Region<'a> {
    f: &'a (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    total: usize,
}

impl Region<'_> {
    /// Claim and run tasks until the counter is exhausted.
    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            (self.f)(i);
        }
    }
}

/// A unit of work handed to a pool worker: a type-erased pointer to the
/// caller's stack-held [`Region`] plus the latch it must check in on.
///
/// Safety: the pointer is only dereferenced while the issuing
/// [`parallel_for`] call is blocked in [`Latch::wait`], which does not
/// return until this kick has checked in.
struct Kick {
    region: *const Region<'static>,
    latch: *const Latch,
}

// SAFETY: the pointers are dereferenced only while the issuing parallel_for
// frame is blocked in Latch::wait, so they never outlive their referents.
unsafe impl Send for Kick {}

struct Pool {
    sender: Mutex<Sender<Kick>>,
    workers: usize,
}

fn worker_loop(jobs: &Mutex<Receiver<Kick>>) {
    loop {
        let kick = {
            let guard = jobs.lock();
            guard.recv()
        };
        let Ok(kick) = kick else { return };
        // SAFETY: see `Kick` — pointers stay valid until the check-in below.
        let region: &Region<'_> = unsafe { &*kick.region };
        // SAFETY: as for `region`: the latch outlives this worker's check-in.
        let latch: &Latch = unsafe { &*kick.latch };
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| region.drain())).is_err();
        latch.check_in(panicked);
    }
}

#[expect(
    clippy::expect_used,
    reason = "thread-spawn failure at pool init is an unrecoverable environment fault"
)]
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        // Size by the larger of the budget and the hardware so a later
        // `set_threads` raise (bench sweeps) still finds enough workers;
        // surplus workers just block on the channel.
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = configured_threads().max(hw).saturating_sub(1);
        let (sender, receiver) = channel::<Kick>();
        let jobs: &'static Mutex<Receiver<Kick>> =
            Box::leak(Box::new(Mutex::new(Rank::PoolJobs, receiver)));
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("dcdiff-kernel-{i}"))
                .spawn(move || worker_loop(jobs))
                .expect("spawn kernel pool worker");
        }
        Pool { sender: Mutex::new(Rank::PoolSender, sender), workers }
    })
}

/// Run `f(0) .. f(total-1)` across the kernel pool and the calling thread.
///
/// Blocks until every task completes, so `f` may borrow from the caller's
/// stack. Tasks are claimed dynamically (atomic counter), so `total` may
/// exceed the thread count. Runs inline when the pool is configured for a
/// single thread or there is at most one task. Panics in `f` are joined and
/// re-raised on the caller.
pub fn parallel_for(total: usize, f: &(dyn Fn(usize) + Sync)) {
    parallel_for_with_threads(configured_threads(), total, f);
}

/// [`parallel_for`] on at most `threads` threads (the caller included)
/// instead of the configured budget, so tests can compare thread counts
/// without touching the process-wide [`super::set_threads`].
#[expect(clippy::expect_used, reason = "the receiver is leaked at pool init and never dropped")]
pub(crate) fn parallel_for_with_threads(threads: usize, total: usize, f: &(dyn Fn(usize) + Sync)) {
    if total == 0 {
        return;
    }
    if threads <= 1 || total == 1 {
        for i in 0..total {
            f(i);
        }
        return;
    }
    let pool = pool();
    let kicks = pool.workers.min(threads - 1).min(total - 1);
    if kicks == 0 {
        for i in 0..total {
            f(i);
        }
        return;
    }
    let region = Region { f, next: AtomicUsize::new(0), total };
    let latch = Latch::new(kicks);
    {
        // Erase the stack lifetime only for transport through the channel.
        // SAFETY: `latch.wait()` below keeps this frame alive until every
        // worker that received the pointer has checked in on the latch.
        let region_ptr: *const Region<'static> = unsafe {
            std::mem::transmute::<*const Region<'_>, *const Region<'static>>(&region)
        };
        let sender = pool.sender.lock();
        for _ in 0..kicks {
            sender
                .send(Kick { region: region_ptr, latch: &latch })
                .expect("kernel pool workers alive");
        }
    }
    // The caller participates instead of idling; even if it panics we must
    // wait for the workers before unwinding past `region`.
    let caller =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| region.drain()));
    let worker_panicked = latch.wait();
    if let Err(payload) = caller {
        std::panic::resume_unwind(payload);
    }
    assert!(!worker_panicked, "kernel pool worker panicked");
}

/// Split `buf` into `ceil(len / chunk)` consecutive chunks and run
/// `f(chunk_index, chunk)` for each in parallel.
///
/// The chunks are disjoint, so handing each task its own `&mut` view is
/// sound even though they all derive from one slice.
pub fn parallel_chunks_mut(buf: &mut [f32], chunk: usize, f: &(dyn Fn(usize, &mut [f32]) + Sync)) {
    parallel_chunks_mut_with_threads(configured_threads(), buf, chunk, f);
}

/// [`parallel_chunks_mut`] on at most `threads` threads; see
/// [`parallel_for_with_threads`].
pub(crate) fn parallel_chunks_mut_with_threads(
    threads: usize,
    buf: &mut [f32],
    chunk: usize,
    f: &(dyn Fn(usize, &mut [f32]) + Sync),
) {
    assert!(chunk > 0, "chunk size must be positive");
    let len = buf.len();
    let tasks = len.div_ceil(chunk);
    let base = buf.as_mut_ptr() as usize;
    parallel_for_with_threads(threads, tasks, &|i| {
        let start = i * chunk;
        let end = (start + chunk).min(len);
        // SAFETY: disjoint per-index ranges of a live &mut [f32] — no two
        // tasks overlap and end is clamped to len; see the doc comment.
        let view = unsafe { std::slice::from_raw_parts_mut((base as *mut f32).add(start), end - start) };
        f(i, view);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        let hits = AtomicU64::new(0);
        parallel_for(37, &|i| {
            hits.fetch_add(1 << (i % 60), Ordering::Relaxed);
        });
        // each of 37 indices contributes once (mod the wrap at 60)
        let mut expected = 0u64;
        for i in 0..37 {
            expected += 1 << (i % 60);
        }
        assert_eq!(hits.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn zero_and_single_task_run_inline() {
        parallel_for(0, &|_| panic!("no tasks"));
        let hits = AtomicU64::new(0);
        parallel_for(1, &|i| {
            assert_eq!(i, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn chunks_are_disjoint_and_cover() {
        let mut buf = vec![0.0f32; 103];
        parallel_chunks_mut(&mut buf, 10, &|i, chunk| {
            for v in chunk.iter_mut() {
                *v += (i + 1) as f32;
            }
        });
        for (pos, v) in buf.iter().enumerate() {
            assert_eq!(*v, (pos / 10 + 1) as f32, "position {pos}");
        }
    }

    #[test]
    fn borrows_caller_stack_mutably_via_interior() {
        let data: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
        parallel_for(16, &|i| data[i].store(i as u64 + 1, Ordering::Relaxed));
        for (i, v) in data.iter().enumerate() {
            assert_eq!(v.load(Ordering::Relaxed), i as u64 + 1);
        }
    }
}

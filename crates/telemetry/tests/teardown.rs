//! A ranked lock taken while a thread's locals are being destroyed.
//!
//! Debug builds check every acquisition against the locks the thread
//! already holds, a list kept in a thread-local. A thread-local whose
//! destructor takes a ranked lock can run after that list is gone; the
//! check is then skipped, and the lock is taken unrecorded. Reading the
//! destroyed list would panic inside a destructor, which aborts the
//! process, so this binary holds this one test and nothing else.

use dcdiff_telemetry::sync::{Mutex, Rank};

static TAKEN: Mutex<u32> = Mutex::new(Rank::LogWindow, 0);

/// Takes [`TAKEN`]'s lock when dropped.
struct LocksOnDrop;

impl Drop for LocksOnDrop {
    fn drop(&mut self) {
        *TAKEN.lock() += 1;
    }
}

thread_local! {
    static LOCKS_ON_DROP: LocksOnDrop = const { LocksOnDrop };
}

#[test]
fn a_thread_local_destructor_takes_a_ranked_lock_after_the_rank_record_is_gone() {
    std::thread::spawn(|| {
        // Touched first, so destroyed after every local touched later,
        // among them the rank record the lock below creates.
        LOCKS_ON_DROP.with(|_| {});
        *TAKEN.lock() += 1;
    })
    .join()
    .expect("the thread exits cleanly");
    assert_eq!(*TAKEN.lock(), 2, "the lock was taken in the thread and in its teardown");
}

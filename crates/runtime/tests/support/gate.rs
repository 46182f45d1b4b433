//! Hold a single-worker [`Runtime`] busy on an explicit gate, so a test can
//! queue a burst behind it without guessing at timings.
//!
//! [`Gate::hold`] submits a Recover job whose input is a named pipe and
//! returns once the worker has popped it. The worker then blocks in its real
//! `std::fs::read` of the pipe until [`Gate::release`] writes a DC-dropped
//! JPEG into it. The held job recovers with SmartCom, a method no gated test
//! queues behind it, so it never fuses with the burst.
//!
//! Shared by the runtime's unit and integration tests and by the serve
//! crate's unit tests (`#[path]` includes); needs `mkfifo` (coreutils).

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dcdiff_image::{Image, Plane};
use dcdiff_jpeg::{encode_coefficients, DcDropMode, JpegEncoder};
use dcdiff_runtime::{Job, RecoverMethod, ResultHandle, Runtime};

/// A worker parked on a named pipe (see the module docs).
pub struct Gate {
    dir: PathBuf,
    fifo: PathBuf,
    held: ResultHandle,
}

impl Gate {
    /// Submit the held job and return once the worker has taken it.
    pub fn hold(runtime: &Runtime) -> Gate {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dcdiff-gate-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create gate dir");
        let fifo = dir.join("held.jpg");
        let made = Command::new("mkfifo").arg(&fifo).status().expect("run mkfifo");
        assert!(made.success(), "mkfifo {} failed", fifo.display());
        let job = Job::Recover {
            input: fifo.to_string_lossy().into_owned(),
            output: dir.join("held.ppm").to_string_lossy().into_owned(),
            method: RecoverMethod::SmartCom,
        };
        let (_, held) = runtime.submit_watched(job).expect("submit the held job");
        wait_until("the worker takes the held job", || runtime.queue_depth() == 0);
        Gate { dir, fifo, held }
    }

    /// Feed the held job its input and return once it has completed.
    pub fn release(self) {
        std::fs::write(&self.fifo, dropped_jpeg(16, 16)).expect("feed the held job");
        let held = self.held.wait_timeout(Duration::from_secs(10)).expect("held job finishes");
        assert!(held.is_ok(), "held job failed: {:?}", held.outcome);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Spin until `ready` holds; panic after 10 s.
pub fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::yield_now();
    }
}

/// A DC-dropped JPEG stream of a smooth gradient, the canonical DCDiff
/// receiver input.
pub fn dropped_jpeg(width: usize, height: usize) -> Vec<u8> {
    let plane = Plane::from_fn(width, height, |x, y| {
        64.0 + (x as f32 / width.max(1) as f32) * 96.0 + (y as f32 / height.max(1) as f32) * 48.0
    });
    let coeffs = JpegEncoder::new(75)
        .to_coefficients(&Image::from_gray(plane))
        .drop_dc(DcDropMode::KeepCorners);
    encode_coefficients(&coeffs).expect("encode a DC-dropped stream")
}

//! # dcdiff-runtime — batch-serving execution engine for DCDiff pipelines
//!
//! The DCDiff system splits work asymmetrically: a low-cost IoT sender
//! encodes and drops DC coefficients, and a powerful receiver recovers them —
//! so receiver-side throughput is the system bottleneck. This crate is the
//! substrate for serving that work at scale, std-only (threads, channels via
//! `Mutex`/`Condvar`, atomics — no external dependencies):
//!
//! * [`Job`] / [`JobSpec`] — the job model covering the existing pipelines
//!   (encode, DC-drop transcode, recovery, metrics) with per-job deadline,
//!   retry budget and a stable [`JobId`];
//! * [`BoundedQueue`] — the bounded MPMC backpressure point (blocking or
//!   fail-fast submission, drain vs. abort close);
//! * [`Runtime`] — a fixed worker pool with micro-batching of Recover jobs
//!   sharing a config (one engine per batch instead of one per image; one
//!   fused DDIM cohort per diffusion batch), deadline enforcement, and
//!   bounded retry with exponential backoff;
//! * [`RuntimeStats`] — an atomic counter block whose [`RuntimeStats::snapshot`]
//!   the CLI prints after `dcdiff batch`;
//! * [`manifest`] — the one-job-per-line manifest format shared by
//!   `dcdiff batch` and the runtime benchmark.
//!
//! ## Observability
//!
//! Deep instrumentation lives in the `dcdiff-telemetry` crate.
//! [`RuntimeConfig`] carries a `Telemetry` handle that the runtime threads
//! through every stage: queue wait, batch assembly, per-job and per-phase
//! execution spans (JSONL tracing via `--trace`), plus latency histograms
//! (`runtime.queue_wait_us`, `runtime.job_wall_us`, `stage.*_us`), a
//! `runtime.queue_depth` gauge, retry counters and per-worker utilisation
//! gauges — all exported by `dcdiff batch --metrics` and aggregated offline
//! by `dcdiff report`.
//!
//! ## Example
//!
//! ```no_run
//! use dcdiff_runtime::{Job, RecoverMethod, Runtime, RuntimeConfig, ShutdownMode};
//!
//! let runtime = Runtime::start(RuntimeConfig::with_workers(4));
//! for i in 0..16 {
//!     runtime.submit_blocking(Job::Recover {
//!         input: format!("scene{i}.jpg"),
//!         output: format!("scene{i}.ppm"),
//!         method: RecoverMethod::Tip2006,
//!     }).unwrap();
//! }
//! let report = runtime.shutdown(ShutdownMode::Drain);
//! println!("{}", report.stats.render());
//! ```

pub mod exec;
pub mod job;
pub mod manifest;
pub mod queue;
pub mod runtime;
pub mod stats;

pub use exec::{execute, recover_guarded, CohortLane, EngineCache, RecoveryPolicy};
pub use job::{
    CodingOpts, ErrorClass, Job, JobError, JobFailure, JobId, JobOutput, JobResult, JobSpec,
    RecoverMethod, Stage,
};
pub use manifest::{parse_line, parse_manifest};
pub use queue::{BoundedQueue, PushError};
pub use runtime::{ResultHandle, Runtime, RuntimeConfig, RuntimeReport, ShutdownMode, SubmitError};
pub use stats::{RuntimeStats, StatsSnapshot};

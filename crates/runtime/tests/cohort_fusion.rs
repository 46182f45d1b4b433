//! End-to-end properties of the cross-request DDIM cohort scheduler.
//!
//! * **Determinism** — a runtime fusing diffusion Recover jobs into shared
//!   U-Net forwards (`batch_max` 2 or 8) writes byte-identical outputs to a
//!   width-1 runtime: per-lane content seeding makes every result
//!   independent of cohort composition.
//! * **Observability** — fused execution records `diffusion.batch.width`
//!   observations wider than one lane.
//! * **Eviction** — a lane whose deadline is already blown fails with
//!   `DeadlineExceeded` while its batch-mates complete normally.
//!
//! Each burst queues behind a [`gate::Gate`] that holds the lone worker, so
//! the worker assembles it into one micro-batch.
#![cfg(unix)]

#[path = "support/gate.rs"]
mod gate;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dcdiff_image::Image;
use dcdiff_runtime::{
    execute, CodingOpts, EngineCache, Job, JobFailure, JobSpec, Rate, RecoverMethod, Runtime,
    RuntimeConfig, ShutdownMode,
};
use dcdiff_telemetry::Telemetry;

/// Unique-per-test scratch directory (tests may run concurrently).
fn scratch_dir(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dcdiff-cohort-{tag}-{}-{case}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn path(dir: &std::path::Path, name: &str) -> String {
    dir.join(name).to_string_lossy().into_owned()
}

/// Stage `n` distinct DC-dropped JPEG inputs under `dir`.
fn stage_inputs(dir: &std::path::Path, n: usize) {
    let mut setup = EngineCache::new();
    for i in 0..n {
        // Distinct flat levels give each stream a distinct content seed.
        let image = Image::filled(32, 32, dcdiff_image::ColorSpace::Rgb, 40.0 + 30.0 * i as f32);
        dcdiff_image::write_ppm(path(dir, &format!("in{i}.ppm")), &image).expect("write scene");
        let encode = Job::Encode {
            input: path(dir, &format!("in{i}.ppm")),
            output: path(dir, &format!("dropped{i}.jpg")),
            rate: Rate::Quality(50),
            sampling: dcdiff_jpeg::ChromaSampling::Cs444,
            opts: CodingOpts { drop_dc: true, ..Default::default() },
        };
        assert!(execute(&encode, &mut setup, &Telemetry::new()).is_ok());
    }
}

fn recover_job(dir: &std::path::Path, i: usize, prefix: &str) -> Job {
    Job::Recover {
        input: path(dir, &format!("dropped{i}.jpg")),
        output: path(dir, &format!("{prefix}{i}.ppm")),
        method: RecoverMethod::Diffusion { ddim_steps: 2 },
    }
}

/// Run `n` diffusion recoveries through a single-worker runtime at the given
/// cohort width, queued as one burst behind the gate.
fn run_at_width(dir: &std::path::Path, n: usize, width: usize, prefix: &str) -> Telemetry {
    let tel = Telemetry::new();
    let runtime = Runtime::start(RuntimeConfig {
        workers: 1,
        queue_cap: 16,
        batch_max: width,
        telemetry: tel.clone(),
        ..RuntimeConfig::default()
    });
    let gate = gate::Gate::hold(&runtime);
    for i in 0..n {
        runtime.submit_blocking(recover_job(dir, i, prefix)).expect("submit burst job");
    }
    gate.release();
    let report = runtime.shutdown(ShutdownMode::Drain);
    assert_eq!(report.results.len(), n);
    assert!(
        report.results.iter().all(dcdiff_runtime::JobResult::is_ok),
        "all recoveries succeed at width {width}"
    );
    tel
}

#[test]
fn fused_cohorts_write_bit_identical_outputs_across_widths() {
    let n = 4;
    let dir = scratch_dir("widths");
    stage_inputs(&dir, n);
    let widths_before = dcdiff_telemetry::global()
        .registry()
        .snapshot()
        .histogram("diffusion.batch.width");

    run_at_width(&dir, n, 1, "w1_");
    let tel8 = run_at_width(&dir, n, 8, "w8_");
    run_at_width(&dir, n, 2, "w2_");

    for i in 0..n {
        let width1 = std::fs::read(path(&dir, &format!("w1_{i}.ppm"))).expect("w1 output");
        let fused8 = std::fs::read(path(&dir, &format!("w8_{i}.ppm"))).expect("w8 output");
        let fused2 = std::fs::read(path(&dir, &format!("w2_{i}.ppm"))).expect("w2 output");
        assert_eq!(width1, fused8, "image {i}: width 8 diverged from width 1");
        assert_eq!(width1, fused2, "image {i}: width 2 diverged from width 1");
    }

    // The width-8 runtime assembled a real micro-batch...
    let batch_size = tel8.registry().snapshot().histogram("runtime.batch_size");
    assert!(batch_size.max > 1, "burst formed a batch");
    // ...and the fused estimate observed multi-lane forwards (global handle;
    // parallel tests only add to the delta).
    let widths_after = dcdiff_telemetry::global()
        .registry()
        .snapshot()
        .histogram("diffusion.batch.width");
    assert!(widths_after.count > widths_before.count, "cohort steps were observed");
    assert!(widths_after.max >= 2, "at least one shared forward carried multiple lanes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn expired_lane_is_evicted_while_batch_mates_complete() {
    let n = 3;
    let dir = scratch_dir("evict");
    stage_inputs(&dir, n);

    // Sequential reference for the surviving lanes.
    let mut reference = EngineCache::new();
    for i in 0..2 {
        let job = recover_job(&dir, i, "ref_");
        assert!(execute(&job, &mut reference, &Telemetry::new()).is_ok());
    }

    let runtime = Runtime::start(RuntimeConfig {
        workers: 1,
        queue_cap: 16,
        batch_max: 8,
        ..RuntimeConfig::default()
    });
    let gate = gate::Gate::hold(&runtime);
    for i in 0..2 {
        runtime.submit_blocking(recover_job(&dir, i, "run_")).expect("submit survivor");
    }
    // A zero deadline has passed by the time the worker looks, so the
    // doomed lane is evicted at its batch's pre-flight deadline gate.
    let doomed = JobSpec::new(recover_job(&dir, 2, "run_")).with_deadline(Duration::ZERO);
    let doomed_id = runtime.submit_blocking(doomed).expect("submit doomed");
    gate.release();
    let report = runtime.shutdown(ShutdownMode::Drain);

    assert_eq!(report.results.len(), n);
    let doomed_result = report.result(doomed_id).expect("doomed result recorded");
    assert_eq!(
        doomed_result.outcome,
        Err(JobFailure::DeadlineExceeded),
        "expired lane reports its deadline, not an engine error"
    );
    assert_eq!(report.stats.deadline_missed, 1);
    for i in 0..2 {
        let survivor = std::fs::read(path(&dir, &format!("run_{i}.ppm"))).expect("survivor output");
        let expected = std::fs::read(path(&dir, &format!("ref_{i}.ppm"))).expect("reference");
        assert_eq!(survivor, expected, "survivor {i} must match its solo recovery");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! Benchmark of the `dcdiff-runtime` batch-serving engine: the
//! cross-request DDIM cohort ablation (canvas × steps × width) on a single
//! worker. The grid covers two regimes: 16x16 tiles, where U-Net forwards
//! are per-call-overhead-bound and fusing lanes pays off, and 64x64 full
//! scenes, where the width-independent stage-1 decode floors the achievable
//! speedup. Every job is compute; the JSON records the host's core count.
//!
//! Usage: `cargo run --release -p dcdiff-bench --bin runtime_bench`
//!
//! Writes `BENCH_runtime.json` to the current directory.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_runtime::{
    execute, CodingOpts, EngineCache, Job, Rate, RecoverMethod, Runtime, RuntimeConfig,
    ShutdownMode,
};
use dcdiff_telemetry::{names, Telemetry};

const IMAGES: usize = 16;

/// One cell of the canvas × DDIM steps × cohort-width ablation.
struct CohortRun {
    canvas: usize,
    steps: usize,
    width: usize,
    wall: Duration,
    jobs_per_sec: f64,
    shared_forwards: u64,
    lane_steps: u64,
    cohorts: u64,
}

/// Recover one staged manifest with the diffusion estimator on one worker at
/// the given cohort width (`batch_max`; width 1 runs one-lane cohorts). A
/// single worker isolates what the ablation is
/// after — U-Net forward amortisation from cross-request batching — from
/// worker parallelism. Per-lane content seeding keeps the outputs
/// bit-identical across widths, so every cell does the same numerical work.
fn run_cohort(scratch: &std::path::Path, canvas: usize, steps: usize, width: usize) -> CohortRun {
    let tel = Telemetry::new();
    // The batched sampler reports `diffusion.batch.*` through the global
    // handle; install this run's so the counters are per-cell.
    dcdiff_telemetry::install(tel.clone());
    let runtime = Runtime::start(RuntimeConfig {
        workers: 1,
        queue_cap: IMAGES,
        batch_max: width,
        telemetry: tel.clone(),
        ..RuntimeConfig::default()
    });
    let start = Instant::now();
    for i in 0..IMAGES {
        let job = Job::Recover {
            input: scratch.join(format!("dropped-c{canvas}-{i}.jpg")).to_string_lossy().into_owned(),
            output: scratch
                .join(format!("cohort-c{canvas}-s{steps}-w{width}-{i}.ppm"))
                .to_string_lossy()
                .into_owned(),
            method: RecoverMethod::Diffusion { ddim_steps: steps },
        };
        runtime.submit_blocking(job).expect("submit");
    }
    let report = runtime.shutdown(ShutdownMode::Drain);
    let wall = start.elapsed();
    assert!(report.results.iter().all(dcdiff_runtime::JobResult::is_ok), "all jobs must succeed");
    CohortRun {
        canvas,
        steps,
        width,
        wall,
        jobs_per_sec: IMAGES as f64 / wall.as_secs_f64(),
        shared_forwards: tel.counter(names::CTR_DIFFUSION_BATCH_SHARED_FORWARDS).get(),
        lane_steps: tel.counter(names::CTR_DIFFUSION_BATCH_LANE_STEPS).get(),
        cohorts: tel.counter(names::CTR_DIFFUSION_BATCH_COHORTS).get(),
    }
}

fn main() {
    let scratch = std::env::temp_dir().join(format!("dcdiff-runtime-bench-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    let kinds = [
        SceneKind::Smooth,
        SceneKind::Natural,
        SceneKind::Texture,
        SceneKind::Urban,
        SceneKind::Aerial,
    ];
    let mut setup = EngineCache::new();
    // Cohort manifests, 16 DC-dropped scenes per canvas across all five
    // content kinds: the tile regime (16x16, near the paper's DCT-block
    // scale, where per-forward overhead dominates and batching amortises it)
    // and the full-scene regime (64x64, where the width-independent stage-1
    // decode floors the achievable speedup).
    for canvas in [16usize, 64] {
        for i in 0..IMAGES {
            let image =
                SceneGenerator::new(kinds[i % kinds.len()], canvas, canvas).generate(i as u64);
            let ppm = scratch.join(format!("scene-c{canvas}-{i}.ppm"));
            dcdiff_image::write_ppm(&ppm, &image).expect("write scene");
            let encode = Job::Encode {
                input: ppm.to_string_lossy().into_owned(),
                output: scratch
                    .join(format!("dropped-c{canvas}-{i}.jpg"))
                    .to_string_lossy()
                    .into_owned(),
                rate: Rate::Quality(50),
                sampling: dcdiff_jpeg::ChromaSampling::Cs444,
                opts: CodingOpts { drop_dc: true, ..Default::default() },
            };
            execute(&encode, &mut setup, &Telemetry::new()).expect("stage encode");
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("runtime_bench: {IMAGES} images per cell, {cores} core(s)");

    // Cross-request DDIM cohort ablation: one worker, diffusion estimator,
    // canvas × steps × width grid. Width 1 runs one-lane cohorts; wider
    // cells fuse concurrent lanes into shared U-Net forwards. The tile
    // regime isolates sampler amortisation; the full-scene regime shows the
    // decode-bound floor.
    let mut cohort_runs = Vec::new();
    for canvas in [16usize, 64] {
        for steps in [8usize, 64] {
            for width in [1usize, 2, 8] {
                // Best-of-two: single-core cells run in tens of milliseconds,
                // where one scheduler preemption skews a cell by 20%+.
                let first = run_cohort(&scratch, canvas, steps, width);
                let second = run_cohort(&scratch, canvas, steps, width);
                let cell = if first.wall <= second.wall { first } else { second };
                println!(
                    "  diffusion canvas={canvas} steps={steps} width={width}: {:6.1} jobs/s  \
                     wall {:5.0} ms  ({} cohorts, {} shared forwards, {} lane steps)",
                    cell.jobs_per_sec,
                    cell.wall.as_secs_f64() * 1e3,
                    cell.cohorts,
                    cell.shared_forwards,
                    cell.lane_steps,
                );
                cohort_runs.push(cell);
            }
        }
    }
    let cohort_speedup = |canvas: usize, steps: usize| -> f64 {
        let at = |width: usize| {
            cohort_runs
                .iter()
                .find(|c| c.canvas == canvas && c.steps == steps && c.width == width)
                .map_or(f64::NAN, |c| c.jobs_per_sec)
        };
        at(8) / at(1)
    };
    let cohort_speedup_tile_s64 = cohort_speedup(16, 64);
    println!(
        "  cohort speedup width 8 vs 1: tiles {:.2}x at 8 steps, {cohort_speedup_tile_s64:.2}x \
         at 64 steps; full-scene {:.2}x at 8 steps, {:.2}x at 64 steps",
        cohort_speedup(16, 8),
        cohort_speedup(64, 8),
        cohort_speedup(64, 64),
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"dcdiff-runtime batch serving\",");
    let _ = writeln!(json, "  \"images\": {IMAGES},");
    let _ = writeln!(json, "  \"cpu_cores\": {cores},");
    let _ = writeln!(
        json,
        "  \"kernel_config\": {},",
        dcdiff_tensor::kernels::KernelConfig::current().to_json()
    );
    // Named cells keep the bench_diff comparison reorder-robust; `steps`,
    // `width` and the raw counters carry no direction suffix, so the
    // sentinel treats them as configuration echoes.
    json.push_str("  \"diffusion_cohort\": [\n");
    for (i, c) in cohort_runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"canvas{}_steps{}_width{}\", \"canvas\": {}, \"steps\": {}, \
             \"width\": {}, \"wall_ms\": {:.2}, \"jobs_per_sec\": {:.2}, \"cohorts\": {}, \
             \"shared_forwards\": {}, \"lane_steps\": {}}}{}",
            c.canvas,
            c.steps,
            c.width,
            c.canvas,
            c.steps,
            c.width,
            c.wall.as_secs_f64() * 1e3,
            c.jobs_per_sec,
            c.cohorts,
            c.shared_forwards,
            c.lane_steps,
            if i + 1 < cohort_runs.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"cohort_speedup_canvas16_steps64_width8_vs_1\": {cohort_speedup_tile_s64:.2}"
    );
    json.push_str("}\n");
    std::fs::write("BENCH_runtime.json", &json).expect("write BENCH_runtime.json");
    println!("wrote BENCH_runtime.json");

    let _ = std::fs::remove_dir_all(&scratch);
    assert!(
        cohort_speedup_tile_s64 >= 2.5,
        "width-8 cohorts should serve at least 2.5x the width-1 rate on the 16x16 tile \
         manifest at 64 DDIM steps (got {cohort_speedup_tile_s64:.2}x)"
    );
}

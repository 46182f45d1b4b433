//! Property: batch-mode Recover output is byte-identical to the sequential
//! one-job-at-a-time path.
//!
//! The sequential reference runs `execute` directly with a fresh
//! [`EngineCache`] per job: one lane through the same ladder
//! (`recover_guarded`) that a one-shot `dcdiff recover` runs on its own
//! fresh one-worker runtime.
//! The batch path pushes the same jobs through a 4-worker [`Runtime`] with
//! micro-batching enabled. Whatever the scheduler does (batch grouping,
//! engine reuse, completion reordering), the written image files must match
//! byte for byte.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_runtime::{
    execute, EngineCache, Job, Runtime, RuntimeConfig, ShutdownMode,
};
use dcdiff_telemetry::Telemetry;
use proptest::prelude::*;

/// Unique-per-case scratch directory (tests may run concurrently).
fn scratch_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dcdiff-batch-eq-{}-{case}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn path(dir: &std::path::Path, name: &str) -> String {
    dir.join(name).to_string_lossy().into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batch_recover_matches_sequential(
        seed in 0u64..1_000_000,
        quality in 35u8..90,
        kind_index in 0usize..5,
        n_images in 2usize..5,
        method_index in 0usize..4,
        threshold in 6.0f32..14.0,
        sweeps in 2usize..8,
    ) {
        let kind = [
            SceneKind::Smooth,
            SceneKind::Natural,
            SceneKind::Texture,
            SceneKind::Urban,
            SceneKind::Aerial,
        ][kind_index];
        let method = [
            dcdiff_runtime::RecoverMethod::Tip2006,
            dcdiff_runtime::RecoverMethod::SmartCom,
            dcdiff_runtime::RecoverMethod::Icip,
            dcdiff_runtime::RecoverMethod::Mld { threshold, sweeps },
        ][method_index];

        let dir = scratch_dir();
        let generator = SceneGenerator::new(kind, 48, 48);

        // Stage the DC-dropped inputs once; both paths read the same files.
        let mut setup = EngineCache::new();
        for i in 0..n_images {
            let image = generator.generate(seed.wrapping_add(i as u64));
            dcdiff_image::write_ppm(path(&dir, &format!("in{i}.ppm")), &image)
                .expect("write scene");
            let encode = Job::Encode {
                input: path(&dir, &format!("in{i}.ppm")),
                output: path(&dir, &format!("dropped{i}.jpg")),
                rate: dcdiff_runtime::Rate::Quality(quality),
                sampling: dcdiff_jpeg::ChromaSampling::Cs444,
                opts: dcdiff_runtime::CodingOpts {
                    drop_dc: true,
                    ..Default::default()
                },
            };
            prop_assert!(execute(&encode, &mut setup, &Telemetry::new()).is_ok());
        }

        // Sequential reference: fresh engine per job, like one-shot recover.
        for i in 0..n_images {
            let job = Job::Recover {
                input: path(&dir, &format!("dropped{i}.jpg")),
                output: path(&dir, &format!("seq{i}.ppm")),
                method,
            };
            prop_assert!(execute(&job, &mut EngineCache::new(), &Telemetry::new()).is_ok());
        }

        // Batch path: 4 workers, micro-batching on.
        let runtime = Runtime::start(RuntimeConfig {
            workers: 4,
            queue_cap: 16,
            batch_max: 8,
            ..RuntimeConfig::default()
        });
        for i in 0..n_images {
            let job = Job::Recover {
                input: path(&dir, &format!("dropped{i}.jpg")),
                output: path(&dir, &format!("batch{i}.ppm")),
                method,
            };
            runtime.submit_blocking(job).expect("submit");
        }
        let report = runtime.shutdown(ShutdownMode::Drain);
        prop_assert_eq!(report.results.len(), n_images);
        prop_assert!(report.results.iter().all(|r| r.is_ok()));

        for i in 0..n_images {
            let sequential = std::fs::read(path(&dir, &format!("seq{i}.ppm")))
                .expect("sequential output");
            let batched = std::fs::read(path(&dir, &format!("batch{i}.ppm")))
                .expect("batch output");
            prop_assert_eq!(
                sequential, batched,
                "image {} diverged (method {}, quality {})",
                i, method.name(), quality
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! A one-shot `dcdiff encode|transcode|recover|metrics` is a one-line
//! `dcdiff batch`: for every job kind and recovery method, the file the
//! one-shot command writes is byte-identical to the one `dcdiff batch`
//! writes for the same manifest line, and `dcdiff metrics` prints exactly
//! the runtime's [`JobOutput::Metrics`].

use std::path::PathBuf;
use std::process::Command;

use dcdiff_runtime::{parse_line, JobOutput, Runtime, RuntimeConfig, ShutdownMode};

/// Run the `dcdiff` binary and return its stdout; panics with its stderr
/// when it fails.
fn dcdiff(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dcdiff"))
        .args(args)
        .output()
        .expect("spawn dcdiff");
    assert!(
        out.status.success(),
        "dcdiff {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Fresh per-test scratch directory.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcdiff-one-shot-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn one_shot_output_matches_a_one_line_batch() {
    let dir = scratch_dir("parity");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    dcdiff(&["demo", &path("scene.ppm"), "--scene", "urban", "--size", "48x48", "--seed", "5"]);
    dcdiff(&["encode", &path("scene.ppm"), &path("full.jpg"), "--quality", "60"]);
    dcdiff(&["encode", &path("scene.ppm"), &path("dropped.jpg"), "--quality", "60", "--drop-dc"]);

    // (output name, command, input, flags)
    let cases: [(&str, &str, &str, &[&str]); 9] = [
        ("plain.jpg", "encode", "scene.ppm", &[]),
        ("optimized.jpg", "encode", "scene.ppm", &["--drop-dc", "--optimize"]),
        ("budget.jpg", "encode", "scene.ppm", &["--budget", "1500"]),
        ("transcoded.jpg", "transcode", "full.jpg", &["--drop-dc"]),
        ("tip2006.ppm", "recover", "dropped.jpg", &["--method", "tip2006"]),
        ("smartcom.ppm", "recover", "dropped.jpg", &["--method", "smartcom"]),
        ("icip.ppm", "recover", "dropped.jpg", &["--method", "icip"]),
        ("mld.ppm", "recover", "dropped.jpg", &["--method", "mld", "--sweeps", "4"]),
        ("diffusion.ppm", "recover", "dropped.jpg", &["--method", "diffusion", "--steps", "2"]),
    ];
    let mut manifest = String::new();
    for (name, command, input, flags) in cases {
        let (input, one_shot) = (path(input), path(&format!("one-{name}")));
        let mut args = vec![command, input.as_str(), one_shot.as_str()];
        args.extend_from_slice(flags);
        dcdiff(&args);
        let batch = path(&format!("batch-{name}"));
        manifest.push_str(&format!("{command} {input} {batch} {}\n", flags.join(" ")));
    }
    std::fs::write(path("manifest.txt"), manifest).expect("write manifest");
    dcdiff(&["batch", &path("manifest.txt"), "--workers", "1"]);

    for (name, ..) in cases {
        let one_shot = std::fs::read(path(&format!("one-{name}"))).expect("one-shot output");
        let batch = std::fs::read(path(&format!("batch-{name}"))).expect("batch output");
        assert!(one_shot == batch, "{name}: one-shot output differs from dcdiff batch");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_shot_metrics_print_the_job_output() {
    let dir = scratch_dir("metrics");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    // 48 px sides carry MS-SSIM; 8 px sides are too small for it.
    for (size, side) in [("48x48", "big"), ("8x8", "small")] {
        let reference = path(&format!("{side}-ref.ppm"));
        let test = path(&format!("{side}-test.ppm"));
        dcdiff(&["demo", &reference, "--scene", "natural", "--size", size, "--seed", "1"]);
        dcdiff(&["demo", &test, "--scene", "natural", "--size", size, "--seed", "2"]);
        let printed = dcdiff(&["metrics", &reference, &test]);

        let spec = parse_line(&format!("metrics {reference} {test}"))
            .expect("valid line")
            .expect("a job");
        let runtime = Runtime::start(RuntimeConfig::with_workers(1));
        runtime.submit_blocking(spec).expect("submit");
        let result = runtime.shutdown(ShutdownMode::Drain).results.pop().expect("one result");
        let Ok(JobOutput::Metrics { psnr, ssim, ms_ssim, lpips }) = result.outcome else {
            panic!("metrics job failed: {:?}", result.outcome);
        };
        assert_eq!(ms_ssim.is_some(), side == "big");
        let ms_ssim = ms_ssim.map_or_else(String::new, |v| format!("  MS-SSIM {v:.4}"));
        assert_eq!(
            printed.trim_end(),
            format!("PSNR {psnr:.3} dB  SSIM {ssim:.4}{ms_ssim}  LPIPS {lpips:.4}")
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

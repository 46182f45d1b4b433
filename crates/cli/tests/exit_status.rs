//! `dcdiff`'s exit status and error output: a job that panics fails alone
//! while the batch runs on, and only a usage error prints the usage text.

use std::path::PathBuf;
use std::process::{Command, Output};

use dcdiff_jpeg::quant::QuantTable;
use dcdiff_jpeg::{encode_coefficients_optimized, ChromaSampling, CoeffImage, CoeffPlane};

fn dcdiff(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dcdiff"))
        .args(args)
        .output()
        .expect("spawn dcdiff")
}

/// Fresh per-test scratch directory.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcdiff-exit-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A valid 4800×8 gray stream whose DC levels climb by 32767 per block.
/// Its corner DCs differ by 19.6 M, which a `--drop-dc --optimize`
/// transcode cannot code in one 24-bit `BitWriter::put`.
fn dc_predictor_past_2_24() -> Vec<u8> {
    let mut plane = CoeffPlane::zeros(600, 1, 4800, 8);
    for bx in 0..600 {
        plane.block_mut(bx, 0)[0] = bx as i32 * 32767;
    }
    let coeffs = CoeffImage::from_parts(
        vec![plane],
        vec![QuantTable::luma(50)],
        ChromaSampling::Cs444,
        4800,
        8,
    );
    encode_coefficients_optimized(&coeffs).expect("the optimised encoder codes category 15")
}

#[test]
fn a_batch_runs_past_a_panicking_job() {
    let dir = scratch_dir("panic");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    std::fs::write(path("extreme.jpg"), dc_predictor_past_2_24()).expect("write stream");
    let demo = dcdiff(&["demo", &path("scene.ppm"), "--size", "16x16"]);
    assert!(demo.status.success());
    std::fs::write(
        path("m.txt"),
        format!(
            "transcode {} {} --drop-dc --optimize\nencode {} {}\n",
            path("extreme.jpg"),
            path("out.jpg"),
            path("scene.ppm"),
            path("scene.jpg")
        ),
    )
    .expect("write manifest");
    let out = dcdiff(&["batch", &path("m.txt"), "--workers", "1"]);
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stdout.contains("jobs: 2 submitted, 1 completed, 1 failed"), "{stdout}");
    assert!(stderr.contains("error: 1 of 2 job(s) failed"), "{stderr}");
    assert!(!stderr.contains("usage:"), "a job failure is no usage error:\n{stderr}");
    assert!(std::fs::metadata(path("scene.jpg")).is_ok(), "the encode after it ran");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_text_follows_usage_errors_only() {
    let out = dcdiff(&["lint", "--why", "x"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr.starts_with("error: unknown flag '--why'\n"), "{stderr}");
    assert!(stderr.contains("dcdiff lint    [--root DIR] [--update-ledger]\n"), "{stderr}");

    let out = dcdiff(&["metrics", "/nonexistent/a.ppm", "/nonexistent/b.ppm"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr.contains("\nerror: /nonexistent/a.ppm: "), "{stderr}");
    assert!(!stderr.contains("usage:"), "a job failure is no usage error:\n{stderr}");
}

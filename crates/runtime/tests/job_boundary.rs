//! The job boundary: a panic in one job's code fails that job with a
//! permanent error, counts in `runtime.job_panics`, and leaves the worker
//! serving the next job. An allocation failure aborts the process instead
//! of unwinding, so inputs that would ask for one are refused before it.

use dcdiff_image::{write_ppm, Image, Plane};
use dcdiff_jpeg::quant::QuantTable;
use dcdiff_jpeg::{encode_coefficients_optimized, ChromaSampling, CoeffImage, CoeffPlane};
use dcdiff_runtime::{
    parse_line, parse_manifest, ErrorClass, JobFailure, Runtime, RuntimeConfig, ShutdownMode,
};
use dcdiff_telemetry::Telemetry;

/// A valid 4800×8 gray stream whose DC levels climb by 32767 per block,
/// so every DC difference is category 15 and the predictor reaches
/// 19.6 M. Dropping all but the corner DCs leaves one difference that
/// needs 25 magnitude bits: more than `BitWriter::put` takes per call.
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
fn a_panicking_transcode_fails_its_job_and_the_worker_takes_the_next() {
    let dir = std::env::temp_dir().join(format!("dcdiff-job-boundary-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let stream = dc_predictor_past_2_24();
    assert_eq!(stream.len(), 2032);
    std::fs::write(path("extreme.jpg"), &stream).expect("write stream");
    let scene = Image::from_gray(Plane::from_fn(16, 16, |x, y| (x * 16 + y) as f32));
    write_ppm(path("scene.ppm"), &scene).expect("write scene");

    let tel = Telemetry::new();
    let runtime = Runtime::start(RuntimeConfig {
        workers: 1,
        telemetry: tel.clone(),
        ..RuntimeConfig::default()
    });
    let submit = |line: String| {
        let spec = parse_line(&line).expect("valid line").expect("a job");
        runtime.submit_blocking(spec).expect("accepted")
    };
    let transcode = submit(format!(
        "transcode {} {} --drop-dc --optimize",
        path("extreme.jpg"),
        path("out.jpg")
    ));
    let encode = submit(format!("encode {} {}", path("scene.ppm"), path("scene.jpg")));
    let report = runtime.shutdown(ShutdownMode::Drain);

    let failed = report.result(transcode).expect("the transcode finished");
    match &failed.outcome {
        Err(JobFailure::Error(err)) => {
            assert_eq!(err.class, ErrorClass::Permanent);
            assert!(
                err.message.contains("job panicked: at most 24 bits per call"),
                "{}",
                err.message
            );
        }
        other => panic!("expected a permanent job error, got {other:?}"),
    }
    assert_eq!(failed.attempts, 1, "a panic is never retried");
    assert!(report.result(encode).expect("the encode finished").outcome.is_ok());
    assert_eq!((report.stats.completed, report.stats.failed), (1, 1));
    assert_eq!(
        tel.registry().snapshot().counters.get("runtime.job_panics"),
        Some(&1)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_oversized_pnm_header_fails_its_line_and_the_batch_runs_on() {
    let dir = std::env::temp_dir().join(format!("dcdiff-pnm-bound-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    // 2^40 pixels: a 3 TB sample buffer, were the header believed.
    std::fs::write(path("huge.ppm"), b"P6\n1048576 1048576\n255\n\0\0\0").expect("write header");
    let scene = Image::from_gray(Plane::from_fn(16, 16, |x, y| (x * 16 + y) as f32));
    write_ppm(path("scene.ppm"), &scene).expect("write scene");
    let manifest = format!(
        "encode {} {}\nencode {} {}\nencode {} {}\n",
        path("scene.ppm"),
        path("a.jpg"),
        path("huge.ppm"),
        path("huge.jpg"),
        path("scene.ppm"),
        path("b.jpg"),
    );

    let tel = Telemetry::new();
    let runtime = Runtime::start(RuntimeConfig {
        workers: 1,
        telemetry: tel.clone(),
        ..RuntimeConfig::default()
    });
    let ids: Vec<_> = parse_manifest(&manifest)
        .expect("valid manifest")
        .into_iter()
        .map(|spec| runtime.submit_blocking(spec).expect("accepted"))
        .collect();
    let report = runtime.shutdown(ShutdownMode::Drain);

    let outcome = |i: usize| &report.result(ids[i]).expect("the line finished").outcome;
    assert!(outcome(0).is_ok(), "{:?}", outcome(0));
    match outcome(1) {
        Err(JobFailure::Error(err)) => {
            assert_eq!(err.class, ErrorClass::Permanent);
            assert!(err.message.contains("decode limit"), "{}", err.message);
        }
        other => panic!("expected a permanent job error, got {other:?}"),
    }
    assert!(outcome(2).is_ok(), "{:?}", outcome(2));
    assert_eq!((report.stats.completed, report.stats.failed), (2, 1));
    assert!(std::path::Path::new(&path("b.jpg")).exists());
    assert_eq!(tel.registry().snapshot().counters.get("runtime.job_panics"), Some(&0));
    std::fs::remove_dir_all(&dir).ok();
}

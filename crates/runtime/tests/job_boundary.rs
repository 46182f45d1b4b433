//! The job boundary: a panic in one job's code fails that job with a
//! permanent error, counts in `runtime.job_panics`, and leaves the worker
//! serving the next job.

use dcdiff_image::{write_ppm, Image, Plane};
use dcdiff_jpeg::quant::QuantTable;
use dcdiff_jpeg::{encode_coefficients_optimized, ChromaSampling, CoeffImage, CoeffPlane};
use dcdiff_runtime::{parse_line, ErrorClass, JobFailure, Runtime, RuntimeConfig, ShutdownMode};
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

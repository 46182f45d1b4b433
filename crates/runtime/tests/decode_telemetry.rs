//! Where a served recovery's pixel time is recorded. Recovery returns DC
//! levels, and the pixels are decoded once, band by band, as the response
//! file is written; that streamed decode still records
//! `jpeg.decode.pixels_us` and `jpeg.decode.blocks`. The decoder records
//! into the process-wide telemetry handle, so this binary holds one test
//! and no other decode shares the handle it installs. A fresh handle
//! replaces it after the job, so the decoder's per-thread cache holds the
//! last reference to the test's handle when the thread's locals are
//! destroyed; dropping it then takes a ranked lock during thread teardown,
//! which debug builds must survive.

use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_jpeg::{encode_coefficients, DcDropMode, JpegDecoder, JpegEncoder};
use dcdiff_runtime::{execute, EngineCache, Job, JobOutput, RecoverMethod};
use dcdiff_telemetry::Telemetry;

#[test]
fn a_recover_job_records_one_pixel_decode_of_every_block() {
    let dir = std::env::temp_dir().join(format!("dcdiff-decode-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a temporary directory");
    let (input, output) = (dir.join("in.jpg"), dir.join("out.ppm"));
    let scene = SceneGenerator::new(SceneKind::Natural, 48, 40).generate(3);
    let dropped = JpegEncoder::new(50).to_coefficients(&scene).drop_dc(DcDropMode::KeepCorners);
    let stream = encode_coefficients(&dropped).expect("encode the stream");
    std::fs::write(&input, &stream).expect("write the stream");
    let coeffs = JpegDecoder::decode_coefficients(&stream).expect("decode the stream");
    let blocks: u64 = (0..coeffs.channels())
        .map(|c| (coeffs.plane(c).blocks_x() * coeffs.plane(c).blocks_y()) as u64)
        .sum();

    let global = Telemetry::new();
    dcdiff_telemetry::install(global.clone());
    let read = |global: &Telemetry| {
        let metrics = global.registry().snapshot();
        (metrics.histogram("jpeg.decode.pixels_us").count, metrics.counter("jpeg.decode.blocks"))
    };
    let (decodes, decoded_blocks) = read(&global);
    let job = Job::Recover {
        input: input.to_string_lossy().into_owned(),
        output: output.to_string_lossy().into_owned(),
        method: RecoverMethod::Tip2006,
    };
    let done = execute(&job, &mut EngineCache::new(), &Telemetry::new()).expect("recover");
    assert!(matches!(done, JobOutput::Recovered { .. }));
    let (after, after_blocks) = read(&global);
    dcdiff_telemetry::install(Telemetry::new());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(after - decodes, 1, "one pixel decode per recovery");
    assert_eq!(after_blocks - decoded_blocks, blocks, "every block of the stream");
}

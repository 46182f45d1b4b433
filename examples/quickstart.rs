//! Quickstart: the full DCDiff round trip on one image.
//!
//! 1. generate a synthetic scene;
//! 2. JPEG-code it at Q50 and drop every DC coefficient except the four
//!    corner anchors (the sender side — zero extra work);
//! 3. recover the picture at the receiver with a (briefly trained) DCDiff
//!    system and compare against the statistical baseline.
//!
//! Run: `cargo run --release --example quickstart`

use dcdiff::baselines::{DcRecovery, SmartCom2019};
use dcdiff::core::{DcDiff, DcDiffConfig, RecoverOptions, TrainBudget};
use dcdiff::data::{DatasetProfile, SceneGenerator, SceneKind};
use dcdiff::jpeg::{encode_coefficients, ChromaSampling, CoeffImage, DcDropMode};
use dcdiff::metrics::psnr;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- sender ---
    let image = SceneGenerator::new(SceneKind::Urban, 96, 96).generate(42);
    let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
    let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
    let full_bytes = encode_coefficients(&coeffs)?.len();
    let sent_bytes = encode_coefficients(&dropped)?.len();
    println!("standard JPEG: {full_bytes} bytes");
    println!(
        "DC-dropped:    {sent_bytes} bytes ({:.1}% of standard)",
        100.0 * sent_bytes as f64 / full_bytes as f64
    );

    // --- receiver: train a small DCDiff system (a few seconds) ---
    println!("training a small DCDiff system...");
    let mut system = DcDiff::new(DcDiffConfig::default(), 7);
    let corpus = DatasetProfile::kodak().with_count(6).with_dims(96, 96).generate(100);
    system.train(
        &corpus,
        TrainBudget {
            stage1_steps: 60,
            ldm_steps: 60,
            mld_steps: 20,
            fmpp_steps: 10,
            batch: 2,
        },
        1,
    );

    let mut options = RecoverOptions::from_config(system.config());
    options.ddim_steps = 10;
    let reference = coeffs.to_image(); // what standard JPEG would deliver
    let dcdiff_out = system.recover_with(&dropped, &options);
    let baseline_out = SmartCom2019::new().recover(&dropped);
    let no_recovery = dropped.to_image();

    println!("PSNR vs JPEG reference:");
    println!("  no recovery    : {:.2} dB", psnr(&reference, &no_recovery));
    println!("  SmartCom 2019  : {:.2} dB", psnr(&reference, &baseline_out));
    println!("  DCDiff         : {:.2} dB", psnr(&reference, &dcdiff_out));
    Ok(())
}

//! Surveillance pipeline: the paper's motivating IoT scenario.
//!
//! A low-cost street camera (modelled by [`dcdiff::device`]) JPEG-codes
//! urban scenes, drops DC to save uplink bandwidth, and a cloud receiver
//! reconstructs them with every recovery method. The example prints the
//! sender's modelled throughput on two low-power processors, the
//! bandwidth saved, and the reconstruction quality per method — the
//! end-to-end story of Tables II/IV in one run.
//!
//! Run: `cargo run --release --example surveillance_pipeline`

use dcdiff::baselines::{DcRecovery, Icip2022, SmartCom2019, Tip2006};
use dcdiff::data::{SceneGenerator, SceneKind};
use dcdiff::device::{DeviceProfile, EncoderKind};
use dcdiff::jpeg::{encode_coefficients, ChromaSampling, CoeffImage, DcDropMode};
use dcdiff::metrics::{psnr, ssim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let frames: Vec<_> = (0..4)
        .map(|i| SceneGenerator::new(SceneKind::Urban, 128, 96).generate(900 + i))
        .collect();

    // --- the camera end ---
    println!("--- sender (street camera) ---");
    let mut full_total = 0usize;
    let mut sent_total = 0usize;
    for device in [DeviceProfile::raspberry_pi4(), DeviceProfile::cortex_a53()] {
        let mut jpeg_tp = 0.0;
        let mut dcdiff_tp = 0.0;
        for frame in &frames {
            let coeffs = CoeffImage::from_image(frame, 50, ChromaSampling::Cs444);
            jpeg_tp += device
                .estimate_encode(&coeffs, EncoderKind::StandardJpeg)
                .throughput_gbps;
            dcdiff_tp += device
                .estimate_encode(&coeffs, EncoderKind::DcDrop)
                .throughput_gbps;
        }
        let n = frames.len() as f64;
        println!(
            "{:<16} JPEG {:.2} Gbps | DCDiff sender {:.2} Gbps",
            device.name(),
            jpeg_tp / n,
            dcdiff_tp / n
        );
    }
    for frame in &frames {
        let coeffs = CoeffImage::from_image(frame, 50, ChromaSampling::Cs444);
        full_total += encode_coefficients(&coeffs)?.len();
        sent_total += encode_coefficients(&coeffs.drop_dc(DcDropMode::KeepCorners))?.len();
    }
    println!(
        "uplink bytes: {sent_total} vs {full_total} ({:.1}% saved)",
        100.0 * (1.0 - sent_total as f64 / full_total as f64)
    );

    // --- the cloud end ---
    println!("\n--- receiver (cloud) ---");
    let methods: Vec<Box<dyn DcRecovery>> = vec![
        Box::new(Tip2006::new()),
        Box::new(SmartCom2019::new()),
        Box::new(Icip2022::new()),
    ];
    for method in &methods {
        let mut p = 0.0;
        let mut s = 0.0;
        for frame in &frames {
            let coeffs = CoeffImage::from_image(frame, 50, ChromaSampling::Cs444);
            let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
            let reference = coeffs.to_image();
            let recovered = method.recover(&dropped);
            p += psnr(&reference, &recovered);
            s += ssim(&reference, &recovered);
        }
        let n = frames.len() as f32;
        println!("{:<16} PSNR {:.2} dB | SSIM {:.4}", method.name(), p / n, s / n);
    }
    println!("\n(train a DCDiff system for the learned receiver — see the quickstart example)");
    Ok(())
}

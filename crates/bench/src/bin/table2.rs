//! Table II — compression ratios of DC-dropped JPEG vs. standard JPEG.
//!
//! Two settings, as in the paper:
//! 1. same `Q_50` table: ratio of coded bytes (dropped / standard);
//! 2. "similar LPIPS": lower standard-JPEG quality until its perceptual
//!    score matches the DCDiff reconstruction, then compare coded sizes.
//!
//! Usage: `cargo run --release -p dcdiff-bench --bin table2 [-- --quick]`

use dcdiff_bench::{
    dcdiff_system, evaluation_profiles, quick_mode, render_table, QUALITY,
};
use dcdiff_core::RecoverOptions;
use dcdiff_image::Image;
use dcdiff_jpeg::{scan_length, ChromaSampling, CoeffImage, DcDropMode};
use dcdiff_metrics::PerceptualDistance;

/// Entropy-coded payload length. The paper's images are large enough that
/// the constant JFIF headers (~330 bytes) are negligible; at our reduced
/// resolutions they would dominate the ratio, so the comparison uses the
/// scan payload (the quantity DC dropping actually changes).
fn coded_len(coeffs: &CoeffImage) -> usize {
    scan_length(coeffs).expect("encoder-made levels fit the Annex-K tables")
}

/// Find the standard-JPEG quality whose reconstruction has LPIPS closest
/// to (but not better than) `target_lpips`, and return its coded length.
fn matched_quality_len(
    image: &Image,
    target_lpips: f32,
    perceptual: &PerceptualDistance,
) -> usize {
    let mut best_len = None;
    for q in (5..=QUALITY).rev().step_by(5) {
        let coeffs = CoeffImage::from_image(image, q, ChromaSampling::Cs444);
        let rec = coeffs.to_image();
        let lpips = perceptual.distance(image, &rec);
        best_len = Some(coded_len(&coeffs));
        if lpips >= target_lpips {
            break; // quality low enough to match DCDiff's perceptual level
        }
    }
    best_len.expect("at least one quality evaluated")
}

fn main() {
    let quick = quick_mode();
    let system = dcdiff_system(quick);
    let mut options = RecoverOptions::from_config(system.config());
    if quick {
        options.ddim_steps = 10;
    }
    let perceptual = PerceptualDistance::default();

    let mut same_q_rows = Vec::new();
    let mut matched_rows = Vec::new();
    for profile in evaluation_profiles(quick) {
        let images = profile.generate(0x7E57);
        let mut same_q: Vec<f64> = Vec::new();
        let mut matched: Vec<f64> = Vec::new();
        for image in &images {
            let coeffs = CoeffImage::from_image(image, QUALITY, ChromaSampling::Cs444);
            let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
            let full_len = coded_len(&coeffs) as f64;
            let drop_len = coded_len(&dropped) as f64;
            same_q.push(drop_len / full_len * 100.0);

            // similar-LPIPS comparison
            let recovered = system.recover_with(&dropped, &options);
            let dcdiff_lpips = perceptual.distance(image, &recovered);
            let jpeg_len = matched_quality_len(image, dcdiff_lpips, &perceptual) as f64;
            matched.push(drop_len / jpeg_len * 100.0);
        }
        let stats = |v: &[f64]| -> (f64, f64, f64) {
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let avg = v.iter().sum::<f64>() / v.len() as f64;
            (min, max, avg)
        };
        let (mn, mx, avg) = stats(&same_q);
        same_q_rows.push(vec![
            profile.name().to_string(),
            format!("{mn:.2}%"),
            format!("{mx:.2}%"),
            format!("{avg:.2}%"),
        ]);
        let (mn, mx, avg) = stats(&matched);
        matched_rows.push(vec![
            profile.name().to_string(),
            format!("{mn:.2}%"),
            format!("{mx:.2}%"),
            format!("{avg:.2}%"),
        ]);
    }

    println!(
        "{}",
        render_table(
            "Table II (a) — coded size of DC-dropped JPEG relative to standard JPEG, same Q50",
            &["Dataset", "min", "max", "avg"],
            &same_q_rows,
        )
    );
    println!(
        "{}",
        render_table(
            "Table II (b) — relative size under similar LPIPS (JPEG quality tuned down)",
            &["Dataset", "min", "max", "avg"],
            &matched_rows,
        )
    );
}

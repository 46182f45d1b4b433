//! Design ablation — the masked-Laplacian refinement energy.
//!
//! `DESIGN.md` §2b claims the refinement's edge statistics need all
//! three mechanisms (adaptive trend, activity weighting, masked
//! consensus) to dominate the ICIP-2022 convex relaxation everywhere.
//! This binary toggles each mechanism individually over the five scene
//! classes and prints the PSNR each variant reaches with a neutral
//! prior, alongside the ICIP reference.
//!
//! Every column is one energy through one solver
//! (`dcdiff_baselines::AcField::solve`): ICIP-2022 is the energy with
//! trend and consensus off, λ = 0 and 120 sweeps, written back with a
//! ±160 px clamp, so its gap to the other columns measures what trend,
//! consensus, the prior (λ = 5e-4 here) and the sweep budget (300 here)
//! add.
//!
//! Usage: `cargo run --release -p dcdiff-bench --bin ablation_refine [-- --quick]`

use dcdiff_baselines::{DcRecovery, Icip2022};
use dcdiff_bench::{quick_mode, render_table, QUALITY};
use dcdiff_core::{refine_dc_offsets_with, RefineConfig};
use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_jpeg::{ChromaSampling, CoeffImage, DcDropMode};
use dcdiff_metrics::psnr;

fn main() {
    let quick = quick_mode();
    let per_kind = if quick { 2 } else { 5 };
    let variants: [(&str, RefineConfig); 5] = [
        ("full", RefineConfig::default()),
        (
            "w/o trend",
            RefineConfig {
                trend: false,
                ..RefineConfig::default()
            },
        ),
        (
            "w/o activity",
            RefineConfig {
                activity: false,
                ..RefineConfig::default()
            },
        ),
        (
            "w/o consensus",
            RefineConfig {
                consensus: false,
                ..RefineConfig::default()
            },
        ),
        (
            "none (plain LS)",
            RefineConfig {
                trend: false,
                activity: false,
                consensus: false,
            },
        ),
    ];

    let kinds = [
        ("Smooth", SceneKind::Smooth),
        ("Natural", SceneKind::Natural),
        ("Texture", SceneKind::Texture),
        ("Urban", SceneKind::Urban),
        ("Aerial", SceneKind::Aerial),
    ];

    let mut rows = Vec::new();
    for (kind_name, kind) in kinds {
        let mut scores = vec![0.0f64; variants.len() + 1];
        for seed in 0..per_kind as u64 {
            let image = SceneGenerator::new(kind, 96, 96).generate(seed * 37 + 11);
            let coeffs = CoeffImage::from_image(&image, QUALITY, ChromaSampling::Cs444);
            let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
            let reference = coeffs.to_image();
            for (vi, (_, config)) in variants.iter().enumerate() {
                let refined =
                    refine_dc_offsets_with(&dropped, &dropped, 10.0, 5e-4, 300, *config);
                scores[vi] += psnr(&reference, &refined.to_image()) as f64;
            }
            scores[variants.len()] +=
                psnr(&reference, &Icip2022::new().recover(&dropped)) as f64;
        }
        let mut row = vec![kind_name.to_string()];
        for s in &scores {
            row.push(format!("{:.2}", s / per_kind as f64));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &format!(
                "Refinement-energy ablation (PSNR dB, neutral prior, {per_kind} scenes/class)"
            ),
            &[
                "Content",
                "full",
                "w/o trend",
                "w/o activity",
                "w/o consensus",
                "plain LS",
                "ICIP 2022",
            ],
            &rows,
        )
    );
}

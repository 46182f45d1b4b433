//! Experiment harness for reproducing every table and figure of the
//! DCDiff paper.
//!
//! Each `src/bin/tableN.rs` / `src/bin/figureN.rs` binary regenerates one
//! artifact of the paper's evaluation section; this library holds the
//! shared machinery: the method roster, model training with on-disk
//! checkpoint caching, and plain-text table rendering.
//!
//! Run e.g. `cargo run --release -p dcdiff-bench --bin table1 -- --quick`.
//!
//! # Example
//!
//! The roster machinery is usable directly — here the training-free
//! TIP-2006 ancestor recovers a DC-dropped encode of a synthetic scene:
//!
//! ```
//! use dcdiff_bench::{code_image, Method};
//! use dcdiff_data::{SceneGenerator, SceneKind};
//! use dcdiff_metrics::psnr;
//!
//! let image = SceneGenerator::new(SceneKind::Smooth, 48, 48).generate(1);
//! let (_coeffs, dropped, reference) = code_image(&image);
//! let ancestor = Method::Baseline(Box::new(dcdiff_baselines::Tip2006::new()));
//! let recovered = ancestor.recover(&dropped);
//! assert!(psnr(&reference, &recovered) > psnr(&reference, &dropped.to_image()));
//! ```

use std::path::PathBuf;

use dcdiff_baselines::{DcRecovery, Icip2022, SmartCom2019, Tii2021};
use dcdiff_core::{DcDiff, DcDiffConfig, RecoverOptions, TrainBudget};
use dcdiff_data::DatasetProfile;
use dcdiff_image::Image;
use dcdiff_jpeg::{ChromaSampling, CoeffImage, DcDropMode};
use dcdiff_tensor::serial::Checkpoint;

/// JPEG quality used throughout the paper's experiments (`Q_50`).
pub const QUALITY: u8 = 50;

/// Where cached model checkpoints live (the workspace-root `artifacts/`).
pub fn artifact_dir() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd accessible");
    while !std::fs::read_to_string(dir.join("Cargo.toml"))
        .map(|s| s.contains("[workspace]"))
        .unwrap_or(false)
    {
        if !dir.pop() {
            dir = std::env::current_dir().expect("cwd accessible");
            break;
        }
    }
    let artifacts = dir.join("artifacts");
    std::fs::create_dir_all(&artifacts).ok();
    artifacts
}

/// Whether the process was invoked with `--quick` (reduced counts).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The mixed-content training corpus standing in for the paper's 300 K
/// OpenImages crops (all 96×96, deterministic).
pub fn training_corpus(quick: bool) -> Vec<Image> {
    let per = if quick { 2 } else { 6 };
    let mut images = Vec::new();
    for profile in [
        DatasetProfile::set14().with_dims(96, 96),
        DatasetProfile::kodak().with_dims(96, 96),
        DatasetProfile::urban100().with_dims(96, 96),
        DatasetProfile::inria().with_dims(96, 96),
    ] {
        images.extend(profile.with_count(per).generate(0xBA5E));
    }
    images
}

/// Training budget scaled to the run mode.
pub fn training_budget(quick: bool) -> TrainBudget {
    if quick {
        TrainBudget {
            stage1_steps: 60,
            ldm_steps: 60,
            mld_steps: 20,
            fmpp_steps: 10,
            batch: 2,
        }
    } else {
        TrainBudget {
            stage1_steps: 400,
            ldm_steps: 400,
            mld_steps: 150,
            fmpp_steps: 60,
            batch: 2,
        }
    }
}

/// Train (or load from the artifact cache) the DCDiff system.
pub fn dcdiff_system(quick: bool) -> DcDiff {
    let tag = if quick { "quick" } else { "full" };
    let path = artifact_dir().join(format!("dcdiff-{tag}.ckpt"));
    let mut system = DcDiff::new(DcDiffConfig::default(), 0xDCD1FF);
    let tel = dcdiff_telemetry::global();
    if let Ok(ckpt) = Checkpoint::load(&path) {
        if system.load(&ckpt).is_ok() {
            tel.info(format!(
                "[harness] loaded cached DCDiff checkpoint from {}",
                path.display()
            ));
            return system;
        }
    }
    tel.info(format!("[harness] training DCDiff ({tag} budget)..."));
    let corpus = training_corpus(quick);
    let report = system.train(&corpus, training_budget(quick), 0x5EED);
    tel.info(format!(
        "[harness] stage1 loss {:.4} -> {:.4}, ldm {:.4} -> {:.4}",
        report.stage1_losses.first().copied().unwrap_or(0.0),
        report.stage1_losses.last().copied().unwrap_or(0.0),
        report.ldm_losses.first().copied().unwrap_or(0.0),
        report.ldm_losses.last().copied().unwrap_or(0.0),
    ));
    system.save().save(&path).ok();
    system
}

/// Train (or load from cache) the TII-2021 learned baseline.
pub fn tii_baseline(quick: bool) -> Tii2021 {
    let tag = if quick { "quick" } else { "full" };
    let path = artifact_dir().join(format!("tii2021-{tag}.ckpt"));
    let mut method = Tii2021::new(0x7112021);
    let tel = dcdiff_telemetry::global();
    if let Ok(ckpt) = Checkpoint::load(&path) {
        if method.load(&ckpt).is_ok() {
            tel.info("[harness] loaded cached TII-2021 checkpoint");
            return method;
        }
    }
    tel.info(format!("[harness] training TII-2021 corrector ({tag} budget)..."));
    let corpus = training_corpus(quick);
    method.train(&corpus, QUALITY, if quick { 60 } else { 400 }, 0x7EAC);
    let mut ckpt = Checkpoint::new();
    method.save(&mut ckpt);
    ckpt.save(&path).ok();
    method
}

/// A recovery method under evaluation (the Table I roster).
pub enum Method {
    /// A statistical / learned baseline.
    Baseline(Box<dyn DcRecovery>),
    /// The DCDiff system with explicit options.
    DcDiff(Box<DcDiff>, RecoverOptions),
}

impl Method {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            Method::Baseline(m) => m.name().to_string(),
            Method::DcDiff(..) => "DCDiff".to_string(),
        }
    }

    /// Recover a DC-dropped coefficient image.
    pub fn recover(&self, dropped: &CoeffImage) -> Image {
        match self {
            Method::Baseline(m) => m.recover(dropped),
            Method::DcDiff(system, options) => system.recover_with(dropped, options),
        }
    }
}

/// The paper's Table I roster: three baselines plus DCDiff.
pub fn table1_roster(quick: bool) -> Vec<Method> {
    let system = dcdiff_system(quick);
    let mut options = RecoverOptions::from_config(system.config());
    if quick {
        options.ddim_steps = 10;
    }
    vec![
        Method::Baseline(Box::new(SmartCom2019::new())),
        Method::Baseline(Box::new(tii_baseline(quick))),
        Method::Baseline(Box::new(Icip2022::new())),
        Method::DcDiff(Box::new(system), options),
    ]
}

/// Code an image at the paper's settings and return
/// `(coeffs, dropped, jpeg_reference)`.
pub fn code_image(image: &Image) -> (CoeffImage, CoeffImage, Image) {
    let coeffs = CoeffImage::from_image(image, QUALITY, ChromaSampling::Cs444);
    let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
    let reference = coeffs.to_image();
    (coeffs, dropped, reference)
}

/// Render a plain-text table with a header row.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_owned: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_owned));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// The six evaluation profiles at experiment scale.
pub fn evaluation_profiles(quick: bool) -> Vec<DatasetProfile> {
    let profiles = dcdiff_data::all_profiles();
    if quick {
        profiles.into_iter().map(|p| p.with_count(2)).collect()
    } else {
        profiles.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_16_aligned_and_nonempty() {
        let corpus = training_corpus(true);
        assert!(!corpus.is_empty());
        for img in &corpus {
            assert_eq!(img.width() % 16, 0);
            assert_eq!(img.height() % 16, 0);
        }
    }

    #[test]
    fn render_table_aligns_columns() {
        let table = render_table(
            "demo",
            &["a", "longer"],
            &[
                vec!["x".into(), "y".into()],
                vec!["wide cell".into(), "z".into()],
            ],
        );
        assert!(table.contains("demo"));
        assert!(table.contains("wide cell"));
    }

    #[test]
    fn code_image_produces_consistent_triple() {
        let img = dcdiff_data::SceneGenerator::new(dcdiff_data::SceneKind::Smooth, 32, 32)
            .generate(0);
        let (coeffs, dropped, reference) = code_image(&img);
        assert_eq!(coeffs.plane(0).blocks_x(), dropped.plane(0).blocks_x());
        assert_eq!(reference.dims(), (32, 32));
        assert_eq!(dropped.plane(0).dc(1, 1), 0);
    }

    #[test]
    fn quick_profiles_are_small() {
        for p in evaluation_profiles(true) {
            assert_eq!(p.count(), 2);
        }
    }
}

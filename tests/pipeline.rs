//! Cross-crate integration tests: the full sender → channel → receiver
//! pipeline, exercised through the umbrella crate's public API.

use dcdiff::baselines::{DcRecovery, Icip2022, SmartCom2019, Tip2006};
use dcdiff::core::{DcDiff, DcDiffConfig, RecoverOptions, TrainBudget};
use dcdiff::data::{DatasetProfile, SceneGenerator, SceneKind};
use dcdiff::jpeg::{
    encode_coefficients, ChromaSampling, CoeffImage, DcDropMode, JpegDecoder, JpegEncoder,
};
use dcdiff::metrics::{psnr, ssim, PerceptualDistance};

/// The sender's byte stream survives a real entropy-coded round trip and
/// the receiver recovers the exact coefficients the sender produced.
#[test]
fn bitstream_round_trip_end_to_end() {
    let image = SceneGenerator::new(SceneKind::Natural, 96, 96).generate(1);
    let encoder = JpegEncoder::new(50);
    let coeffs = encoder.to_coefficients(&image);
    let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
    let bytes = encode_coefficients(&dropped).expect("encodable");
    let received = JpegDecoder::decode_coefficients(&bytes).expect("decodable");
    for c in 0..3 {
        assert_eq!(received.plane(c), dropped.plane(c), "component {c}");
    }
}

/// Recovery methods improve on the unrecovered reconstruction where the
/// Laplacian prior holds (smooth/natural content); on hard-edged urban
/// content the *sequential* methods may lose to no-recovery — the error
/// propagation the paper targets — but the global ICIP-2022 solve must
/// still win.
#[test]
fn all_methods_beat_no_recovery_on_all_scene_kinds() {
    let methods: Vec<Box<dyn DcRecovery>> = vec![
        Box::new(Tip2006::new()),
        Box::new(SmartCom2019::new()),
        Box::new(Icip2022::new()),
    ];
    for kind in [SceneKind::Smooth, SceneKind::Natural] {
        let image = SceneGenerator::new(kind, 64, 64).generate(11);
        let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
        let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
        let reference = coeffs.to_image();
        let baseline = psnr(&reference, &dropped.to_image());
        for method in &methods {
            let p = psnr(&reference, &method.recover(&dropped));
            assert!(
                p > baseline,
                "{} on {kind:?}: {p} dB vs no-recovery {baseline} dB",
                method.name()
            );
        }
    }
    // urban: the global method must still beat no-recovery
    let image = SceneGenerator::new(SceneKind::Urban, 64, 64).generate(11);
    let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
    let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
    let reference = coeffs.to_image();
    let baseline = psnr(&reference, &dropped.to_image());
    let p = psnr(&reference, &Icip2022::new().recover(&dropped));
    assert!(p > baseline, "ICIP on Urban: {p} vs {baseline}");
}

/// Dropping DC always shrinks the coded stream — the bandwidth claim
/// behind the whole pipeline (Table II).
#[test]
fn dc_drop_always_saves_bytes() {
    for profile in dcdiff::data::all_profiles() {
        let image = &profile.with_count(1).generate(3)[0];
        let coeffs = CoeffImage::from_image(image, 50, ChromaSampling::Cs444);
        let full = encode_coefficients(&coeffs).expect("encodable").len();
        let dropped = encode_coefficients(&coeffs.drop_dc(DcDropMode::KeepCorners))
            .expect("encodable")
            .len();
        assert!(
            dropped < full,
            "{}: dropped {dropped} >= full {full}",
            profile.name()
        );
    }
}

/// The trained DCDiff system outperforms the strongest statistical
/// baseline on smooth content and is competitive elsewhere — a scaled
/// version of the Table I headline.
#[test]
fn dcdiff_recovers_better_than_baselines_on_smooth_content() {
    let config = DcDiffConfig {
        stage1_base: 8,
        latent_channels: 4,
        unet_base: 8,
        diffusion_steps: 50,
        ddim_steps: 5,
        ..DcDiffConfig::default()
    };
    let mut system = DcDiff::new(config, 3);
    let corpus = DatasetProfile::set5().with_dims(48, 48).generate(500);
    system.train(
        &corpus,
        TrainBudget {
            stage1_steps: 50,
            ldm_steps: 40,
            mld_steps: 15,
            fmpp_steps: 5,
            batch: 2,
        },
        4,
    );
    let mut options = RecoverOptions::from_config(system.config());
    options.ddim_steps = 5;

    let mut dcdiff_total = 0.0f32;
    let mut icip_total = 0.0f32;
    for seed in 0..3u64 {
        let image = SceneGenerator::new(SceneKind::Smooth, 48, 48).generate(7_000 + seed);
        let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
        let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
        let reference = coeffs.to_image();
        dcdiff_total += psnr(&reference, &system.recover_with(&dropped, &options));
        icip_total += psnr(&reference, &Icip2022::new().recover(&dropped));
    }
    assert!(
        dcdiff_total > icip_total - 1.5,
        "dcdiff {dcdiff_total} must be competitive with icip {icip_total}"
    );
}

/// Recovered images keep structural similarity high even when pixel
/// values drift (the SSIM column of Table I).
#[test]
fn recovery_preserves_structure() {
    let image = SceneGenerator::new(SceneKind::Aerial, 64, 64).generate(21);
    let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
    let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
    let reference = coeffs.to_image();
    let recovered = Icip2022::new().recover(&dropped);
    assert!(ssim(&reference, &recovered) > 0.8);
}

/// The perceptual metric ranks an over-smoothed reconstruction worse than
/// a detail-preserving one (the LPIPS story of Table I).
#[test]
fn perceptual_metric_prefers_detail_preservation() {
    let image = SceneGenerator::new(SceneKind::Texture, 64, 64).generate(30);
    let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
    let reference = coeffs.to_image();
    let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
    // detail-preserving: statistical recovery keeps AC exactly
    let preserved = Icip2022::new().recover(&dropped);
    // over-smoothing: box blur of the recovered image
    let blurred = {
        let planes: Vec<_> = preserved
            .planes()
            .iter()
            .map(|p| {
                dcdiff::image::Plane::from_fn(p.width(), p.height(), |x, y| {
                    let mut acc = 0.0;
                    for dy in -1isize..=1 {
                        for dx in -1isize..=1 {
                            acc += p.get_clamped(x as isize + dx, y as isize + dy);
                        }
                    }
                    acc / 9.0
                })
            })
            .collect();
        dcdiff::image::Image::from_planes(planes, preserved.color_space()).expect("same dims")
    };
    let metric = PerceptualDistance::default();
    assert!(
        metric.distance(&reference, &blurred) > metric.distance(&reference, &preserved),
        "smoothing must cost perceptual quality"
    );
}

/// Checkpointing a whole DCDiff system preserves its behaviour across a
/// fresh process (save → load → identical recovery).
#[test]
fn full_system_checkpoint_round_trip() {
    let config = DcDiffConfig {
        stage1_base: 8,
        latent_channels: 4,
        unet_base: 8,
        diffusion_steps: 20,
        ddim_steps: 4,
        ..DcDiffConfig::default()
    };
    let mut a = DcDiff::new(config.clone(), 8);
    let corpus = DatasetProfile::set5().with_dims(32, 32).generate(2);
    a.train(
        &corpus,
        TrainBudget {
            stage1_steps: 4,
            ldm_steps: 4,
            mld_steps: 2,
            fmpp_steps: 1,
            batch: 1,
        },
        5,
    );
    let ckpt = a.save();
    let mut b = DcDiff::new(config, 12345);
    b.load(&ckpt).expect("compatible checkpoint");
    let image = SceneGenerator::new(SceneKind::Smooth, 32, 32).generate(2);
    let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
    let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
    let mut options = RecoverOptions::from_config(a.config());
    options.ddim_steps = 3;
    assert!(
        a.recover_with(&dropped, &options)
            .mean_abs_diff(&b.recover_with(&dropped, &options))
            < 1e-3
    );
}

//! Masked-Laplacian refinement of a generated DC map.
//!
//! The paper imposes the masked Laplacian distribution constraint through
//! the `L_m` training loss of a large pretrained diffusion model. Our
//! from-scratch model is far smaller, so the same constraint is also
//! enforced explicitly at inference (see `DESIGN.md`): the per-block DC
//! offsets minimise
//!
//! `E(o) = Σ_edges Σ_pairs m · ((ac_a + o_a) − (ac_b + o_b))²
//!        + λ Σ_b (o_b − o_gen_b)²`
//!
//! where `m ∈ {0, 1}` is the Eq. 3 hard mask on both boundary pixels
//! (pairs in high-frequency regions contribute nothing — this is what
//! kills error propagation), `o_gen` is the diffusion model's estimate
//! acting as a prior, and the four corner anchors are hard constraints.
//! The energy and its Gauss–Seidel solver are
//! [`dcdiff_baselines::AcField::solve`], which ICIP-2022 calls too (with
//! trend and consensus off and no prior).

use dcdiff_baselines::{AcField, RefineConfig};
use dcdiff_jpeg::CoeffImage;

/// Refine the DC levels of `generated` (a [`crate::project_dc`] result)
/// against the masked Laplacian energy.
///
/// * `dropped` — the received coefficients (anchors + exact AC);
/// * `generated` — coefficients whose DC levels hold the diffusion
///   estimate;
/// * `threshold` — the Eq. 3 mask threshold `T`;
/// * `prior_weight` — λ tying the solution to the generated estimate;
/// * `sweeps` — Gauss–Seidel iterations.
///
/// # Panics
///
/// Panics if the two coefficient images have different geometry or
/// `sweeps` is zero.
pub fn refine_dc_offsets(
    dropped: &CoeffImage,
    generated: &CoeffImage,
    threshold: f32,
    prior_weight: f32,
    sweeps: usize,
) -> CoeffImage {
    refine_dc_offsets_with(
        dropped,
        generated,
        threshold,
        prior_weight,
        sweeps,
        RefineConfig::default(),
    )
}

/// [`refine_dc_offsets`] with individual energy mechanisms toggled (used
/// by the refinement design ablation).
///
/// # Panics
///
/// As for [`refine_dc_offsets`].
pub fn refine_dc_offsets_with(
    dropped: &CoeffImage,
    generated: &CoeffImage,
    threshold: f32,
    prior_weight: f32,
    sweeps: usize,
    config: RefineConfig,
) -> CoeffImage {
    generated.with_dc_levels(&refine_dc_levels(
        dropped,
        generated,
        threshold,
        prior_weight,
        sweeps,
        config,
    ))
}

/// The DC levels [`refine_dc_offsets_with`] writes, one per block of every
/// component (row-major): the anchors keep their generated levels, and
/// every other block takes its refined offset, unclamped. This is what
/// the receiver decodes, so the served paths take the levels and leave
/// the coefficient copy out.
///
/// # Panics
///
/// As for [`refine_dc_offsets`].
pub fn refine_dc_levels(
    dropped: &CoeffImage,
    generated: &CoeffImage,
    threshold: f32,
    prior_weight: f32,
    sweeps: usize,
    config: RefineConfig,
) -> Vec<Vec<i32>> {
    assert_eq!(dropped.channels(), generated.channels(), "channel mismatch");
    (0..dropped.channels())
        .map(|c| {
            let field = AcField::new(dropped.plane(c), dropped.qtable(c));
            let gen_plane = generated.plane(c);
            let bw = field.blocks_x;
            assert_eq!(
                (bw, field.blocks_y),
                (gen_plane.blocks_x(), gen_plane.blocks_y()),
                "block grid mismatch"
            );
            let generated = |i: usize| gen_plane.dc(i % bw, i / bw);
            // prior (generated) offsets, clamped to the representable pixel
            // range so a degenerate generator cannot poison the solve
            let prior: Vec<f32> = (0..field.anchors.len())
                .map(|i| (generated(i) as f32 * field.dc_step).clamp(-140.0, 140.0))
                .collect();
            let offsets = field.solve(&prior, prior_weight, threshold, config, sweeps);
            (0..field.anchors.len())
                .map(|i| match field.anchors[i] {
                    Some(_) => generated(i),
                    None => (offsets[i] / field.dc_step).round() as i32,
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project_dc;
    use dcdiff_data::{SceneGenerator, SceneKind};
    use dcdiff_image::{ColorSpace, Image};
    use dcdiff_jpeg::{ChromaSampling, DcDropMode};
    use dcdiff_metrics::psnr;

    fn setup(kind: SceneKind, seed: u64) -> (CoeffImage, CoeffImage, Image) {
        let img = SceneGenerator::new(kind, 64, 64).generate(seed);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
        let reference = coeffs.to_image();
        (coeffs, dropped, reference)
    }

    // What the runtime's MLD engine decodes (the levels) is what
    // `refine_dc_offsets` writes, and decodes to its pixels bit for bit.
    #[test]
    fn refined_levels_decode_to_the_refined_coefficients() {
        let bits = |image: &Image| -> Vec<u32> {
            image.planes().iter().flat_map(|p| p.as_slice().iter().map(|v| v.to_bits())).collect()
        };
        let (_, dropped, _) = setup(SceneKind::Natural, 3);
        let refined = refine_dc_offsets(&dropped, &dropped, 10.0, 5e-4, 60);
        let levels = refine_dc_levels(&dropped, &dropped, 10.0, 5e-4, 60, RefineConfig::default());
        assert_eq!(refined.dc_levels(), levels);
        assert_eq!(bits(&refined.to_image()), bits(&dropped.to_image_with_dc(&levels)));
    }

    #[test]
    fn refinement_improves_a_gray_prior() {
        // prior: all DC zero (mid-gray) — refinement alone must pull the
        // offsets towards consistency with the anchors
        let (_, dropped, reference) = setup(SceneKind::Smooth, 3);
        let before = psnr(&reference, &dropped.to_image());
        let refined = refine_dc_offsets(&dropped, &dropped, 10.0, 0.005, 300);
        let after = psnr(&reference, &refined.to_image());
        assert!(after > before + 5.0, "{after} vs {before}");
    }

    #[test]
    fn better_prior_gives_better_result() {
        // refinement must be monotone in prior quality: an oracle prior
        // can only help relative to a gray (all-zero) prior
        let (coeffs, dropped, reference) = setup(SceneKind::Natural, 4);
        let oracle = project_dc(&dropped, &reference);
        let _ = &coeffs;
        let with_oracle = refine_dc_offsets(&dropped, &oracle, 10.0, 0.25, 150);
        let with_gray = refine_dc_offsets(&dropped, &dropped, 10.0, 0.25, 150);
        let p_oracle = psnr(&reference, &with_oracle.to_image());
        let p_gray = psnr(&reference, &with_gray.to_image());
        assert!(
            p_oracle >= p_gray - 0.2,
            "oracle prior {p_oracle} dB must not lose to gray prior {p_gray} dB"
        );
        // and a strong prior weight preserves the oracle almost exactly
        let tight = refine_dc_offsets(&dropped, &oracle, 10.0, 50.0, 150);
        let p_tight = psnr(&reference, &tight.to_image());
        assert!(p_tight > 34.0, "high-trust oracle degraded to {p_tight} dB");
    }

    #[test]
    fn anchors_are_hard_constraints() {
        let (coeffs, dropped, _) = setup(SceneKind::Urban, 5);
        let refined = refine_dc_offsets(&dropped, &dropped, 10.0, 0.05, 50);
        let p = refined.plane(0);
        let o = coeffs.plane(0);
        let (mx, my) = (p.blocks_x() - 1, p.blocks_y() - 1);
        for (bx, by) in [(0, 0), (mx, 0), (0, my), (mx, my)] {
            if o.dc(bx, by) != 0 {
                assert_eq!(p.dc(bx, by), o.dc(bx, by));
            }
        }
    }

    #[test]
    fn tight_threshold_disables_edges() {
        // with T = 0 almost no pairs are active, so the result stays at
        // the prior (plus anchors)
        let (_, dropped, _) = setup(SceneKind::Texture, 6);
        let refined = refine_dc_offsets(&dropped, &dropped, 0.0, 1.0, 50);
        let p = refined.plane(0);
        let mut unchanged = 0;
        let mut total = 0;
        for by in 0..p.blocks_y() {
            for bx in 0..p.blocks_x() {
                total += 1;
                if p.dc(bx, by) == dropped.plane(0).dc(bx, by) {
                    unchanged += 1;
                }
            }
        }
        assert!(
            unchanged * 10 >= total * 7,
            "T=0 should mostly freeze the prior: {unchanged}/{total}"
        );
    }

    #[test]
    fn refinement_beats_soft_weights_on_hard_edges() {
        // urban scenes: hard masking should outperform no masking
        let (_, dropped, reference) = setup(SceneKind::Urban, 7);
        let masked = refine_dc_offsets(&dropped, &dropped, 10.0, 0.02, 200);
        let unmasked = refine_dc_offsets(&dropped, &dropped, f32::INFINITY, 0.02, 200);
        let pm = psnr(&reference, &masked.to_image());
        let pu = psnr(&reference, &unmasked.to_image());
        assert!(
            pm > pu - 0.8,
            "masked {pm} should not lose badly to unmasked {pu}"
        );
        let _ = ColorSpace::Rgb;
    }
}

//! Zhang et al., *Improved DC estimation for JPEG compression via convex
//! relaxation* (ICIP 2022).

use dcdiff_jpeg::CoeffImage;

use crate::common::{estimate_levels, AcField, RefineConfig, DEFAULT_THRESHOLD};
use crate::DcRecovery;

/// ICIP-2022 recovery: a *global* convex quadratic over all per-block DC
/// offsets rather than a sequential scan. The energy sums weighted
/// squared boundary-pixel mismatches over every adjacent block pair, with
/// direction-selective weights that downweight pixel pairs in
/// high-activity (Laplacian-violating) regions; corner anchors are hard
/// constraints. The normal equations are solved by Gauss–Seidel sweeps.
///
/// This is the boundary energy of [`crate::AcField::solve`] with trend
/// and consensus off and no prior (λ = 0). What sets it apart from
/// DCDiff's refinement is that it writes the offsets back as DC levels
/// clamped to ±160 px.
#[derive(Debug, Clone, Copy)]
pub struct Icip2022 {
    sweeps: usize,
}

/// ICIP-2022's pair weights: activity weighting only.
const ENERGY: RefineConfig = RefineConfig {
    trend: false,
    activity: true,
    consensus: false,
};

impl Default for Icip2022 {
    fn default() -> Self {
        Self::new()
    }
}

impl Icip2022 {
    /// Create the method with the default sweep budget (120).
    pub fn new() -> Self {
        Self { sweeps: 120 }
    }

    /// Create with an explicit Gauss–Seidel sweep budget.
    ///
    /// # Panics
    ///
    /// Panics if `sweeps` is zero.
    pub fn with_sweeps(sweeps: usize) -> Self {
        assert!(sweeps > 0, "at least one sweep required");
        Self { sweeps }
    }

    /// Sweep budget.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// The convex relaxation's per-block offsets: the boundary energy
    /// solved from zero with no prior.
    fn offsets(&self, field: &AcField) -> Vec<f32> {
        let zero = vec![0.0; field.blocks()];
        field.solve(&zero, 0.0, DEFAULT_THRESHOLD, ENERGY, self.sweeps)
    }
}

impl DcRecovery for Icip2022 {
    fn name(&self) -> &'static str {
        "ICIP 2022"
    }

    fn estimate_dc(&self, dropped: &CoeffImage) -> Vec<Vec<i32>> {
        estimate_levels(dropped, |field| self.offsets(field))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AcField, SmartCom2019};
    use dcdiff_data::{DatasetProfile, SceneGenerator, SceneKind};
    use dcdiff_jpeg::{ChromaSampling, DcDropMode};
    use dcdiff_metrics::psnr;

    #[test]
    fn beats_no_recovery() {
        let img = SceneGenerator::new(SceneKind::Natural, 64, 64).generate(4);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
        let reference = coeffs.to_image();
        let rec = psnr(&reference, &Icip2022::new().recover(&dropped));
        let none = psnr(&reference, &dropped.to_image());
        assert!(rec > none + 5.0, "{rec} vs {none}");
    }

    #[test]
    fn global_solve_beats_sequential_scan_on_average() {
        // the paper's claim: convex relaxation reduces error propagation
        // relative to block-iterative methods. Check over a small mixed set.
        let mut icip_total = 0.0;
        let mut smart_total = 0.0;
        for (i, img) in DatasetProfile::kodak()
            .with_count(4)
            .with_dims(64, 64)
            .generate(7)
            .iter()
            .enumerate()
        {
            let coeffs = CoeffImage::from_image(img, 50, ChromaSampling::Cs444);
            let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
            let reference = coeffs.to_image();
            let icip = psnr(&reference, &Icip2022::new().recover(&dropped));
            let smart = psnr(&reference, &SmartCom2019::new().recover(&dropped));
            icip_total += icip;
            smart_total += smart;
            let _ = i;
        }
        assert!(
            icip_total > smart_total,
            "icip {icip_total} must beat smartcom {smart_total} in aggregate"
        );
    }

    #[test]
    fn more_sweeps_do_not_hurt() {
        let img = SceneGenerator::new(SceneKind::Urban, 64, 64).generate(6);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
        let reference = coeffs.to_image();
        let few = psnr(&reference, &Icip2022::with_sweeps(5).recover(&dropped));
        let many = psnr(&reference, &Icip2022::with_sweeps(200).recover(&dropped));
        assert!(many >= few - 0.5, "many-sweep {many} vs few-sweep {few}");
    }

    #[test]
    fn write_back_clamps_offsets_past_160_px() {
        // On this Urban scene the solve drives luma blocks past +160 px;
        // ICIP writes the ±160 px level there, not the solve's own, and
        // that clamp is all that separates it from the refinement.
        let img = SceneGenerator::new(SceneKind::Urban, 256, 256).generate(10);
        let coeffs = CoeffImage::from_image(&img, 95, ChromaSampling::Cs422);
        let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
        let field = AcField::new(dropped.plane(0), dropped.qtable(0));
        let zero = vec![0.0; field.blocks()];
        let offsets = field.solve(&zero, 0.0, DEFAULT_THRESHOLD, ENERGY, 120);
        let rec = Icip2022::new().recover_coefficients(&dropped);
        let cap = (160.0 / field.dc_step).round() as i32;
        let mut clamped = 0;
        for by in 0..field.blocks_y {
            for bx in 0..field.blocks_x {
                let offset = offsets[field.idx(bx, by)];
                if offset.abs() > 160.0 {
                    clamped += 1;
                    let unclamped = (offset / field.dc_step).round() as i32;
                    assert!(unclamped.abs() > cap, "block ({bx}, {by}): {unclamped}");
                    assert_eq!(rec.plane(0).dc(bx, by), cap * offset.signum() as i32);
                }
            }
        }
        assert!(clamped > 0, "no block passed 160 px");
    }

    #[test]
    fn anchors_stay_fixed() {
        let img = SceneGenerator::new(SceneKind::Smooth, 48, 48).generate(8);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
        let rec = Icip2022::new().recover_coefficients(&dropped);
        let p = rec.plane(0);
        let o = coeffs.plane(0);
        let (mx, my) = (p.blocks_x() - 1, p.blocks_y() - 1);
        for (bx, by) in [(0, 0), (mx, 0), (0, my), (mx, my)] {
            assert_eq!(p.dc(bx, by), o.dc(bx, by));
        }
    }
}

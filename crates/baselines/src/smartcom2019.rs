//! Qiu et al., *DC coefficients recovery from AC coefficients in the JPEG
//! compression scenario* (SmartCom 2019) — trend-based recovery.

use dcdiff_jpeg::{CoeffImage, BLOCK};

use crate::common::{estimate_levels, AcField};
use crate::DcRecovery;

/// SmartCom-2019 recovery: instead of matching raw boundary pixels, the
/// method extrapolates the *distribution trend* of the last two
/// columns/rows of the known block (`p̂ = 2·c₇ − c₆`) and matches the
/// unknown block's first column/row against it, averaging the per-pixel
/// estimates (mean estimator) over all available directions.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmartCom2019;

impl SmartCom2019 {
    /// Create the method.
    pub fn new() -> Self {
        Self
    }

    fn recover_plane(&self, field: &AcField) -> Vec<f32> {
        let (bw, bh) = (field.blocks_x, field.blocks_y);
        let mut offsets = vec![0.0f32; bw * bh];
        let mut known = vec![false; bw * bh];
        for (i, anchor) in field.anchors.iter().enumerate() {
            if let Some(o) = anchor {
                offsets[i] = *o;
                known[i] = true;
            }
        }
        for by in 0..bh {
            for bx in 0..bw {
                let b = field.idx(bx, by);
                if known[b] {
                    continue;
                }
                let mut sum = 0.0f32;
                let mut count = 0usize;
                if bx > 0 && known[field.idx(bx - 1, by)] {
                    let n = field.idx(bx - 1, by);
                    let c7 = field.column(n, BLOCK - 1);
                    let c6 = field.column(n, BLOCK - 2);
                    let s0 = field.column(b, 0);
                    for y in 0..BLOCK {
                        // trend-extrapolated prediction of the boundary pixel
                        let predicted = 2.0 * c7[y] - c6[y] + offsets[n];
                        sum += predicted - s0[y];
                        count += 1;
                    }
                }
                if by > 0 && known[field.idx(bx, by - 1)] {
                    let n = field.idx(bx, by - 1);
                    let r7 = field.row(n, BLOCK - 1);
                    let r6 = field.row(n, BLOCK - 2);
                    let s0 = field.row(b, 0);
                    for x in 0..BLOCK {
                        let predicted = 2.0 * r7[x] - r6[x] + offsets[n];
                        sum += predicted - s0[x];
                        count += 1;
                    }
                }
                offsets[b] = if count == 0 { 0.0 } else { sum / count as f32 };
                known[b] = true;
            }
        }
        offsets
    }
}

impl DcRecovery for SmartCom2019 {
    fn name(&self) -> &'static str {
        "SmartCom 2019"
    }

    fn estimate_dc(&self, dropped: &CoeffImage) -> Vec<Vec<i32>> {
        estimate_levels(dropped, |field| self.recover_plane(field))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_data::{SceneGenerator, SceneKind};
    use dcdiff_jpeg::{ChromaSampling, DcDropMode};
    use dcdiff_metrics::psnr;

    fn recover_psnr(kind: SceneKind, seed: u64) -> (f32, f32) {
        let img = SceneGenerator::new(kind, 64, 64).generate(seed);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
        let reference = coeffs.to_image();
        (
            psnr(&reference, &SmartCom2019::new().recover(&dropped)),
            psnr(&reference, &dropped.to_image()),
        )
    }

    #[test]
    fn beats_no_recovery_on_smooth_content() {
        let (rec, none) = recover_psnr(SceneKind::Smooth, 2);
        assert!(rec > none + 5.0, "recovered {rec} vs none {none}");
    }

    #[test]
    fn gradient_trend_is_extrapolated_closely() {
        use dcdiff_image::{Image, Plane};
        // a clean ramp: trend prediction should recover every block's DC
        // offset to within ~2 pixels despite quantisation drift
        let img = Image::from_gray(Plane::from_fn(48, 16, |x, _| 40.0 + (x as f32) * 3.0));
        let coeffs = CoeffImage::from_image(&img, 90, ChromaSampling::Cs444);
        let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
        let rec = SmartCom2019::new().recover_coefficients(&dropped);
        let step = dropped.qtable(0).values()[0] as f32 / 8.0;
        for bx in 0..rec.plane(0).blocks_x() {
            let got = rec.plane(0).dc(bx, 0) as f32 * step;
            let want = coeffs.plane(0).dc(bx, 0) as f32 * step;
            // sequential recovery accumulates drift linearly with the
            // distance from the anchor (the error-propagation effect the
            // paper targets); assert the drift *rate* stays bounded
            let budget = 1.5 + 1.2 * bx as f32;
            assert!(
                (got - want).abs() <= budget,
                "block {bx}: offset {got} px, want {want} px (budget {budget})"
            );
        }
    }

    #[test]
    fn handles_missing_corner_anchor_gracefully() {
        // DcDropMode::All removes even the anchors; recovery still runs
        // and is anchored at zero offset.
        let img = SceneGenerator::new(SceneKind::Smooth, 48, 48).generate(5);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.drop_dc(DcDropMode::All);
        let rec = SmartCom2019::new().recover(&dropped);
        assert_eq!(rec.dims(), (48, 48));
    }
}

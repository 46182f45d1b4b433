//! Uehara et al., *Recovering DC coefficients in block-based DCT*
//! (IEEE TIP 2006) — the original block-iterative recovery.

use dcdiff_jpeg::{CoeffImage, BLOCK};

use crate::common::{estimate_levels, median, AcField};
use crate::DcRecovery;

/// TIP-2006 recovery: raster-scan the block grid from the top-left anchor
/// and set each unknown block's DC so the absolute pixel differences
/// across shared edges with already-recovered neighbours are minimised
/// (the L1-optimal offset is the median of per-pixel difference votes).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tip2006;

impl Tip2006 {
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
        // raster scan; (0,0) is an anchor so every block has at least one
        // known neighbour when visited
        for by in 0..bh {
            for bx in 0..bw {
                let b = field.idx(bx, by);
                if known[b] {
                    continue;
                }
                // at most one vote per pixel of the left and top edges,
                // plus the diagonal's one
                let mut votes = [0.0f32; 2 * BLOCK + 1];
                let mut cast = 0;
                if bx > 0 && known[field.idx(bx - 1, by)] {
                    let n = field.idx(bx - 1, by);
                    let n_edge = field.column(n, BLOCK - 1);
                    let s_edge = field.column(b, 0);
                    for y in 0..BLOCK {
                        votes[cast + y] = n_edge[y] + offsets[n] - s_edge[y];
                    }
                    cast += BLOCK;
                }
                if by > 0 && known[field.idx(bx, by - 1)] {
                    let n = field.idx(bx, by - 1);
                    let n_edge = field.row(n, BLOCK - 1);
                    let s_edge = field.row(b, 0);
                    for x in 0..BLOCK {
                        votes[cast + x] = n_edge[x] + offsets[n] - s_edge[x];
                    }
                    cast += BLOCK;
                }
                // third direction of [22]: the top-right diagonal
                if by > 0 && bx + 1 < bw && known[field.idx(bx + 1, by - 1)] {
                    let n = field.idx(bx + 1, by - 1);
                    // corner pixel pair across the diagonal
                    let n_pix = field.block(n)[(BLOCK - 1) * BLOCK]; // bottom-left
                    let s_pix = field.block(b)[BLOCK - 1]; // top-right
                    votes[cast] = n_pix + offsets[n] - s_pix;
                    cast += 1;
                }
                offsets[b] = if cast == 0 {
                    0.0
                } else {
                    median(&mut votes[..cast])
                };
                known[b] = true;
            }
        }
        offsets
    }
}

impl DcRecovery for Tip2006 {
    fn name(&self) -> &'static str {
        "TIP 2006"
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

    #[test]
    fn recovers_smooth_images_well() {
        let img = SceneGenerator::new(SceneKind::Smooth, 64, 64).generate(1);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let reference = coeffs.to_image(); // JPEG itself is lossy; compare to it
        let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
        let recovered = Tip2006::new().recover(&dropped);
        let without = dropped.to_image();
        let p_rec = psnr(&reference, &recovered);
        let p_drop = psnr(&reference, &without);
        assert!(
            p_rec > p_drop + 5.0,
            "recovery {p_rec} dB must beat no-recovery {p_drop} dB"
        );
        assert!(p_rec > 20.0, "smooth recovery should exceed 20 dB, got {p_rec}");
    }

    #[test]
    fn exact_on_constant_image() {
        use dcdiff_image::{Image, Plane};
        let img = Image::from_gray(Plane::filled(32, 32, 180.0));
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
        let rec = Tip2006::new().recover_coefficients(&dropped);
        for by in 0..rec.plane(0).blocks_y() {
            for bx in 0..rec.plane(0).blocks_x() {
                assert_eq!(rec.plane(0).dc(bx, by), coeffs.plane(0).dc(bx, by));
            }
        }
    }

    #[test]
    fn improves_textured_content_too() {
        use dcdiff_image::Image;
        let texture = SceneGenerator::new(SceneKind::Texture, 64, 64).generate(3);
        let run = |img: &Image| -> (f32, f32) {
            let coeffs = CoeffImage::from_image(img, 50, ChromaSampling::Cs444);
            let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
            let reference = coeffs.to_image();
            (
                psnr(&reference, &Tip2006::new().recover(&dropped)),
                psnr(&reference, &dropped.to_image()),
            )
        };
        let (rec, none) = run(&texture);
        assert!(rec > none, "texture recovery {rec} must beat no-recovery {none}");
    }
}

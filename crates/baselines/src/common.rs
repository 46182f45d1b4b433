//! The level-shifted pixel field every statistical recovery method
//! reasons over, and the one boundary energy that ICIP-2022 and DCDiff's
//! refinement both minimise.
//!
//! Every method reasons in the *level-shifted pixel domain*: a block's
//! pixels are `ac + offset`, where `ac` is the IDCT of the block with DC
//! forced to zero (mean-free) and `offset` is the uniform contribution of
//! the DC level, `offset = dc_level * q0 / 8`. [`AcField`] holds `ac` for
//! every block. A block without AC levels has `ac = 0` in all 64 pixels,
//! so the field transforms and stores only the blocks that carry AC, and
//! the rest share one zero block.
//!
//! [`AcField::solve`] minimises, over the per-block offsets `o`,
//!
//! `E(o) = Σ_edges Σ_pairs w · ((ac_a + o_a) − (ac_b + o_b) + trend)²
//!        + λ Σ_b (o_b − prior_b)²`
//!
//! with the four corner anchors held fixed. The pair weights `w` and the
//! trend come from [`RefineConfig`]'s three mechanisms. ICIP-2022 is this
//! energy with trend and consensus off, λ = 0 and 120 sweeps; DCDiff's
//! refinement turns all three on and ties the solve to the diffusion
//! estimate.

use dcdiff_jpeg::dct::idct;
use dcdiff_jpeg::quant::QuantTable;
use dcdiff_jpeg::{CoeffImage, CoeffPlane, BLOCK, BLOCK_AREA};

/// Default mask threshold — the paper's ablation (Table III) selects
/// `T = 10`.
pub const DEFAULT_THRESHOLD: f32 = 10.0;

/// Which mechanisms of the boundary energy are active (see
/// [`AcField::solve`]). The defaults enable everything; the
/// `ablation_refine` experiment binary toggles them individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineConfig {
    /// Slope-agreement-damped trend extrapolation across boundaries.
    pub trend: bool,
    /// Soft down-weighting of high-activity pixel pairs.
    pub activity: bool,
    /// Robust masking of pairs far from the edge's median residual.
    pub consensus: bool,
}

impl Default for RefineConfig {
    fn default() -> Self {
        Self {
            trend: true,
            activity: true,
            consensus: true,
        }
    }
}

/// AC-only spatial decomposition of one coefficient plane.
#[derive(Debug, Clone)]
pub struct AcField {
    /// Blocks per row.
    pub blocks_x: usize,
    /// Blocks per column.
    pub blocks_y: usize,
    /// Level-shifted, mean-free pixels of the shared zero block (slot 0)
    /// and of each block that carries AC, in row-major block order.
    pixels: Vec<[f32; BLOCK_AREA]>,
    /// Per block (row-major), its slot in `pixels`: 0 for a block
    /// without AC levels.
    slots: Vec<u32>,
    /// Pixel offset contributed by one DC level unit (`q0 / 8`).
    pub dc_step: f32,
    /// Known DC offsets (in pixels) at anchor blocks, `None` elsewhere;
    /// one entry per block (row-major).
    pub anchors: Vec<Option<f32>>,
}

impl AcField {
    /// Decompose `plane`. The four corner blocks are always treated as
    /// known anchors: under [`dcdiff_jpeg::DcDropMode::KeepCorners`] their
    /// DC levels were transmitted, and a transmitted value of zero is
    /// just as binding as any other (neutral-chroma planes rely on it).
    ///
    /// Only blocks with an AC level are transformed. A block without one
    /// reads the shared zero block, which is exactly what [`idct`] of its
    /// all-zero input returns: every product is ±0, and a sum of zeros
    /// that starts at +0 stays +0, in both tiers.
    pub fn new(plane: &CoeffPlane, qtable: &QuantTable) -> Self {
        let (bx, by) = (plane.blocks_x(), plane.blocks_y());
        let dc_step = qtable.values()[0] as f32 / 8.0;
        let mut anchors = vec![None; bx * by];
        for (x, y) in [(0, 0), (bx - 1, 0), (0, by - 1), (bx - 1, by - 1)] {
            anchors[y * bx + x] = Some(plane.dc(x, y) as f32 * dc_step);
        }
        // Number the blocks that carry AC first, so `pixels` is allocated
        // once at its final size.
        let mut slots = vec![0u32; bx * by];
        let mut carrying = 0u32;
        for (b, slot) in slots.iter_mut().enumerate() {
            if plane.has_ac(b % bx, b / bx) {
                carrying += 1;
                *slot = carrying;
            }
        }
        let mut pixels = Vec::with_capacity(carrying as usize + 1);
        pixels.push([0.0; BLOCK_AREA]);
        for (b, &slot) in slots.iter().enumerate() {
            if slot != 0 {
                pixels.push(idct(&qtable.dequantize_with_dc(plane.block(b % bx, b / bx), 0)));
            }
        }
        Self {
            blocks_x: bx,
            blocks_y: by,
            pixels,
            slots,
            dc_step,
            anchors,
        }
    }

    /// Number of blocks, `blocks_x · blocks_y`.
    pub(crate) fn blocks(&self) -> usize {
        self.slots.len()
    }

    /// Index of block `(bx, by)`.
    #[inline]
    pub fn idx(&self, bx: usize, by: usize) -> usize {
        by * self.blocks_x + bx
    }

    /// The level-shifted, mean-free pixels of block `b` (row-major).
    #[inline]
    pub(crate) fn block(&self, b: usize) -> &[f32; BLOCK_AREA] {
        &self.pixels[self.slots[b] as usize]
    }

    /// Column `x` of block `b` as 8 pixels.
    pub(crate) fn column(&self, b: usize, x: usize) -> [f32; BLOCK] {
        let block = self.block(b);
        std::array::from_fn(|y| block[y * BLOCK + x])
    }

    /// Row `y` of block `b` as 8 pixels.
    pub(crate) fn row(&self, b: usize, y: usize) -> [f32; BLOCK] {
        let block = self.block(b);
        std::array::from_fn(|x| block[y * BLOCK + x])
    }

    /// Minimise the boundary energy over the per-block pixel offsets and
    /// return one offset per block (row-major), anchors included.
    ///
    /// * `prior` — one offset per block: the quadratic prior's target and
    ///   the solve's starting point;
    /// * `prior_weight` — λ tying the solution to `prior`;
    /// * `threshold` — the Eq. 3 mask threshold `T` (read by consensus
    ///   only);
    /// * `config` — which mechanisms shape each edge's weight and bias;
    /// * `sweeps` — Gauss–Seidel iterations.
    ///
    /// # Panics
    ///
    /// Panics if `sweeps` is zero or `prior` does not hold one offset per
    /// block.
    pub fn solve(
        &self,
        prior: &[f32],
        prior_weight: f32,
        threshold: f32,
        config: RefineConfig,
        sweeps: usize,
    ) -> Vec<f32> {
        assert!(sweeps > 0, "at least one sweep required");
        let n = self.blocks();
        assert_eq!(prior.len(), n, "one prior offset per block");
        // Per block, up to four (neighbour, weight, signed bias), appended
        // in edge order: row-major blocks, right neighbour before down
        // neighbour, so each block's list reads up, left, right, down. The
        // order fixes each block's summation order in the sweep.
        let mut adj = vec![[(0usize, 0.0f32, 0.0f32); 4]; n];
        let mut degree = vec![0usize; n];
        let mut couple = |a: usize, b: usize, (weight, bias): (f32, f32)| {
            if weight > 0.0 {
                adj[a][degree[a]] = (b, weight, -bias);
                degree[a] += 1;
                adj[b][degree[b]] = (a, weight, bias);
                degree[b] += 1;
            }
        };
        for by in 0..self.blocks_y {
            for bx in 0..self.blocks_x {
                let a = self.idx(bx, by);
                if bx + 1 < self.blocks_x {
                    let b = self.idx(bx + 1, by);
                    let (ea, ea2) = (self.column(a, BLOCK - 1), self.column(a, BLOCK - 2));
                    let (eb, eb2) = (self.column(b, 0), self.column(b, 1));
                    let stats = edge_statistics(&ea, &ea2, &eb, &eb2, threshold, config);
                    couple(a, b, stats);
                }
                if by + 1 < self.blocks_y {
                    let b = self.idx(bx, by + 1);
                    let (ea, ea2) = (self.row(a, BLOCK - 1), self.row(a, BLOCK - 2));
                    let (eb, eb2) = (self.row(b, 0), self.row(b, 1));
                    let stats = edge_statistics(&ea, &ea2, &eb, &eb2, threshold, config);
                    couple(a, b, stats);
                }
            }
        }

        let mut offsets = prior.to_vec();
        for (offset, anchor) in offsets.iter_mut().zip(&self.anchors) {
            if let Some(known) = anchor {
                *offset = *known;
            }
        }
        // Gauss–Seidel on the normal equations
        for _ in 0..sweeps {
            for i in 0..n {
                if self.anchors[i].is_some() {
                    continue;
                }
                let mut num = prior_weight * prior[i];
                let mut den = prior_weight;
                for &(j, w, d) in &adj[i][..degree[i]] {
                    num += w * offsets[j] + d;
                    den += w;
                }
                if den > 0.0 {
                    offsets[i] = num / den;
                }
            }
        }
        offsets
    }

    /// Clamp a pixel offset to the representable range and convert to a DC
    /// level.
    pub(crate) fn offset_to_level(&self, offset: f32) -> i32 {
        let max_offset = 160.0; // generous headroom beyond ±128
        let clamped = offset.clamp(-max_offset, max_offset);
        (clamped / self.dc_step).round() as i32
    }
}

/// Estimate the DC levels of every plane of `dropped`: decompose the
/// plane, estimate its offsets with `offsets`, and convert each to a
/// clamped level ([`AcField::offset_to_level`]). One `Vec` per plane, one
/// level per block (row-major): what [`crate::DcRecovery::estimate_dc`]
/// returns, and the form [`CoeffImage::to_image_with_dc`] and
/// [`CoeffImage::write_pnm_with_dc`] decode.
///
/// # Panics
///
/// Panics if `offsets` does not return one offset per block.
pub(crate) fn estimate_levels(
    dropped: &CoeffImage,
    offsets: impl Fn(&AcField) -> Vec<f32>,
) -> Vec<Vec<i32>> {
    (0..dropped.channels())
        .map(|c| {
            let field = AcField::new(dropped.plane(c), dropped.qtable(c));
            let offsets = offsets(&field);
            assert_eq!(offsets.len(), field.blocks(), "one offset per block");
            offsets.iter().map(|&o| field.offset_to_level(o)).collect()
        })
        .collect()
}

/// Per-edge boundary statistics combining the three mechanisms the
/// recovery literature identified, all tuned against the masked
/// Laplacian model of Fig. 4:
///
/// 1. **adaptive trend** — when the one-sided slopes on both sides of
///    the boundary agree, the expected pixel step is their mean
///    (SmartCom's trend extrapolation); disagreement (an edge) damps the
///    trend smoothly;
/// 2. **activity weighting** — pairs in high-gradient regions violate
///    the Laplacian prior and are soft-downweighted (ICIP-2022's
///    direction selectivity);
/// 3. **masked consensus** — the Eq. 3 idea as a robust vote: pairs
///    whose detrended residual deviates more than the threshold `T`
///    from the edge's median residual are the Fig. 4(a) "abrupt change"
///    pixels and lose their weight.
///
/// Returns the edge's total weight (normalised to at most 1) and the
/// weighted residual sum, such that `bias / weight` is the robust
/// estimate of `o_b − o_a`.
fn edge_statistics(
    ea: &[f32; BLOCK],
    ea2: &[f32; BLOCK],
    eb: &[f32; BLOCK],
    eb2: &[f32; BLOCK],
    threshold: f32,
    config: RefineConfig,
) -> (f32, f32) {
    const SLOPE_SIGMA2: f32 = 25.0;
    let mut residuals = [0.0f32; BLOCK];
    let mut activity = [0.0f32; BLOCK];
    for k in 0..BLOCK {
        let slope_a = ea[k] - ea2[k];
        let slope_b = eb2[k] - eb[k];
        let agreement = 1.0 / (1.0 + (slope_a - slope_b).powi(2) / SLOPE_SIGMA2);
        let trend = if config.trend {
            agreement * 0.5 * (slope_a + slope_b)
        } else {
            0.0
        };
        residuals[k] = ea[k] - eb[k] + trend;
        let act = slope_a.abs() + slope_b.abs();
        activity[k] = if config.activity {
            1.0 / (1.0 + act * act / SLOPE_SIGMA2)
        } else {
            1.0
        };
    }
    let mut sorted = residuals;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite residuals"));
    let median = sorted[BLOCK / 2];
    // noise-adaptive trim: on noisy (texture) edges the residual spread is
    // wide and trimming at a fixed T would destroy the averaging the
    // estimate needs, so the effective threshold grows with the median
    // absolute deviation
    let mut devs = [0.0f32; BLOCK];
    for k in 0..BLOCK {
        devs[k] = (residuals[k] - median).abs();
    }
    devs.sort_by(|a, b| a.partial_cmp(b).expect("finite residuals"));
    let mad = devs[BLOCK / 2];
    // `threshold` keeps the paper's T semantics (default 10) but acts as
    // a scale on the noise-adaptive trim: T/10 × max(10, 1.5·MAD)
    let t_eff = (threshold / DEFAULT_THRESHOLD * (1.5 * mad).max(10.0)).max(0.25);
    let t2 = t_eff * t_eff;
    let mut weight = 0.0f32;
    let mut bias = 0.0f32;
    for k in 0..BLOCK {
        let d = residuals[k] - median;
        let consensus = if config.consensus {
            1.0 / (1.0 + d * d / t2)
        } else {
            1.0
        };
        let w = activity[k] * consensus;
        weight += w;
        bias += w * residuals[k];
    }
    (weight / BLOCK as f32, bias / BLOCK as f32)
}

/// Median of a non-empty slice (averaging the middle pair for even
/// lengths).
pub(crate) fn median(values: &mut [f32]) -> f32 {
    assert!(!values.is_empty(), "median of empty slice");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in pixel data"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_image::{Image, Plane};
    use dcdiff_jpeg::{ChromaSampling, CoeffImage, DcDropMode};

    fn field_for(img: &Image) -> (CoeffImage, AcField) {
        let coeffs = CoeffImage::from_image(img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
        let f = AcField::new(dropped.plane(0), dropped.qtable(0));
        (coeffs, f)
    }

    #[test]
    fn ac_pixels_are_mean_free() {
        let img = Image::from_gray(Plane::from_fn(32, 32, |x, y| ((x * 9 + y * 5) % 256) as f32));
        let (_, f) = field_for(&img);
        for i in 0..f.blocks() {
            let mean: f32 = f.block(i).iter().sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-3, "block {i} mean {mean}");
        }
    }

    #[test]
    fn reads_equal_a_dense_ac_decomposition() {
        use dcdiff_data::{SceneGenerator, SceneKind};
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let settings = [
            (5, ChromaSampling::Cs420),
            (50, ChromaSampling::Cs444),
            (95, ChromaSampling::Cs422),
        ];
        for (quality, sampling) in settings {
            let scene = SceneGenerator::new(SceneKind::Natural, 61, 45).generate(quality as u64);
            let coeffs = CoeffImage::from_image(&scene, quality, sampling);
            let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
            for c in 0..dropped.channels() {
                let (plane, qtable) = (dropped.plane(c), dropped.qtable(c));
                let f = AcField::new(plane, qtable);
                assert_eq!(f.blocks(), plane.blocks_x() * plane.blocks_y());
                for b in 0..f.blocks() {
                    let mut levels = *plane.block(b % f.blocks_x, b / f.blocks_x);
                    levels[0] = 0;
                    let dense = idct(&qtable.dequantize(&levels));
                    // TIP-2006's corner reads index `block` itself.
                    assert_eq!(bits(f.block(b)), bits(&dense), "Q{quality} plane {c} block {b}");
                    for k in 0..BLOCK {
                        let column: [f32; BLOCK] = std::array::from_fn(|y| dense[y * BLOCK + k]);
                        assert_eq!(bits(&f.column(b, k)), bits(&column));
                        assert_eq!(bits(&f.row(b, k)), bits(&dense[k * BLOCK..(k + 1) * BLOCK]));
                    }
                }
            }
        }
    }

    #[test]
    fn anchors_are_the_corners() {
        let img = Image::from_gray(Plane::from_fn(48, 32, |x, y| ((x + y) * 3 % 256) as f32));
        let (_, f) = field_for(&img);
        let known: Vec<usize> = f
            .anchors
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.map(|_| i))
            .collect();
        assert_eq!(known.len(), 4);
        assert!(known.contains(&0));
        assert!(known.contains(&(f.blocks_x - 1)));
        assert!(known.contains(&(f.blocks_x * (f.blocks_y - 1))));
        assert!(known.contains(&(f.blocks_x * f.blocks_y - 1)));
    }

    #[test]
    fn anchor_offset_matches_true_block_mean() {
        // For a constant block the offset equals (value - 128), up to
        // quantisation of the DC level.
        let img = Image::from_gray(Plane::filled(16, 16, 200.0));
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
        let f = AcField::new(dropped.plane(0), dropped.qtable(0));
        let anchor = f.anchors[0].expect("corner is anchored");
        assert!((anchor - 72.0).abs() <= f.dc_step / 2.0 + 1e-3);
    }

    #[test]
    fn offset_level_round_trip() {
        let img = Image::from_gray(Plane::filled(16, 16, 100.0));
        let (_, f) = field_for(&img);
        for level in [-50i32, -3, 0, 7, 40] {
            let offset = level as f32 * f.dc_step;
            assert_eq!(f.offset_to_level(offset), level);
        }
    }

    #[test]
    fn median_basics() {
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [1.0, 9.0, 4.0]), 4.0);
        assert_eq!(median(&mut [1.0, 2.0, 3.0, 10.0]), 2.5);
    }
}

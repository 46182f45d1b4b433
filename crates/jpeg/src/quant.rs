//! Annex-K quantisation tables with IJG quality scaling.

use crate::BLOCK_AREA;

/// ITU-T T.81 Annex K.1 luminance table (natural row-major order).
pub const LUMA_BASE: [u16; BLOCK_AREA] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// ITU-T T.81 Annex K.2 chrominance table (natural row-major order).
pub const CHROMA_BASE: [u16; BLOCK_AREA] = [
    17, 18, 24, 47, 99, 99, 99, 99, //
    18, 21, 26, 66, 99, 99, 99, 99, //
    24, 26, 56, 99, 99, 99, 99, 99, //
    47, 66, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99,
];

/// A quantisation table in natural (row-major) coefficient order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantTable {
    values: [u16; BLOCK_AREA],
}

impl QuantTable {
    /// Build a table from raw entries.
    ///
    /// # Panics
    ///
    /// Panics if any entry is zero (division by the entry must be defined).
    #[expect(
        clippy::disallowed_macros,
        reason = "documented `# Panics` contract; parse_dqt rejects zero entries before constructing a table from untrusted bytes"
    )]
    pub fn from_values(values: [u16; BLOCK_AREA]) -> Self {
        assert!(values.iter().all(|&v| v > 0), "quantiser entries must be positive");
        Self { values }
    }

    /// The Annex-K luminance table scaled to `quality` (1..=100) with the
    /// IJG formula: `Q50` returns the base table unchanged.
    pub fn luma(quality: u8) -> Self {
        Self::scaled(&LUMA_BASE, quality)
    }

    /// The Annex-K chrominance table scaled to `quality` (1..=100).
    pub fn chroma(quality: u8) -> Self {
        Self::scaled(&CHROMA_BASE, quality)
    }

    /// IJG quality scaling of an arbitrary base table.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= quality <= 100`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented `# Panics` API contract on programmer input, validated at the CLI boundary"
    )]
    pub fn scaled(base: &[u16; BLOCK_AREA], quality: u8) -> Self {
        assert!((1..=100).contains(&quality), "quality must be 1..=100");
        let scale: u32 = if quality < 50 {
            5000 / quality as u32
        } else {
            200 - 2 * quality as u32
        };
        let mut values = [0u16; BLOCK_AREA];
        for (dst, &src) in values.iter_mut().zip(base) {
            let q = (src as u32 * scale + 50) / 100;
            *dst = q.clamp(1, 255) as u16;
        }
        Self { values }
    }

    /// Borrow the 64 entries in natural order.
    pub fn values(&self) -> &[u16; BLOCK_AREA] {
        &self.values
    }

    /// Estimate the IJG quality factor that would produce this table from
    /// `base` (inverse of [`QuantTable::scaled`], median over entries).
    ///
    /// Clamping at quality extremes makes exact inversion impossible, so
    /// the result is approximate but monotone.
    pub fn estimate_quality(&self, base: &[u16; BLOCK_AREA]) -> u8 {
        let mut scales: Vec<f64> = self
            .values
            .iter()
            .zip(base)
            .filter(|&(&v, &b)| v > 1 && v < 255 && b > 0)
            .map(|(&v, &b)| v as f64 * 100.0 / b as f64)
            .collect();
        if scales.is_empty() {
            // all entries clamped: either extremely high or low quality
            return if self.values.iter().all(|&v| v == 1) { 100 } else { 1 };
        }
        scales.sort_by(f64::total_cmp);
        let scale = scales[scales.len() / 2];
        let quality = if scale <= 100.0 {
            (200.0 - scale) / 2.0
        } else {
            5000.0 / scale
        };
        (quality.round() as i64).clamp(1, 100) as u8
    }

    /// Quantise DCT coefficients: `round(coef / q)`.
    pub fn quantize(&self, coeffs: &[f32; BLOCK_AREA]) -> [i32; BLOCK_AREA] {
        let mut out = [0i32; BLOCK_AREA];
        for i in 0..BLOCK_AREA {
            out[i] = (coeffs[i] / self.values[i] as f32).round() as i32;
        }
        out
    }

    /// Dequantise coefficients back to DCT magnitudes: `level * q`.
    pub fn dequantize(&self, levels: &[i32; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
        let mut out = [0.0f32; BLOCK_AREA];
        for i in 0..BLOCK_AREA {
            out[i] = (levels[i] * self.values[i] as i32) as f32;
        }
        out
    }

    /// [`QuantTable::dequantize`] of `levels` with the DC level replaced
    /// by `dc`: each level is scaled on its own, so only entry 0 changes.
    pub fn dequantize_with_dc(&self, levels: &[i32; BLOCK_AREA], dc: i32) -> [f32; BLOCK_AREA] {
        let mut out = self.dequantize(levels);
        out[0] = (dc * self.values[0] as i32) as f32;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q50_is_the_base_table() {
        assert_eq!(QuantTable::luma(50).values(), &LUMA_BASE);
        assert_eq!(QuantTable::chroma(50).values(), &CHROMA_BASE);
    }

    #[test]
    fn q100_is_all_ones_or_close() {
        let t = QuantTable::luma(100);
        // scale = 0 -> every entry clamps to 1
        assert!(t.values().iter().all(|&v| v == 1));
    }

    #[test]
    fn lower_quality_coarser_quantisers() {
        let q20 = QuantTable::luma(20);
        let q80 = QuantTable::luma(80);
        for i in 0..BLOCK_AREA {
            assert!(q20.values()[i] >= q80.values()[i], "entry {i}");
        }
    }

    #[test]
    fn quantise_dequantise_bounds_error() {
        let t = QuantTable::luma(50);
        let mut coeffs = [0.0f32; BLOCK_AREA];
        for (i, v) in coeffs.iter_mut().enumerate() {
            *v = (i as f32 - 32.0) * 7.3;
        }
        let levels = t.quantize(&coeffs);
        let back = t.dequantize(&levels);
        for i in 0..BLOCK_AREA {
            assert!(
                (back[i] - coeffs[i]).abs() <= 0.5 * t.values()[i] as f32 + 1e-3,
                "coeff {i}: {} -> {}",
                coeffs[i],
                back[i]
            );
        }
    }

    #[test]
    fn quality_estimation_inverts_scaling() {
        for q in [10u8, 25, 50, 75, 90] {
            let table = QuantTable::luma(q);
            let est = table.estimate_quality(&LUMA_BASE);
            assert!(
                (est as i32 - q as i32).abs() <= 2,
                "q{q} estimated as {est}"
            );
        }
    }

    #[test]
    fn quality_estimation_handles_extremes() {
        assert_eq!(QuantTable::luma(100).estimate_quality(&LUMA_BASE), 100);
        assert!(QuantTable::luma(1).estimate_quality(&LUMA_BASE) <= 5);
    }

    #[test]
    #[should_panic(expected = "quality must be 1..=100")]
    fn quality_zero_rejected() {
        QuantTable::luma(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_entry_rejected() {
        QuantTable::from_values([0u16; BLOCK_AREA]);
    }
}

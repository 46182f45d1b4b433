//! 8×8 forward and inverse discrete cosine transforms.
//!
//! Two implementations are provided:
//!
//! * [`fdct_ref`] / [`idct_ref`] — the textbook `O(N^4)` type-II/III DCT,
//!   used as the correctness oracle in tests;
//! * [`fdct`] / [`idct_scalar`] — a separable row/column transform with
//!   precomputed cosine tables (the practical encoder path; ~8× fewer
//!   multiplies than the reference);
//! * [`idct`] — the decode-path entry point: runtime-dispatched to an
//!   AVX2+FMA two-pass matrix kernel when [`crate::simd`] detects the
//!   features, falling back to [`idct_scalar`] otherwise;
//! * [`fdct_quantize`] — the encode-path entry point: forward transform
//!   and quantisation of one block in a single call, runtime-dispatched
//!   to an AVX2 kernel, falling back to
//!   `qtable.quantize(&fdct(samples))` otherwise.
//!
//! All operate on level-shifted samples (caller subtracts 128) and use
//! the orthonormal JPEG normalisation: `C(0) = 1/sqrt(2)`, scale `1/2`
//! per 1-D pass. The AVX2 iDCT evaluates the same orthonormal basis,
//! so it matches the scalar transform to within a few ULP of f32 —
//! bounded by the SIMD parity tests, not assumed. The AVX2 forward
//! kernel has no such band: its output is integer levels, so it repeats
//! [`fdct`]'s arithmetic operation for operation and returns exactly the
//! scalar levels.

use crate::quant::QuantTable;
use crate::{BLOCK, BLOCK_AREA};

/// Precomputed `cos((2x+1) u pi / 16)` table, `COS[u][x]`.
fn cos_table() -> &'static [[f32; BLOCK]; BLOCK] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f32; BLOCK]; BLOCK]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[0.0f32; BLOCK]; BLOCK];
        for (u, row) in t.iter_mut().enumerate() {
            for (x, v) in row.iter_mut().enumerate() {
                *v = ((2.0 * x as f32 + 1.0) * u as f32 * std::f32::consts::PI / 16.0).cos();
            }
        }
        t
    })
}

#[inline]
fn c(u: usize) -> f32 {
    if u == 0 {
        std::f32::consts::FRAC_1_SQRT_2
    } else {
        1.0
    }
}

/// Reference forward DCT (type II), `O(N^4)`.
///
/// Input and output are row-major 64-element blocks; the `(0,0)` output
/// is the DC coefficient, equal to `8 * mean(samples)` under this
/// normalisation.
pub fn fdct_ref(samples: &[f32; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
    let mut out = [0.0f32; BLOCK_AREA];
    for v in 0..BLOCK {
        for u in 0..BLOCK {
            let mut sum = 0.0f32;
            for y in 0..BLOCK {
                for x in 0..BLOCK {
                    sum += samples[y * BLOCK + x]
                        * cos_table()[u][x]
                        * cos_table()[v][y];
                }
            }
            out[v * BLOCK + u] = 0.25 * c(u) * c(v) * sum;
        }
    }
    out
}

/// Reference inverse DCT (type III), `O(N^4)`.
pub fn idct_ref(coeffs: &[f32; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
    let mut out = [0.0f32; BLOCK_AREA];
    for y in 0..BLOCK {
        for x in 0..BLOCK {
            let mut sum = 0.0f32;
            for v in 0..BLOCK {
                for u in 0..BLOCK {
                    sum += c(u)
                        * c(v)
                        * coeffs[v * BLOCK + u]
                        * cos_table()[u][x]
                        * cos_table()[v][y];
                }
            }
            out[y * BLOCK + x] = 0.25 * sum;
        }
    }
    out
}

/// 1-D 8-point forward DCT on a strided slice.
#[inline]
fn fdct_1d(data: &mut [f32; BLOCK_AREA], offset: usize, stride: usize) {
    let mut tmp = [0.0f32; BLOCK];
    let t = cos_table();
    for (u, out) in tmp.iter_mut().enumerate() {
        let mut sum = 0.0f32;
        for x in 0..BLOCK {
            sum += data[offset + x * stride] * t[u][x];
        }
        *out = 0.5 * c(u) * sum;
    }
    for (u, &v) in tmp.iter().enumerate() {
        data[offset + u * stride] = v;
    }
}

/// 1-D 8-point inverse DCT on a strided slice.
#[inline]
fn idct_1d(data: &mut [f32; BLOCK_AREA], offset: usize, stride: usize) {
    let mut tmp = [0.0f32; BLOCK];
    let t = cos_table();
    for (x, out) in tmp.iter_mut().enumerate() {
        let mut sum = 0.0f32;
        for u in 0..BLOCK {
            sum += c(u) * data[offset + u * stride] * t[u][x];
        }
        *out = 0.5 * sum;
    }
    for (x, &v) in tmp.iter().enumerate() {
        data[offset + x * stride] = v;
    }
}

/// Separable forward DCT (rows then columns).
///
/// Matches [`fdct_ref`] to floating-point precision while doing two 1-D
/// passes instead of a full 4-D sum.
pub fn fdct(samples: &[f32; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
    let mut data = *samples;
    for row in 0..BLOCK {
        fdct_1d(&mut data, row * BLOCK, 1);
    }
    for col in 0..BLOCK {
        fdct_1d(&mut data, col, BLOCK);
    }
    data
}

/// Separable inverse DCT (columns then rows). Inverse of [`fdct`].
///
/// This is the portable scalar tier — always available, and the parity
/// oracle the AVX2 kernel is tested against. Decode paths should call
/// [`idct`], which dispatches here when no vector tier is active.
pub fn idct_scalar(coeffs: &[f32; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
    let mut data = *coeffs;
    for col in 0..BLOCK {
        idct_1d(&mut data, col, BLOCK);
    }
    for row in 0..BLOCK {
        idct_1d(&mut data, row * BLOCK, 1);
    }
    data
}

/// Precomputed orthonormal iDCT basis `B[u][x] = 0.5 * C(u) * cos((2x+1)u pi/16)`.
///
/// With this matrix the 2-D inverse transform is `P = Bᵀ · (X · B)`,
/// which the AVX2 kernel evaluates as two broadcast-FMA passes over
/// whole 8-float rows (no transpose needed: both passes produce output
/// rows as sums of scaled input rows).
fn basis_table() -> &'static [[f32; BLOCK]; BLOCK] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f32; BLOCK]; BLOCK]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[0.0f32; BLOCK]; BLOCK];
        for (u, row) in t.iter_mut().enumerate() {
            for (x, v) in row.iter_mut().enumerate() {
                *v = 0.5
                    * c(u)
                    * ((2.0 * x as f32 + 1.0) * u as f32 * std::f32::consts::PI / 16.0).cos();
            }
        }
        t
    })
}

/// AVX2+FMA 8×8 inverse DCT: `out = Bᵀ · (X · B)` as two row passes.
///
/// Pass 1 forms `T[v] = Σ_u X[v][u] · B[u]` (each output row is a sum of
/// broadcast-scaled basis rows); pass 2 forms `out[y] = Σ_v B[v][y] · T[v]`
/// the same way. 128 FMAs total on 8-lane vectors, no shuffles.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 and FMA
/// (`simd::active() == Tier::Avx2Fma` guarantees this — the tier is only
/// selected after `is_x86_feature_detected!` confirms both).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
// SAFETY: unsafe fn — requires avx2+fma; the dispatcher only calls this
// after `simd::active()` reports the Avx2Fma tier.
unsafe fn idct_avx2(coeffs: &[f32; BLOCK_AREA], out: &mut [f32; BLOCK_AREA]) {
    use std::arch::x86_64::{
        _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let b = basis_table();
    // SAFETY: `b` is a static [[f32; 8]; 8]; row pointers are valid for 8
    // f32 reads. Intrinsics are guarded by the enclosing `target_feature`
    // fn, whose contract requires AVX2+FMA (upheld by the dispatcher).
    let mut brows = [_mm256_setzero_ps(); BLOCK];
    for (u, row) in brows.iter_mut().enumerate() {
        *row = _mm256_loadu_ps(b[u].as_ptr());
    }
    let mut t = [_mm256_setzero_ps(); BLOCK];
    for (v, trow) in t.iter_mut().enumerate() {
        let mut acc = _mm256_setzero_ps();
        for (u, &brow) in brows.iter().enumerate() {
            acc = _mm256_fmadd_ps(_mm256_set1_ps(coeffs[v * BLOCK + u]), brow, acc);
        }
        *trow = acc;
    }
    for (y, orow) in out.chunks_exact_mut(BLOCK).enumerate() {
        let mut acc = _mm256_setzero_ps();
        for (v, &trow) in t.iter().enumerate() {
            acc = _mm256_fmadd_ps(_mm256_set1_ps(b[v][y]), trow, acc);
        }
        // SAFETY: `orow` is an exclusively borrowed 8-f32 row of `out`.
        _mm256_storeu_ps(orow.as_mut_ptr(), acc);
    }
}

/// Forward DCT and quantisation of one level-shifted block, runtime-
/// dispatched per [`crate::simd::active`]: the encoder's per-block step.
///
/// Both tiers return exactly `qtable.quantize(&fdct(samples))`. The AVX2
/// kernel does the same float operations as [`fdct`] and
/// [`QuantTable::quantize`], in the same order: separate multiplies and
/// adds (no FMA), the `0.5·C(u)` scale as one multiply after each sum,
/// a true division by the quantiser, and `f32::round` followed by
/// `as i32`.
pub fn fdct_quantize(samples: &[f32; BLOCK_AREA], qtable: &QuantTable) -> [i32; BLOCK_AREA] {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::active() == crate::simd::Tier::Avx2Fma {
            let mut out = [0i32; BLOCK_AREA];
            // SAFETY: the Avx2Fma tier is only ever reported after
            // `is_x86_feature_detected!` confirmed avx2 and fma.
            unsafe { fdct_quantize_avx2(samples, qtable.values(), &mut out) };
            return out;
        }
    }
    qtable.quantize(&fdct(samples))
}

/// `COS` transposed, `COS_T[x][u] = COS[u][x]`: row `x` holds sample
/// `x`'s weight in every output `u`, so the forward row pass can scale
/// whole rows. Same values as [`cos_table`], copied.
#[cfg(target_arch = "x86_64")]
fn cos_table_t() -> &'static [[f32; BLOCK]; BLOCK] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f32; BLOCK]; BLOCK]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let t = cos_table();
        std::array::from_fn(|x| std::array::from_fn(|u| t[u][x]))
    })
}

/// AVX2 forward DCT plus quantisation, bit-identical to
/// `QuantTable::quantize(&fdct(samples))`.
///
/// Row pass: `R[y] = s ⊙ Σ_x samples[y][x] · COS_T[x]` with
/// `s[u] = 0.5·C(u)`, each lane summing over `x` in [`fdct_1d`]'s order.
/// Column pass: `F[v] = (0.5·C(v)) · Σ_y R[y] · COS[v][y]`, lanes being
/// columns. Then each row of `F` is divided by its quantisers and
/// rounded by [`round_to_level_avx2`].
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2
/// (`simd::active() == Tier::Avx2Fma` guarantees this — the tier is only
/// selected after `is_x86_feature_detected!` confirms it).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: unsafe fn — requires avx2; the dispatcher only calls this after
// `simd::active()` reports the Avx2Fma tier.
unsafe fn fdct_quantize_avx2(
    samples: &[f32; BLOCK_AREA],
    qtable: &[u16; BLOCK_AREA],
    out: &mut [i32; BLOCK_AREA],
) {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_ps, _mm256_cvtepi32_ps, _mm256_cvtepu16_epi32, _mm256_div_ps,
        _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setr_ps, _mm256_setzero_ps,
        _mm256_storeu_si256, _mm_loadu_si128,
    };
    let cos = cos_table();
    let scale = |u: usize| 0.5 * c(u);
    // SAFETY: every pointer is an 8-element row of a fixed-size array:
    // `cos_table_t()` rows ([f32; 8], 32 bytes loaded), quantiser rows
    // (8 × u16, 16 bytes loaded) and exclusively borrowed `out` rows
    // (8 × i32, 32 bytes stored). Intrinsics are guarded by the enclosing
    // `target_feature` fn, whose contract requires AVX2 (upheld by the
    // dispatcher).
    let mut basis = [_mm256_setzero_ps(); BLOCK];
    for (b, row) in basis.iter_mut().zip(cos_table_t()) {
        *b = _mm256_loadu_ps(row.as_ptr());
    }
    let row_scale = _mm256_setr_ps(
        scale(0),
        scale(1),
        scale(2),
        scale(3),
        scale(4),
        scale(5),
        scale(6),
        scale(7),
    );
    let mut rows = [_mm256_setzero_ps(); BLOCK];
    for (r, line) in rows.iter_mut().zip(samples.chunks_exact(BLOCK)) {
        let mut sum = _mm256_setzero_ps();
        for (&s, &b) in line.iter().zip(&basis) {
            sum = _mm256_add_ps(sum, _mm256_mul_ps(_mm256_set1_ps(s), b));
        }
        *r = _mm256_mul_ps(row_scale, sum);
    }
    for (v, (levels, q)) in out
        .chunks_exact_mut(BLOCK)
        .zip(qtable.chunks_exact(BLOCK))
        .enumerate()
    {
        let mut sum = _mm256_setzero_ps();
        for (&r, &w) in rows.iter().zip(&cos[v]) {
            sum = _mm256_add_ps(sum, _mm256_mul_ps(r, _mm256_set1_ps(w)));
        }
        let coeffs = _mm256_mul_ps(_mm256_set1_ps(scale(v)), sum);
        let steps = _mm256_cvtepi32_ps(_mm256_cvtepu16_epi32(_mm_loadu_si128(
            q.as_ptr().cast::<__m128i>(),
        )));
        let level = round_to_level_avx2(_mm256_div_ps(coeffs, steps));
        _mm256_storeu_si256(levels.as_mut_ptr().cast::<__m256i>(), level);
    }
}

/// `x.round() as i32` on eight lanes: round half away from zero, then
/// the saturating cast (NaN → 0, beyond `i32` → `i32::MIN`/`i32::MAX`).
///
/// Rounds by truncating and stepping one away from zero where the
/// dropped fraction is at least one half. `x - trunc(x)` is exact, so
/// ties are caught exactly, and the largest f32 below 0.5 stays 0 (the
/// `trunc(x + 0.5)` shortcut rounds it to 1). `cvttps2dq` returns
/// `i32::MIN` for NaN and every out-of-range lane; the fix-ups turn
/// NaN into 0 and lanes at or above 2³¹ into `i32::MAX`.
///
/// # Safety
///
/// The CPU must support AVX2. [`fdct_quantize_avx2`] calls this within
/// its own AVX2 contract; any other caller needs an `unsafe` block that
/// confirms the feature first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn round_to_level_avx2(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_and_ps, _mm256_andnot_ps, _mm256_andnot_si256, _mm256_castps_si256,
        _mm256_cmp_ps, _mm256_cvttps_epi32, _mm256_or_ps, _mm256_round_ps, _mm256_set1_ps,
        _mm256_sub_ps, _mm256_xor_si256, _CMP_GE_OQ, _CMP_UNORD_Q, _MM_FROUND_NO_EXC,
        _MM_FROUND_TO_ZERO,
    };
    let whole = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(x);
    let frac = _mm256_sub_ps(x, whole);
    let sign = _mm256_set1_ps(-0.0);
    let away = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_andnot_ps(sign, frac), _mm256_set1_ps(0.5));
    let step = _mm256_or_ps(_mm256_set1_ps(1.0), _mm256_and_ps(x, sign));
    let rounded = _mm256_add_ps(whole, _mm256_and_ps(away, step));
    let level = _mm256_cvttps_epi32(rounded);
    let high = _mm256_cmp_ps::<_CMP_GE_OQ>(rounded, _mm256_set1_ps(2_147_483_648.0));
    let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(rounded, rounded);
    _mm256_andnot_si256(
        _mm256_castps_si256(nan),
        _mm256_xor_si256(level, _mm256_castps_si256(high)),
    )
}

/// Inverse DCT, runtime-dispatched per [`crate::simd::active`].
///
/// Selects the AVX2+FMA kernel when the CPU supports it (and no scalar
/// override is pinned), otherwise [`idct_scalar`]. Both tiers implement
/// the identical orthonormal transform; the SIMD parity tests bound the
/// cross-tier difference.
pub fn idct(coeffs: &[f32; BLOCK_AREA]) -> [f32; BLOCK_AREA] {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::active() == crate::simd::Tier::Avx2Fma {
            let mut out = [0.0f32; BLOCK_AREA];
            // SAFETY: the Avx2Fma tier is only ever reported after
            // `is_x86_feature_detected!` confirmed avx2 and fma.
            unsafe { idct_avx2(coeffs, &mut out) };
            return out;
        }
    }
    idct_scalar(coeffs)
}

/// Every sample of [`idct`] of a block whose only nonzero coefficient is
/// the DC term `d`, dispatched the same way and bit for bit after the
/// decoder's +128 shift.
///
/// Each tier repeats its own operations on that input. The AVX2 kernel's
/// first nonzero term is `fma(d, B[0][x], +0)`, which rounds as the plain
/// product does, and every later term adds a ±0 product; `B[0]` is the
/// constant `0.5 · C(0)` because cos 0 = 1, so every sample is
/// `b₀₀ · (d · b₀₀)`. [`idct_scalar`] runs `idct_1d` down columns and
/// then along rows, whose one nonzero term is `(C(0) · v) · cos 0` scaled
/// by 0.5; multiplying by 1 is exact. At most the sign of a zero can
/// differ from [`idct`], and adding 128 erases it.
pub fn idct_dc_only(d: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::active() == crate::simd::Tier::Avx2Fma {
            let b00 = basis_table()[0][0];
            return b00 * (d * b00);
        }
    }
    0.5 * (c(0) * (0.5 * (c(0) * d)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block(seed: u32) -> [f32; BLOCK_AREA] {
        let mut b = [0.0f32; BLOCK_AREA];
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        for v in &mut b {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = (state >> 16) as f32 % 256.0 - 128.0;
        }
        b
    }

    #[test]
    fn dc_coefficient_is_scaled_mean() {
        let block = [10.0f32; BLOCK_AREA];
        let coeffs = fdct(&block);
        // DC = 1/4 * (1/sqrt2)^2 * sum = sum/8 = 80 for constant 10
        assert!((coeffs[0] - 80.0).abs() < 1e-3, "dc {}", coeffs[0]);
        for (i, &ac) in coeffs.iter().enumerate().skip(1) {
            assert!(ac.abs() < 1e-3, "ac[{i}] = {ac}");
        }
    }

    #[test]
    fn fast_matches_reference_forward() {
        for seed in 0..5 {
            let block = sample_block(seed);
            let fast = fdct(&block);
            let slow = fdct_ref(&block);
            for i in 0..BLOCK_AREA {
                assert!(
                    (fast[i] - slow[i]).abs() < 1e-2,
                    "coeff {i}: fast {} vs ref {}",
                    fast[i],
                    slow[i]
                );
            }
        }
    }

    #[test]
    fn fast_matches_reference_inverse() {
        for seed in 5..10 {
            let coeffs = sample_block(seed);
            let fast = idct(&coeffs);
            let slow = idct_ref(&coeffs);
            for i in 0..BLOCK_AREA {
                assert!((fast[i] - slow[i]).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn round_trip_is_identity() {
        for seed in 10..15 {
            let block = sample_block(seed);
            let back = idct(&fdct(&block));
            for i in 0..BLOCK_AREA {
                assert!(
                    (block[i] - back[i]).abs() < 1e-2,
                    "sample {i}: {} vs {}",
                    block[i],
                    back[i]
                );
            }
        }
    }

    #[test]
    fn dispatched_idct_matches_scalar_tier() {
        // Covers the AVX2 kernel on hosts that have it; on scalar-only
        // hosts both sides take the same path and the test is vacuous.
        for seed in 20..40 {
            let coeffs = sample_block(seed);
            let fast = idct(&coeffs);
            let scalar = idct_scalar(&coeffs);
            for i in 0..BLOCK_AREA {
                assert!(
                    (fast[i] - scalar[i]).abs() < 1e-3,
                    "sample {i}: dispatched {} vs scalar {}",
                    fast[i],
                    scalar[i]
                );
            }
        }
    }

    #[test]
    fn dispatched_idct_matches_scalar_at_saturation() {
        // Extremes of the quantised-coefficient range (|level * qstep|
        // can reach ~16k): the tiers must stay within f32 noise of each
        // other so clamping to [0,255] after +128 cannot diverge.
        let mut coeffs = [0.0f32; BLOCK_AREA];
        for (i, v) in coeffs.iter_mut().enumerate() {
            *v = if i % 2 == 0 { 16320.0 } else { -16320.0 };
        }
        let fast = idct(&coeffs);
        let scalar = idct_scalar(&coeffs);
        for i in 0..BLOCK_AREA {
            let tol = 1e-2 * scalar[i].abs().max(1.0);
            assert!((fast[i] - scalar[i]).abs() < tol);
        }
    }

    #[test]
    fn dispatched_fdct_quantize_matches_scalar_levels() {
        // Exact, not banded: pixel-range blocks at every quality, plus
        // magnitudes far outside it, where `as i32` saturates, and blocks
        // poisoned with NaN and infinities.
        let mut blocks: Vec<[f32; BLOCK_AREA]> = (0..200).map(sample_block).collect();
        for (i, scale) in [1e3f32, 1e6, 1e9, 1e12].into_iter().enumerate() {
            let mut b = sample_block(300 + i as u32);
            b.iter_mut().for_each(|v| *v *= scale);
            blocks.push(b);
        }
        for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut b = sample_block(400);
            b[9] = special;
            blocks.push(b);
        }
        for quality in [1u8, 10, 50, 90, 100] {
            for table in [QuantTable::luma(quality), QuantTable::chroma(quality)] {
                for block in &blocks {
                    assert_eq!(fdct_quantize(block, &table), table.quantize(&fdct(block)));
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_rounding_matches_round_as_i32_at_ties_and_limits() {
        use std::arch::x86_64::{_mm256_loadu_ps, _mm256_storeu_si256};
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let below_half = f32::from_bits(0.5f32.to_bits() - 1);
        let two_31 = 2_147_483_648.0f32;
        let values = [
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            1023.5,
            -1023.5,
            below_half,
            -below_half,
            two_31,
            -two_31,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -0.0,
        ];
        for chunk in values.chunks_exact(8) {
            let mut got = [0i32; 8];
            // SAFETY: AVX2 was detected above; `chunk` and `got` are
            // 8-element buffers, exactly what the load and store touch.
            unsafe {
                let level = round_to_level_avx2(_mm256_loadu_ps(chunk.as_ptr()));
                _mm256_storeu_si256(got.as_mut_ptr().cast(), level);
            }
            for (&x, &level) in chunk.iter().zip(&got) {
                assert_eq!(level, x.round() as i32, "round({x:e})");
            }
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let block = sample_block(42);
        let coeffs = fdct(&block);
        let es: f32 = block.iter().map(|v| v * v).sum();
        let ec: f32 = coeffs.iter().map(|v| v * v).sum();
        assert!((es - ec).abs() / es < 1e-4, "{es} vs {ec}");
    }

    #[test]
    fn single_basis_function_round_trips() {
        // An impulse in coefficient space produces the basis image; IDCT
        // then FDCT must recover the impulse.
        let mut coeffs = [0.0f32; BLOCK_AREA];
        coeffs[3 * BLOCK + 5] = 100.0;
        let img = idct(&coeffs);
        let back = fdct(&img);
        for (i, &actual) in back.iter().enumerate() {
            let expect = if i == 3 * BLOCK + 5 { 100.0 } else { 0.0 };
            assert!((actual - expect).abs() < 1e-2);
        }
    }
}

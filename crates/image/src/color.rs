//! JPEG (JFIF) full-range BT.601 colour conversion.
//!
//! These are the exact affine transforms used by baseline JPEG: luma and
//! chroma all span `0..=255`, with chroma centred at 128.
//!
//! Two granularities are provided: the per-pixel helpers
//! ([`rgb_to_ycbcr_pixel`] / [`ycbcr_to_rgb_pixel`]) and whole-row
//! planar kernels ([`rgb_to_ycbcr_rows`] / [`ycbcr_to_rgb_rows`]) that
//! runtime-dispatch to AVX2+FMA on CPUs that support it (mirroring the
//! GEMM dispatch in `dcdiff-tensor`), falling back to the scalar pixel
//! helpers otherwise. [`simd_force_scalar`] pins the scalar tier for
//! benchmarking and parity testing.

/// Convert one RGB pixel to full-range YCbCr.
///
/// Inputs are nominally in `[0, 255]`; outputs are clamped to that range.
///
/// # Example
///
/// ```
/// use dcdiff_image::rgb_to_ycbcr_pixel;
/// let (y, cb, cr) = rgb_to_ycbcr_pixel(255.0, 255.0, 255.0);
/// assert!((y - 255.0).abs() < 0.5);
/// assert!((cb - 128.0).abs() < 0.5);
/// assert!((cr - 128.0).abs() < 0.5);
/// ```
#[inline]
pub fn rgb_to_ycbcr_pixel(r: f32, g: f32, b: f32) -> (f32, f32, f32) {
    let y = 0.299 * r + 0.587 * g + 0.114 * b;
    let cb = -0.168_735_9 * r - 0.331_264_1 * g + 0.5 * b + 128.0;
    let cr = 0.5 * r - 0.418_687_6 * g - 0.081_312_4 * b + 128.0;
    (clamp255(y), clamp255(cb), clamp255(cr))
}

/// Convert one full-range YCbCr pixel back to RGB.
///
/// Outputs are clamped to `[0, 255]`.
///
/// # Example
///
/// ```
/// use dcdiff_image::{rgb_to_ycbcr_pixel, ycbcr_to_rgb_pixel};
/// let (y, cb, cr) = rgb_to_ycbcr_pixel(10.0, 200.0, 50.0);
/// let (r, g, b) = ycbcr_to_rgb_pixel(y, cb, cr);
/// assert!((r - 10.0).abs() < 1.0 && (g - 200.0).abs() < 1.0 && (b - 50.0).abs() < 1.0);
/// ```
#[inline]
pub fn ycbcr_to_rgb_pixel(y: f32, cb: f32, cr: f32) -> (f32, f32, f32) {
    let cb = cb - 128.0;
    let cr = cr - 128.0;
    let r = y + 1.402 * cr;
    let g = y - 0.344_136_3 * cb - 0.714_136_3 * cr;
    let b = y + 1.772 * cb;
    (clamp255(r), clamp255(g), clamp255(b))
}

#[inline]
fn clamp255(v: f32) -> f32 {
    v.clamp(0.0, 255.0)
}

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// When set, the row kernels take the scalar tier regardless of CPU
/// support. Only forces *down*; there is no way to force a tier the CPU
/// did not pass detection for.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

fn avx2_available() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether the row kernels here and in `io` take their AVX2 tier.
#[inline]
pub(crate) fn use_avx2() -> bool {
    avx2_available() && !FORCE_SCALAR.load(Ordering::Relaxed)
}

/// Pin (or unpin) the scalar tier of the colour conversion and of the
/// PPM/PGM writers' quantiser for the process.
///
/// Used by `kernel_bench` to measure scalar-vs-SIMD conversion in one
/// run and by the parity tests; affects every thread.
pub fn simd_force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Label of the colour-conversion tier currently dispatched to
/// (`"avx2_fma"` or `"scalar"`), for bench JSON and logs.
pub fn simd_tier_name() -> &'static str {
    if use_avx2() {
        "avx2_fma"
    } else {
        "scalar"
    }
}

/// Convert planar YCbCr rows to planar RGB, element `i` of each input
/// mapping to element `i` of each output (the planar form of
/// [`ycbcr_to_rgb_pixel`], runtime-dispatched).
///
/// # Panics
///
/// Panics if the six slices do not all share one length.
pub fn ycbcr_to_rgb_rows(
    y: &[f32],
    cb: &[f32],
    cr: &[f32],
    r: &mut [f32],
    g: &mut [f32],
    b: &mut [f32],
) {
    let n = y.len();
    assert!(
        cb.len() == n && cr.len() == n && r.len() == n && g.len() == n && b.len() == n,
        "planar rows must share one length"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: avx2+fma were confirmed by `is_x86_feature_detected!`
        // (the only way `use_avx2` returns true).
        unsafe { ycbcr_to_rgb_rows_avx2(y, cb, cr, r, g, b) };
        return;
    }
    ycbcr_to_rgb_rows_scalar(y, cb, cr, r, g, b);
}

/// Scalar tier of [`ycbcr_to_rgb_rows`]; also the parity oracle.
pub fn ycbcr_to_rgb_rows_scalar(
    y: &[f32],
    cb: &[f32],
    cr: &[f32],
    r: &mut [f32],
    g: &mut [f32],
    b: &mut [f32],
) {
    for ((((&py, &pcb), &pcr), pr), (pg, pb)) in y
        .iter()
        .zip(cb)
        .zip(cr)
        .zip(r.iter_mut())
        .zip(g.iter_mut().zip(b.iter_mut()))
    {
        let (vr, vg, vb) = ycbcr_to_rgb_pixel(py, pcb, pcr);
        *pr = vr;
        *pg = vg;
        *pb = vb;
    }
}

/// Convert planar RGB rows to planar YCbCr (the planar form of
/// [`rgb_to_ycbcr_pixel`], runtime-dispatched).
///
/// # Panics
///
/// Panics if the six slices do not all share one length.
pub fn rgb_to_ycbcr_rows(
    r: &[f32],
    g: &[f32],
    b: &[f32],
    y: &mut [f32],
    cb: &mut [f32],
    cr: &mut [f32],
) {
    let n = r.len();
    assert!(
        g.len() == n && b.len() == n && y.len() == n && cb.len() == n && cr.len() == n,
        "planar rows must share one length"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: avx2+fma were confirmed by `is_x86_feature_detected!`
        // (the only way `use_avx2` returns true).
        unsafe { rgb_to_ycbcr_rows_avx2(r, g, b, y, cb, cr) };
        return;
    }
    rgb_to_ycbcr_rows_scalar(r, g, b, y, cb, cr);
}

/// Scalar tier of [`rgb_to_ycbcr_rows`]; also the parity oracle.
pub fn rgb_to_ycbcr_rows_scalar(
    r: &[f32],
    g: &[f32],
    b: &[f32],
    y: &mut [f32],
    cb: &mut [f32],
    cr: &mut [f32],
) {
    for ((((&pr, &pg), &pb), py), (pcb, pcr)) in r
        .iter()
        .zip(g)
        .zip(b)
        .zip(y.iter_mut())
        .zip(cb.iter_mut().zip(cr.iter_mut()))
    {
        let (vy, vcb, vcr) = rgb_to_ycbcr_pixel(pr, pg, pb);
        *py = vy;
        *pcb = vcb;
        *pcr = vcr;
    }
}

/// AVX2+FMA tier of [`ycbcr_to_rgb_rows`]: 8 pixels per iteration, the
/// tail handled by the scalar helper. Uses FMA contractions of the same
/// BT.601 constants; the cross-tier difference is a few f32 ULP and is
/// bounded by the parity tests.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, and that all six
/// slices have equal length (checked by the public wrapper).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
// SAFETY: unsafe fn — requires avx2+fma and six equal-length slices; the
// public wrapper checks both before calling.
unsafe fn ycbcr_to_rgb_rows_avx2(
    y: &[f32],
    cb: &[f32],
    cr: &[f32],
    r: &mut [f32],
    g: &mut [f32],
    b: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm256_fmadd_ps, _mm256_fnmadd_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps,
        _mm256_set1_ps, _mm256_storeu_ps, _mm256_sub_ps,
    };
    let n = y.len();
    let c128 = _mm256_set1_ps(128.0);
    let zero = _mm256_set1_ps(0.0);
    let cmax = _mm256_set1_ps(255.0);
    let k_r_cr = _mm256_set1_ps(1.402);
    let k_g_cb = _mm256_set1_ps(0.344_136_3);
    let k_g_cr = _mm256_set1_ps(0.714_136_3);
    let k_b_cb = _mm256_set1_ps(1.772);
    let chunks = n / 8;
    for i in 0..chunks {
        let off = i * 8;
        // All six slices have length `n` (wrapper contract).
        // SAFETY: `off + 8 <= chunks * 8 <= n` keeps every 8-float
        // load/store in bounds; intrinsics are guarded by this fn's ISA.
        unsafe {
            let yv = _mm256_loadu_ps(y.as_ptr().add(off));
            let cbv = _mm256_sub_ps(_mm256_loadu_ps(cb.as_ptr().add(off)), c128);
            let crv = _mm256_sub_ps(_mm256_loadu_ps(cr.as_ptr().add(off)), c128);
            let rv = _mm256_fmadd_ps(k_r_cr, crv, yv);
            let gv = _mm256_fnmadd_ps(k_g_cr, crv, _mm256_fnmadd_ps(k_g_cb, cbv, yv));
            let bv = _mm256_fmadd_ps(k_b_cb, cbv, yv);
            _mm256_storeu_ps(
                r.as_mut_ptr().add(off),
                _mm256_min_ps(_mm256_max_ps(rv, zero), cmax),
            );
            _mm256_storeu_ps(
                g.as_mut_ptr().add(off),
                _mm256_min_ps(_mm256_max_ps(gv, zero), cmax),
            );
            _mm256_storeu_ps(
                b.as_mut_ptr().add(off),
                _mm256_min_ps(_mm256_max_ps(bv, zero), cmax),
            );
        }
    }
    let done = chunks * 8;
    ycbcr_to_rgb_rows_scalar(
        &y[done..],
        &cb[done..],
        &cr[done..],
        &mut r[done..],
        &mut g[done..],
        &mut b[done..],
    );
}

/// AVX2+FMA tier of [`rgb_to_ycbcr_rows`]; see
/// [`ycbcr_to_rgb_rows_avx2`] for the tiering/precision notes.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, and that all six
/// slices have equal length (checked by the public wrapper).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
// SAFETY: unsafe fn — requires avx2+fma and six equal-length slices; the
// public wrapper checks both before calling.
unsafe fn rgb_to_ycbcr_rows_avx2(
    r: &[f32],
    g: &[f32],
    b: &[f32],
    y: &mut [f32],
    cb: &mut [f32],
    cr: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_fnmadd_ps, _mm256_loadu_ps, _mm256_max_ps,
        _mm256_min_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    let n = r.len();
    let c128 = _mm256_set1_ps(128.0);
    let zero = _mm256_set1_ps(0.0);
    let cmax = _mm256_set1_ps(255.0);
    let k_y_r = _mm256_set1_ps(0.299);
    let k_y_g = _mm256_set1_ps(0.587);
    let k_y_b = _mm256_set1_ps(0.114);
    let k_cb_r = _mm256_set1_ps(0.168_735_9);
    let k_cb_g = _mm256_set1_ps(0.331_264_1);
    let k_half = _mm256_set1_ps(0.5);
    let k_cr_g = _mm256_set1_ps(0.418_687_6);
    let k_cr_b = _mm256_set1_ps(0.081_312_4);
    let chunks = n / 8;
    for i in 0..chunks {
        let off = i * 8;
        // All six slices have length `n` (wrapper contract).
        // SAFETY: `off + 8 <= chunks * 8 <= n` keeps every 8-float
        // load/store in bounds; intrinsics are guarded by this fn's ISA.
        unsafe {
            let rv = _mm256_loadu_ps(r.as_ptr().add(off));
            let gv = _mm256_loadu_ps(g.as_ptr().add(off));
            let bv = _mm256_loadu_ps(b.as_ptr().add(off));
            let yv = _mm256_fmadd_ps(k_y_b, bv, _mm256_fmadd_ps(k_y_g, gv, _mm256_mul_ps(k_y_r, rv)));
            let cbv = _mm256_add_ps(
                _mm256_fnmadd_ps(
                    k_cb_r,
                    rv,
                    _mm256_fnmadd_ps(k_cb_g, gv, _mm256_mul_ps(k_half, bv)),
                ),
                c128,
            );
            let crv = _mm256_add_ps(
                _mm256_fnmadd_ps(
                    k_cr_b,
                    bv,
                    _mm256_fnmadd_ps(k_cr_g, gv, _mm256_mul_ps(k_half, rv)),
                ),
                c128,
            );
            _mm256_storeu_ps(
                y.as_mut_ptr().add(off),
                _mm256_min_ps(_mm256_max_ps(yv, zero), cmax),
            );
            _mm256_storeu_ps(
                cb.as_mut_ptr().add(off),
                _mm256_min_ps(_mm256_max_ps(cbv, zero), cmax),
            );
            _mm256_storeu_ps(
                cr.as_mut_ptr().add(off),
                _mm256_min_ps(_mm256_max_ps(crv, zero), cmax),
            );
        }
    }
    let done = chunks * 8;
    rgb_to_ycbcr_rows_scalar(
        &r[done..],
        &g[done..],
        &b[done..],
        &mut y[done..],
        &mut cb[done..],
        &mut cr[done..],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primaries_map_to_standard_luma() {
        let (y, _, _) = rgb_to_ycbcr_pixel(255.0, 0.0, 0.0);
        assert!((y - 76.245).abs() < 0.1);
        let (y, _, _) = rgb_to_ycbcr_pixel(0.0, 255.0, 0.0);
        assert!((y - 149.685).abs() < 0.1);
        let (y, _, _) = rgb_to_ycbcr_pixel(0.0, 0.0, 255.0);
        assert!((y - 29.07).abs() < 0.1);
    }

    #[test]
    fn black_and_white_are_neutral() {
        assert_eq!(rgb_to_ycbcr_pixel(0.0, 0.0, 0.0), (0.0, 128.0, 128.0));
        let (y, cb, cr) = rgb_to_ycbcr_pixel(255.0, 255.0, 255.0);
        assert!((y - 255.0).abs() < 1e-3);
        assert!((cb - 128.0).abs() < 1e-3);
        assert!((cr - 128.0).abs() < 1e-3);
    }

    #[test]
    fn row_kernels_match_pixel_helpers_including_tail() {
        // 37 is deliberately not a multiple of 8: exercises the vector
        // body and the scalar tail in one call.
        let n = 37;
        let mut state = 0x9E37_79B9u32;
        let mut next = move || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 16) as f32 % 256.0
        };
        let y: Vec<f32> = (0..n).map(|_| next()).collect();
        let cb: Vec<f32> = (0..n).map(|_| next()).collect();
        let cr: Vec<f32> = (0..n).map(|_| next()).collect();
        let (mut r, mut g, mut b) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        ycbcr_to_rgb_rows(&y, &cb, &cr, &mut r, &mut g, &mut b);
        for i in 0..n {
            let (er, eg, eb) = ycbcr_to_rgb_pixel(y[i], cb[i], cr[i]);
            assert!((r[i] - er).abs() < 5e-3, "r[{i}] {} vs {er}", r[i]);
            assert!((g[i] - eg).abs() < 5e-3, "g[{i}] {} vs {eg}", g[i]);
            assert!((b[i] - eb).abs() < 5e-3, "b[{i}] {} vs {eb}", b[i]);
        }
        let (mut y2, mut cb2, mut cr2) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        rgb_to_ycbcr_rows(&r, &g, &b, &mut y2, &mut cb2, &mut cr2);
        for i in 0..n {
            let (ey, ecb, ecr) = rgb_to_ycbcr_pixel(r[i], g[i], b[i]);
            assert!((y2[i] - ey).abs() < 5e-3);
            assert!((cb2[i] - ecb).abs() < 5e-3);
            assert!((cr2[i] - ecr).abs() < 5e-3);
        }
    }

    #[test]
    fn row_kernels_saturate_like_the_scalar_path() {
        // Out-of-gamut YCbCr combinations drive R/G/B past [0,255]; both
        // tiers must clamp identically (modulo f32 noise around the rail).
        let y = [0.0f32, 255.0, 255.0, 0.0, 128.0, 255.0, 0.0, 128.0, 255.0];
        let cb = [0.0f32, 255.0, 0.0, 255.0, 255.0, 128.0, 0.0, 0.0, 255.0];
        let cr = [255.0f32, 255.0, 0.0, 0.0, 255.0, 128.0, 128.0, 255.0, 0.0];
        let n = y.len();
        let (mut r, mut g, mut b) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let (mut rs, mut gs, mut bs) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        ycbcr_to_rgb_rows(&y, &cb, &cr, &mut r, &mut g, &mut b);
        ycbcr_to_rgb_rows_scalar(&y, &cb, &cr, &mut rs, &mut gs, &mut bs);
        for i in 0..n {
            assert!((r[i] - rs[i]).abs() < 5e-3);
            assert!((g[i] - gs[i]).abs() < 5e-3);
            assert!((b[i] - bs[i]).abs() < 5e-3);
            for v in [r[i], g[i], b[i]] {
                assert!((0.0..=255.0).contains(&v), "unclamped {v}");
            }
        }
    }

    #[test]
    fn force_scalar_pins_the_scalar_tier() {
        simd_force_scalar(true);
        assert_eq!(simd_tier_name(), "scalar");
        simd_force_scalar(false);
    }

    #[test]
    fn round_trip_all_grid() {
        for r in (0..=255).step_by(51) {
            for g in (0..=255).step_by(51) {
                for b in (0..=255).step_by(51) {
                    let (y, cb, cr) = rgb_to_ycbcr_pixel(r as f32, g as f32, b as f32);
                    let (r2, g2, b2) = ycbcr_to_rgb_pixel(y, cb, cr);
                    assert!((r as f32 - r2).abs() < 1.0, "r {r} {g} {b}");
                    assert!((g as f32 - g2).abs() < 1.0, "g {r} {g} {b}");
                    assert!((b as f32 - b2).abs() < 1.0, "b {r} {g} {b}");
                }
            }
        }
    }
}

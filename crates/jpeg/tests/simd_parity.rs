//! Property-based parity of the runtime-dispatched SIMD kernels against
//! their scalar tiers.
//!
//! On an AVX2 host these pin the vector iDCT and the table-accelerated
//! Huffman decoder to the scalar oracles over random inputs (including
//! saturation extremes), and the encoder's gather → fDCT → quantise pass
//! to a copy of the per-pixel loop it replaced, level for level. On a
//! scalar-only host dispatch returns the oracle itself and the
//! properties hold trivially.

#![expect(
    clippy::disallowed_types,
    reason = "TIER serialises this test binary's properties; it is no product lock and has no rank"
)]

use std::sync::{Mutex, MutexGuard, PoisonError};

use dcdiff_image::{ColorSpace, Image, Plane};
use dcdiff_jpeg::bitstream::{BitReader, BitWriter};
use dcdiff_jpeg::dct::{fdct, idct, idct_scalar};
use dcdiff_jpeg::huffman::HuffmanTable;
use dcdiff_jpeg::quant::QuantTable;
use dcdiff_jpeg::simd::force_scalar;
use dcdiff_jpeg::{ChromaSampling, CoeffImage, CoeffPlane, BLOCK, BLOCK_AREA};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn coeff_block(limit: f32) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-limit..limit, BLOCK_AREA)
}

/// `force_scalar` is process-wide. Every property that runs a dispatched
/// kernel holds this lock, so the forced-scalar run below can never
/// swap the scalar tier in under another property's "dispatched" side.
static TIER: Mutex<()> = Mutex::new(());

fn tier_lock() -> MutexGuard<'static, ()> {
    TIER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pins the scalar tier until dropped, so a failing case cannot leave
/// it pinned.
struct ForcedScalar;

impl ForcedScalar {
    fn pin() -> Self {
        force_scalar(true);
        ForcedScalar
    }
}

impl Drop for ForcedScalar {
    fn drop(&mut self) {
        force_scalar(false);
    }
}

/// The forward transform as it was before the fused pass: copy the
/// plane padded by edge replication (`crop_clamped`), read every sample
/// with `get`, then the scalar `fdct` and `QuantTable::quantize`.
fn reference_plane(
    plane: &Plane,
    qtable: &QuantTable,
    align_x: usize,
    align_y: usize,
) -> CoeffPlane {
    let (width, height) = plane.dims();
    let pw = width.div_ceil(align_x) * align_x;
    let ph = height.div_ceil(align_y) * align_y;
    let padded = plane.crop_clamped(0, 0, pw, ph);
    let mut out = CoeffPlane::zeros(pw / BLOCK, ph / BLOCK, width, height);
    let mut samples = [0.0f32; BLOCK_AREA];
    for by in 0..ph / BLOCK {
        for bx in 0..pw / BLOCK {
            for y in 0..BLOCK {
                for x in 0..BLOCK {
                    samples[y * BLOCK + x] = padded.get(bx * BLOCK + x, by * BLOCK + y) - 128.0;
                }
            }
            *out.block_mut(bx, by) = qtable.quantize(&fdct(&samples));
        }
    }
    out
}

/// Chroma downsampling as `CoeffImage::from_image` does it: 2× box filter
/// over clamped neighbours, horizontally (4:2:2) or both ways (4:2:0).
fn downsample(plane: &Plane, vertical: bool) -> Plane {
    let w2 = plane.width().div_ceil(2);
    if !vertical {
        return Plane::from_fn(w2, plane.height(), |x, y| {
            let x0 = (2 * x) as isize;
            (plane.get_clamped(x0, y as isize) + plane.get_clamped(x0 + 1, y as isize)) / 2.0
        });
    }
    Plane::from_fn(w2, plane.height().div_ceil(2), |x, y| {
        let x0 = (2 * x) as isize;
        let y0 = (2 * y) as isize;
        (plane.get_clamped(x0, y0)
            + plane.get_clamped(x0 + 1, y0)
            + plane.get_clamped(x0, y0 + 1)
            + plane.get_clamped(x0 + 1, y0 + 1))
            / 4.0
    })
}

/// `CoeffImage::from_image` rebuilt on [`reference_plane`].
fn reference_coefficients(image: &Image, quality: u8, sampling: ChromaSampling) -> CoeffImage {
    let (width, height) = image.dims();
    let ql = QuantTable::luma(quality);
    if image.color_space() == ColorSpace::Gray {
        let luma = reference_plane(image.plane(0), &ql, BLOCK, BLOCK);
        return CoeffImage::from_parts(vec![luma], vec![ql], ChromaSampling::Cs444, width, height);
    }
    let qc = QuantTable::chroma(quality);
    let ycbcr = image.to_ycbcr();
    let (luma_align, chroma) = match sampling {
        ChromaSampling::Cs444 => ((BLOCK, BLOCK), None),
        ChromaSampling::Cs422 => ((2 * BLOCK, BLOCK), Some(false)),
        ChromaSampling::Cs420 => ((2 * BLOCK, 2 * BLOCK), Some(true)),
    };
    let mut planes = vec![reference_plane(
        ycbcr.plane(0),
        &ql,
        luma_align.0,
        luma_align.1,
    )];
    for c in 1..3 {
        let plane = match chroma {
            None => ycbcr.plane(c).clone(),
            Some(vertical) => downsample(ycbcr.plane(c), vertical),
        };
        planes.push(reference_plane(&plane, &qc, BLOCK, BLOCK));
    }
    CoeffImage::from_parts(planes, vec![ql, qc.clone(), qc], sampling, width, height)
}

/// A `w`×`h` test image. The content mode varies what the quantiser
/// sees: continuous noise, integer-valued noise (whose coefficients
/// land on exact halves far more often) and noise over just four levels
/// (0, 127, 128, 255), extremes included.
fn test_image(gray: bool, w: usize, h: usize, mode: u8, seed: u64) -> Image {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plane = || {
        Plane::from_fn(w, h, |_, _| match mode {
            0 => rng.gen_range(0.0f32..=255.0),
            1 => rng.gen_range(0u8..=255) as f32,
            _ => [0.0, 127.0, 128.0, 255.0][rng.gen_range(0usize..4)],
        })
    };
    if gray {
        Image::from_gray(plane())
    } else {
        let planes = vec![plane(), plane(), plane()];
        Image::from_planes(planes, ColorSpace::Rgb).expect("three equal planes")
    }
}

/// One transform-parity case: gray or RGB, chroma sampling, size (1–70
/// a side, so non-multiples of 8 and 16), quality, content mode, seed.
type TransformCase = (bool, ChromaSampling, (usize, usize), u8, u8, u64);

fn transform_case() -> impl Strategy<Value = TransformCase> {
    let sampling = prop::sample::select(vec![
        ChromaSampling::Cs444,
        ChromaSampling::Cs422,
        ChromaSampling::Cs420,
    ]);
    (
        any::<bool>(),
        sampling,
        (1usize..=70, 1usize..=70),
        1u8..=100,
        0u8..3,
        any::<u64>(),
    )
}

/// `CoeffImage::from_image` must equal [`reference_coefficients`] at
/// whatever tier is in force. Colour conversion is tiered as well (its
/// AVX2 kernel uses FMA), so both sides convert under the same tier.
fn transform_matches(case: TransformCase) -> Result<(), TestCaseError> {
    let (gray, sampling, (w, h), quality, mode, seed) = case;
    let image = test_image(gray, w, h, mode, seed);
    let expected = reference_coefficients(&image, quality, sampling);
    let actual = CoeffImage::from_image(&image, quality, sampling);
    prop_assert!(
        actual == expected,
        "{w}x{h} gray={gray} {sampling} Q{quality} mode {mode}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dispatched_idct_matches_scalar(block in coeff_block(2048.0)) {
        let _tier = tier_lock();
        let mut coeffs = [0.0f32; BLOCK_AREA];
        coeffs.copy_from_slice(&block);
        let fast = idct(&coeffs);
        let slow = idct_scalar(&coeffs);
        for i in 0..BLOCK_AREA {
            let tol = 1e-3f32.max(slow[i].abs() * 1e-5);
            prop_assert!(
                (fast[i] - slow[i]).abs() < tol,
                "sample {}: {} vs {}", i, fast[i], slow[i]
            );
        }
    }

    #[test]
    fn dispatched_idct_matches_scalar_at_quantiser_extremes(
        signs in proptest::collection::vec(any::<bool>(), BLOCK_AREA)
    ) {
        let _tier = tier_lock();
        // |level| * qstep for the coarsest Annex-K quantisers tops out
        // around 16k; random sign patterns at that magnitude stress
        // cancellation in both tiers.
        let mut coeffs = [0.0f32; BLOCK_AREA];
        for (c, s) in coeffs.iter_mut().zip(&signs) {
            *c = if *s { 16320.0 } else { -16320.0 };
        }
        let fast = idct(&coeffs);
        let slow = idct_scalar(&coeffs);
        for i in 0..BLOCK_AREA {
            let tol = 1e-2 * slow[i].abs().max(1.0);
            prop_assert!((fast[i] - slow[i]).abs() < tol);
        }
    }

    #[test]
    fn table_decode_matches_bitwise(
        picks in proptest::collection::vec(any::<u16>(), 1..512),
        cut_frac in 0.0f64..1.0,
    ) {
        // Random symbol streams (all four Annex-K tables), decoded in
        // full and after a random truncation, must agree between the LUT
        // and bit-by-bit tiers.
        let _tier = tier_lock();
        for t in [
            HuffmanTable::dc_luma(),
            HuffmanTable::dc_chroma(),
            HuffmanTable::ac_luma(),
            HuffmanTable::ac_chroma(),
        ] {
            let pool = t.vals();
            let mut w = BitWriter::new();
            for &p in &picks {
                t.encode(&mut w, pool[p as usize % pool.len()]).unwrap();
            }
            let bytes = w.finish();
            let keep = ((bytes.len() as f64) * cut_frac) as usize;
            for stream in [&bytes[..], &bytes[..keep]] {
                let mut fast = BitReader::new(stream);
                let mut slow = BitReader::new(stream);
                loop {
                    let a = t.decode(&mut fast);
                    let b = t.decode_bitwise(&mut slow);
                    prop_assert_eq!(a, b);
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }
}

proptest! {
    // Each case covers every block of a whole image, and a missed tie or
    // reordered sum shows as a level off by one, so cases are cheap and
    // plentiful.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dispatched_transform_matches_the_per_pixel_loop(case in transform_case()) {
        let _tier = tier_lock();
        transform_matches(case)?;
    }

    #[test]
    fn forced_scalar_transform_matches_the_per_pixel_loop(case in transform_case()) {
        let _tier = tier_lock();
        let _scalar = ForcedScalar::pin();
        transform_matches(case)?;
    }
}

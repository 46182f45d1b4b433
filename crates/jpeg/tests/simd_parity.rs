//! Property-based parity of the runtime-dispatched SIMD kernels against
//! their scalar tiers.
//!
//! On an AVX2 host these pin the vector iDCT and the table-accelerated
//! Huffman decoder to the scalar oracles over random inputs (including
//! saturation extremes), and the encoder's gather → fDCT → quantise pass
//! to a copy of the per-pixel loop it replaced, level for level. On a
//! scalar-only host dispatch returns the oracle itself and the
//! properties hold trivially.
//!
//! The decoder's band loop and its one-value decode of blocks without AC
//! levels are pinned in each tier the host has, bit for bit: against a
//! copy of the whole-plane decode they replaced, and, for its PPM and PGM
//! bytes, against `write_ppm` and `write_pgm` of that copy's image.

#![expect(
    clippy::disallowed_types,
    reason = "TIER serialises this test binary's properties; it is no product lock and has no rank"
)]

use std::sync::{Mutex, MutexGuard, PoisonError};

use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_image::{write_pgm, write_ppm, ycbcr_to_rgb_rows, ColorSpace, Image, Plane, PnmFormat};
use dcdiff_jpeg::bitstream::{BitReader, BitWriter};
use dcdiff_jpeg::dct::{fdct, idct, idct_dc_only, idct_scalar};
use dcdiff_jpeg::huffman::HuffmanTable;
use dcdiff_jpeg::quant::{QuantTable, CHROMA_BASE, LUMA_BASE};
use dcdiff_jpeg::simd::force_scalar;
use dcdiff_jpeg::{ChromaSampling, CoeffImage, CoeffPlane, DcDropMode, BLOCK, BLOCK_AREA};
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

/// The pixel decode as it was before the band decoder: every block
/// through [`idct`] into a padded plane, cropped; chroma upsampled to the
/// image by nearest neighbour (`upsample2` / `upsample_horizontal`); then
/// converted one whole row at a time (`Image::into_rgb`).
fn reference_decode(coeffs: &CoeffImage, dc: &[Vec<i32>]) -> Image {
    let planes: Vec<Plane> = (0..coeffs.channels())
        .map(|c| {
            let (p, q) = (coeffs.plane(c), coeffs.qtable(c));
            let mut out = Plane::new(p.blocks_x() * BLOCK, p.blocks_y() * BLOCK);
            for by in 0..p.blocks_y() {
                for bx in 0..p.blocks_x() {
                    let level = dc[c][by * p.blocks_x() + bx];
                    let samples = idct(&q.dequantize_with_dc(p.block(bx, by), level));
                    for (i, &s) in samples.iter().enumerate() {
                        let (x, y) = (bx * BLOCK + i % BLOCK, by * BLOCK + i / BLOCK);
                        out.set(x, y, (s + 128.0).clamp(0.0, 255.0));
                    }
                }
            }
            out.crop_to(p.width(), p.height())
        })
        .collect();
    let mut planes = planes.into_iter();
    let luma = planes.next().expect("at least one component");
    let (Some(cb), Some(cr)) = (planes.next(), planes.next()) else {
        return Image::from_gray(luma);
    };
    let (w, h) = (coeffs.width(), coeffs.height());
    let (sx, sy) = match coeffs.sampling() {
        ChromaSampling::Cs444 => (1, 1),
        ChromaSampling::Cs422 => (2, 1),
        ChromaSampling::Cs420 => (2, 2),
    };
    let up = |p: &Plane| {
        Plane::from_fn(w, h, |x, y| p.get_clamped((x / sx) as isize, (y / sy) as isize))
    };
    let (cb, cr) = (up(&cb), up(&cr));
    let (mut r, mut g, mut b) = (Plane::new(w, h), Plane::new(w, h), Plane::new(w, h));
    for y in 0..h {
        let (ry, gy, by) = (r.row_mut(y), g.row_mut(y), b.row_mut(y));
        ycbcr_to_rgb_rows(luma.row(y), cb.row(y), cr.row(y), ry, gy, by);
    }
    Image::from_planes(vec![r, g, b], ColorSpace::Rgb).expect("three equal planes")
}

fn image_bits(image: &Image) -> Vec<Vec<u32>> {
    image.planes().iter().map(|p| p.as_slice().iter().map(|v| v.to_bits()).collect()).collect()
}

/// Each layout and size of the band-decoder cases, DC-dropped at Q30, with
/// the AC levels of every fourth block cleared so blocks with and without
/// AC levels sit side by side.
fn band_cases() -> Vec<(String, CoeffImage)> {
    let layouts = [
        ("gray", None),
        ("4:4:4", Some(ChromaSampling::Cs444)),
        ("4:2:2", Some(ChromaSampling::Cs422)),
        ("4:2:0", Some(ChromaSampling::Cs420)),
    ];
    let mut cases = Vec::new();
    for (i, (w, h)) in [(7, 5), (37, 53), (129, 67), (513, 9), (64, 64)].into_iter().enumerate() {
        let kind = [SceneKind::Urban, SceneKind::Natural, SceneKind::Texture][i % 3];
        let scene = SceneGenerator::new(kind, w.max(16), h.max(16)).generate(i as u64).crop_to(w, h);
        for (layout, sampling) in layouts {
            let mut coeffs = match sampling {
                Some(sampling) => CoeffImage::from_image(&scene, 30, sampling),
                None => CoeffImage::from_image(&scene.to_gray(), 30, ChromaSampling::Cs444),
            }
            .drop_dc(DcDropMode::KeepCorners);
            for c in 0..coeffs.channels() {
                let plane = coeffs.plane_mut(c);
                for by in 0..plane.blocks_y() {
                    for bx in (by % 4..plane.blocks_x()).step_by(4) {
                        plane.block_mut(bx, by)[1..].fill(0);
                    }
                }
            }
            cases.push((format!("{layout} {w}x{h}"), coeffs));
        }
    }
    cases
}

/// The stream's own DC levels, and substituted ones spanning the clamp.
fn level_sets(coeffs: &CoeffImage) -> [Vec<Vec<i32>>; 2] {
    let own = coeffs.dc_levels();
    let mut rng = StdRng::seed_from_u64(7);
    let substituted = own.iter().map(|l| l.iter().map(|_| rng.gen_range(-90..90)).collect()).collect();
    [own, substituted]
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dcdiff-simd-parity-{}-{name}", std::process::id()))
}

/// The band decoder, as `to_image_with_dc` and as the streamed PPM and
/// PGM writer, against [`reference_decode`] and its `write_ppm` /
/// `write_pgm` bytes, at the tier in force.
fn band_decode_matches_the_reference() {
    let (ppm, pgm) = (temp_path("reference.ppm"), temp_path("reference.pgm"));
    for (case, coeffs) in band_cases() {
        for (set, dc) in level_sets(&coeffs).iter().enumerate() {
            let reference = reference_decode(&coeffs, dc);
            let decoded = coeffs.to_image_with_dc(dc);
            assert_eq!(decoded.color_space(), reference.color_space(), "{case} set {set}");
            assert!(image_bits(&decoded) == image_bits(&reference), "{case} set {set}: pixels");
            write_ppm(&ppm, &reference).unwrap();
            write_pgm(&pgm, &reference).unwrap();
            for (format, path) in [(PnmFormat::Ppm, &ppm), (PnmFormat::Pgm, &pgm)] {
                let mut streamed = Vec::new();
                coeffs.write_pnm_with_dc(dc, format, &mut streamed).unwrap();
                assert!(streamed == std::fs::read(path).unwrap(), "{case} set {set}: {format:?}");
            }
        }
    }
    std::fs::remove_file(&ppm).ok();
    std::fs::remove_file(&pgm).ok();
}

#[test]
fn dispatched_band_decode_matches_the_whole_plane_decode() {
    let _tier = tier_lock();
    band_decode_matches_the_reference();
}

#[test]
fn forced_scalar_band_decode_matches_the_whole_plane_decode() {
    let _tier = tier_lock();
    let _scalar = ForcedScalar::pin();
    band_decode_matches_the_reference();
}

/// A colour stream written as PGM converts each band's RGB samples to
/// luma as one run, as `write_pgm` converts the whole image
/// (`Image::to_gray`). At width 9 a band is 72 samples, so every sample
/// takes the AVX2 kernel either way, while converting row by row would
/// send column 8 to the scalar tail. The fixture makes that show in the
/// bytes: neutral chroma, so R = G = B = Y exactly, and column 8 at every
/// luma within an ulp or two of `k + 0.5` (`q = 1`, AC-free blocks), where
/// the fused and the plain luma sums round to different bytes.
#[test]
fn colour_pgm_converts_each_band_as_one_run() {
    let _tier = tier_lock();
    let rows = 256;
    let (w, h) = (9, rows * BLOCK);
    let mut luma = CoeffPlane::zeros(2, rows, w, h);
    for by in 0..rows {
        luma.set_dc(1, by, 8 * (by as i32 - 128) + 4);
    }
    let chroma = || CoeffPlane::zeros(2, rows, w, h);
    let (ql, qc) = (QuantTable::luma(100), QuantTable::chroma(100));
    let tables = vec![ql, qc.clone(), qc];
    let coeffs =
        CoeffImage::from_parts(vec![luma, chroma(), chroma()], tables, ChromaSampling::Cs444, w, h);
    let image = coeffs.to_image();
    // The fixture can tell the two conversions apart on this host.
    let byte = |y: f32| (f64::from(y.clamp(0.0, 255.0)) + 0.5) as u8;
    let parts = |x: usize, y: usize| [0, 1, 2].map(|c| image.plane(c).get(x, y));
    let split = (0..h).filter(|&y| {
        let [r, g, b] = parts(8, y);
        let plain = 0.299 * r + 0.587 * g + 0.114 * b;
        let fused = 0.114f32.mul_add(b, 0.587f32.mul_add(g, 0.299 * r));
        byte(plain) != byte(fused)
    });
    assert!(split.count() > 0, "no column-8 luma rounds apart under the two sums");
    let path = temp_path("band-run.pgm");
    write_pgm(&path, &image).unwrap();
    let mut streamed = Vec::new();
    coeffs.write_pnm_with_dc(&coeffs.dc_levels(), PnmFormat::Pgm, &mut streamed).unwrap();
    assert!(streamed == std::fs::read(&path).unwrap(), "streamed PGM differs from write_pgm");
    std::fs::remove_file(&path).ok();
}

/// `idct_dc_only(d)` is every sample of [`idct`] of the block whose only
/// coefficient is `d`, after the +128 shift, for `d = level · q0` at every
/// level in ±2¹⁵ and the Annex-K base tables' `q0`s plus 1 and 255.
fn dc_only_matches_idct() {
    for q0 in [1, i32::from(LUMA_BASE[0]), i32::from(CHROMA_BASE[0]), 255] {
        for level in -(1 << 15)..(1 << 15) {
            let d = (level * q0) as f32;
            let mut block = [0.0f32; BLOCK_AREA];
            block[0] = d;
            let one = (idct_dc_only(d) + 128.0).to_bits();
            for (i, &s) in idct(&block).iter().enumerate() {
                assert_eq!(one, (s + 128.0).to_bits(), "level {level} q0 {q0} sample {i}");
            }
        }
    }
}

#[test]
fn dispatched_idct_dc_only_is_every_sample_of_the_dc_only_idct() {
    let _tier = tier_lock();
    dc_only_matches_idct();
}

#[test]
fn forced_scalar_idct_dc_only_is_every_sample_of_the_dc_only_idct() {
    let _tier = tier_lock();
    let _scalar = ForcedScalar::pin();
    dc_only_matches_idct();
}

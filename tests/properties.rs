//! Workspace-level property-based tests over the core data paths:
//! arbitrary pixel content must survive the transform, entropy-coding and
//! recovery machinery without panics and with the documented invariants.

use proptest::prelude::*;

use dcdiff::image::{ColorSpace, Image, Plane};
use dcdiff::jpeg::bitstream::{magnitude_code, magnitude_decode};
use dcdiff::jpeg::dct::{fdct, idct};
use dcdiff::jpeg::quant::QuantTable;
use dcdiff::jpeg::zigzag::{from_zigzag, to_zigzag};
use dcdiff::jpeg::{encode_coefficients, ChromaSampling, CoeffImage, DcDropMode, JpegDecoder};

fn arbitrary_image(max_blocks: usize) -> impl Strategy<Value = Image> {
    (1usize..=max_blocks, 1usize..=max_blocks, any::<u64>()).prop_map(|(bw, bh, seed)| {
        let (w, h) = (bw * 8, bh * 8);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 256) as f32
        };
        Image::from_planes(
            vec![
                Plane::from_fn(w, h, |_, _| next()),
                Plane::from_fn(w, h, |_, _| next()),
                Plane::from_fn(w, h, |_, _| next()),
            ],
            ColorSpace::Rgb,
        )
        .expect("planes share dimensions")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DCT round trip is lossless to numerical precision for any block.
    #[test]
    fn dct_round_trip(values in proptest::collection::vec(-128.0f32..=127.0, 64)) {
        let mut block = [0.0f32; 64];
        block.copy_from_slice(&values);
        let back = idct(&fdct(&block));
        for i in 0..64 {
            prop_assert!((block[i] - back[i]).abs() < 1e-2);
        }
    }

    /// Zig-zag reordering is a bijection for arbitrary data.
    #[test]
    fn zigzag_bijection(values in proptest::collection::vec(any::<i32>(), 64)) {
        let mut block = [0i32; 64];
        block.copy_from_slice(&values);
        prop_assert_eq!(from_zigzag(&to_zigzag(&block)), block);
    }

    /// Magnitude coding inverts for the full baseline coefficient range.
    #[test]
    fn magnitude_coding_inverts(v in -32_768i32..=32_767) {
        let (size, bits) = magnitude_code(v);
        prop_assert!(size <= 16);
        prop_assert_eq!(magnitude_decode(size, bits), v);
    }

    /// Quantisation error is bounded by half the quantiser step.
    #[test]
    fn quantisation_error_bounded(
        values in proptest::collection::vec(-1000.0f32..=1000.0, 64),
        quality in 1u8..=100,
    ) {
        let mut block = [0.0f32; 64];
        block.copy_from_slice(&values);
        let table = QuantTable::luma(quality);
        let back = table.dequantize(&table.quantize(&block));
        for i in 0..64 {
            prop_assert!(
                (back[i] - block[i]).abs() <= 0.5 * table.values()[i] as f32 + 1e-3,
                "coeff {}: {} -> {}", i, block[i], back[i]
            );
        }
    }

    /// Entropy coding is lossless for arbitrary image content, and the
    /// full decode stays within the quantisation error bound.
    #[test]
    fn entropy_round_trip_any_content(image in arbitrary_image(4), quality in 5u8..=95) {
        let coeffs = CoeffImage::from_image(&image, quality, ChromaSampling::Cs444);
        let bytes = encode_coefficients(&coeffs).expect("encodable");
        let decoded = JpegDecoder::decode_coefficients(&bytes).expect("decodable");
        for c in 0..3 {
            prop_assert_eq!(coeffs.plane(c), decoded.plane(c));
        }
    }

    /// DC dropping never touches AC; zeroing *all* DC levels never grows
    /// the stream (a zero differential is the cheapest DC symbol). Keeping
    /// corner anchors can add a few bytes on pathological noise images —
    /// the realistic-content saving is asserted by the integration test
    /// `dc_drop_always_saves_bytes`.
    #[test]
    fn dc_drop_invariants(image in arbitrary_image(4)) {
        let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
        let dropped_all = coeffs.clone().drop_dc(DcDropMode::All);
        let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
        let full = encode_coefficients(&coeffs).expect("encodable").len();
        let small = encode_coefficients(&dropped_all).expect("encodable").len();
        // A zero differential is the cheapest DC symbol, but zeroing DC also
        // shifts the bit alignment of every following AC codeword, which can
        // create (or remove) 0xFF bytes that need a stuffed 0x00 — so allow a
        // small stuffing-sized slack instead of strict monotonicity.
        let slack = 2 + full / 64;
        prop_assert!(
            small <= full + slack,
            "all-drop grew the stream beyond stuffing slack: {} > {} + {}",
            small,
            full,
            slack
        );
        for c in 0..3 {
            for by in 0..coeffs.plane(c).blocks_y() {
                for bx in 0..coeffs.plane(c).blocks_x() {
                    prop_assert_eq!(
                        &coeffs.plane(c).block(bx, by)[1..],
                        &dropped.plane(c).block(bx, by)[1..]
                    );
                    prop_assert_eq!(
                        &coeffs.plane(c).block(bx, by)[1..],
                        &dropped_all.plane(c).block(bx, by)[1..]
                    );
                }
            }
        }
    }

    /// Recovery methods are total: any content in, valid image out with
    /// the original dimensions.
    #[test]
    fn recovery_is_total(image in arbitrary_image(3)) {
        use dcdiff::baselines::{DcRecovery, Icip2022, SmartCom2019, Tip2006};
        let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
        let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
        for method in [
            Box::new(Tip2006::new()) as Box<dyn DcRecovery>,
            Box::new(SmartCom2019::new()),
            Box::new(Icip2022::new()),
        ] {
            let out = method.recover(&dropped);
            prop_assert_eq!(out.dims(), image.dims());
            for c in 0..3 {
                prop_assert!(out.plane(c).min() >= 0.0);
                prop_assert!(out.plane(c).max() <= 255.0);
            }
        }
    }

    /// The Eq. 3 mask coverage is monotone in the threshold.
    #[test]
    fn mask_coverage_monotone(image in arbitrary_image(3), t1 in 0.0f32..20.0, t2 in 0.0f32..20.0) {
        use dcdiff::core::mask::{high_frequency_mask, mask_coverage};
        let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
        let x_tilde = coeffs.drop_dc(DcDropMode::All).to_image();
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let c_lo = mask_coverage(&high_frequency_mask(&x_tilde, lo));
        let c_hi = mask_coverage(&high_frequency_mask(&x_tilde, hi));
        prop_assert!(c_lo <= c_hi + 1e-6);
    }
}

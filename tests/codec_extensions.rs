//! Integration tests for the codec extensions (optimised Huffman tables,
//! restart markers, 4:2:0) composed with the DC-drop pipeline.

use dcdiff::baselines::{DcRecovery, Icip2022};
use dcdiff::data::{SceneGenerator, SceneKind};
use dcdiff::jpeg::quant::QuantTable;
use dcdiff::jpeg::{
    encode_coefficients, encode_coefficients_optimized, encode_coefficients_with_restarts,
    ChromaSampling, CoeffImage, CoeffPlane, DcDropMode, JpegDecoder, JpegEncoder, JpegErrorKind,
};
use dcdiff::metrics::psnr;

#[test]
fn optimized_tables_compound_with_dc_dropping() {
    let image = SceneGenerator::new(SceneKind::Natural, 96, 96).generate(5);
    let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
    let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);

    let standard_full = encode_coefficients(&coeffs).unwrap().len();
    let standard_dropped = encode_coefficients(&dropped).unwrap().len();
    let optimized_dropped = encode_coefficients_optimized(&dropped).unwrap().len();

    assert!(standard_dropped < standard_full, "dropping saves");
    assert!(
        optimized_dropped <= standard_dropped,
        "optimisation must not grow the dropped stream"
    );

    // and recovery still works off the optimised stream
    let bytes = encode_coefficients_optimized(&dropped).unwrap();
    let received = JpegDecoder::decode_coefficients(&bytes).unwrap();
    let reference = coeffs.to_image();
    let recovered = Icip2022::new().recover(&received);
    assert!(psnr(&reference, &recovered) > 20.0);
}

#[test]
fn restart_markers_survive_the_drop_pipeline() {
    let image = SceneGenerator::new(SceneKind::Urban, 96, 96).generate(6);
    let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
    let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
    let bytes = encode_coefficients_with_restarts(&dropped, 3).unwrap();
    let received = JpegDecoder::decode_coefficients(&bytes).unwrap();
    for c in 0..3 {
        assert_eq!(received.plane(c), dropped.plane(c));
    }
}

#[test]
fn recovery_works_under_chroma_subsampling() {
    let image = SceneGenerator::new(SceneKind::Smooth, 96, 96).generate(7);
    let enc = JpegEncoder::new(50).with_sampling(ChromaSampling::Cs420);
    let coeffs = enc.to_coefficients(&image);
    let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
    let reference = coeffs.to_image();
    let none = psnr(&reference, &dropped.to_image());
    let recovered = psnr(&reference, &Icip2022::new().recover(&dropped));
    assert!(
        recovered > none + 5.0,
        "4:2:0 recovery {recovered} vs none {none}"
    );
}

#[test]
fn masked_refinement_works_on_optimized_subsampled_streams() {
    // the full stack: 4:2:0 + DC drop + optimised tables + MLD refinement
    let image = SceneGenerator::new(SceneKind::Aerial, 96, 96).generate(8);
    let enc = JpegEncoder::new(50).with_sampling(ChromaSampling::Cs420);
    let coeffs = enc.to_coefficients(&image);
    let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
    let bytes = encode_coefficients_optimized(&dropped).unwrap();
    let received = JpegDecoder::decode_coefficients(&bytes).unwrap();
    let refined = dcdiff::core::refine_dc_offsets(&received, &received, 10.0, 5e-4, 200);
    let reference = coeffs.to_image();
    let none = psnr(&reference, &dropped.to_image());
    let got = psnr(&reference, &refined.to_image());
    assert!(got > none + 4.0, "refined {got} vs none {none}");
}

#[test]
fn encoder_variants_agree_on_decoded_pixels() {
    let image = SceneGenerator::new(SceneKind::Texture, 64, 64).generate(9);
    let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
    let a = JpegDecoder::decode(&encode_coefficients(&coeffs).unwrap()).unwrap();
    let b = JpegDecoder::decode(&encode_coefficients_optimized(&coeffs).unwrap()).unwrap();
    let c = JpegDecoder::decode(&encode_coefficients_with_restarts(&coeffs, 2).unwrap()).unwrap();
    assert!(a.mean_abs_diff(&b) < 1e-6, "optimised stream changes pixels");
    assert!(a.mean_abs_diff(&c) < 1e-6, "restart stream changes pixels");
}

/// One committed fixture per fault class (see `crates/faults`); regenerate
/// with `cargo run -p dcdiff-faults --bin fault_fixtures -- tests/fixtures/faults`.
#[test]
fn annex_k_encoders_report_a_level_their_tables_cannot_code() {
    // A 16×16 gray stream with one AC level of 2000 (magnitude category
    // 11), written with optimised tables: valid, and it decodes. The
    // Annex-K AC tables stop at category 10, so re-encoding it with them
    // must be a typed error naming the symbol, not a panic.
    let mut plane = CoeffPlane::zeros(2, 2, 16, 16);
    plane.block_mut(0, 0)[1] = 2000;
    let coeffs = CoeffImage::from_parts(
        vec![plane],
        vec![QuantTable::luma(50)],
        ChromaSampling::Cs444,
        16,
        16,
    );
    let stream = encode_coefficients_optimized(&coeffs).unwrap();
    let decoded = JpegDecoder::decode_coefficients(&stream).unwrap();
    assert_eq!(decoded, coeffs);
    for err in [
        encode_coefficients(&decoded).unwrap_err(),
        encode_coefficients_with_restarts(&decoded, 1).unwrap_err(),
    ] {
        assert_eq!(err.kind(), JpegErrorKind::Unsupported);
        assert!(err.detail().contains("0x0b"), "{err}");
    }
    let reencoded = encode_coefficients_optimized(&decoded).unwrap();
    assert_eq!(
        JpegDecoder::decode_coefficients(&reencoded).unwrap(),
        coeffs
    );
}

fn fault_fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/faults/{name}.jpg", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn committed_fault_fixtures_stay_typed_errors() {
    // Pins the decoder-hardening contract outside proptest: each fixture is
    // a real corrupted stream that must keep failing with a typed,
    // correctly-classified error — never a panic, never Internal.
    use dcdiff::jpeg::JpegErrorKind;
    use dcdiff_faults::FaultClass;
    for (class, expect_kind) in [
        (FaultClass::MarkerTruncation, Some(JpegErrorKind::Truncated)),
        (FaultClass::ScanTruncation, Some(JpegErrorKind::Truncated)),
        (FaultClass::BitFlip, None),
        (FaultClass::LengthCorruption, None),
    ] {
        let bytes = fault_fixture(&class.to_string());
        let err = JpegDecoder::decode(&bytes)
            .expect_err(&format!("{class} fixture must not decode"));
        assert_ne!(err.kind(), JpegErrorKind::Internal, "{class}: {err}");
        if let Some(kind) = expect_kind {
            assert_eq!(err.kind(), kind, "{class}: {err}");
        }
    }
}

#[test]
fn fault_fixtures_match_their_generator() {
    // The fixtures are deterministic outputs of the generator bin; drift
    // between the committed bytes and the generator means one of them
    // changed silently.
    use dcdiff_faults::{corpus, reference_stream, FaultClass};
    let bytes = reference_stream(48, 32, 50).unwrap();
    let sos = bytes.windows(2).position(|w| w == [0xFF, 0xDA]).unwrap();
    assert_eq!(fault_fixture("marker-truncation"), &bytes[..sos]);
    for class in [
        FaultClass::ScanTruncation,
        FaultClass::BitFlip,
        FaultClass::LengthCorruption,
    ] {
        let case = corpus(&bytes, 0xF1C5, 120)
            .into_iter()
            .find(|c| c.class == class && JpegDecoder::decode(&c.bytes).is_err())
            .unwrap();
        assert_eq!(fault_fixture(&class.to_string()), case.bytes, "{class}");
    }
}

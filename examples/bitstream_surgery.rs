//! Bitstream surgery: losslessly transform an existing JPEG file into its
//! DC-dropped form — no pixel re-encode, no generation loss.
//!
//! This is exactly what a bandwidth-constrained relay (or the camera's
//! own firmware) would do: decode the entropy layer only, zero the DC
//! levels, re-code. The AC coefficients are bit-identical before and
//! after; a DC thumbnail shows what information left the stream.
//!
//! Run: `cargo run --release --example bitstream_surgery`

use dcdiff::data::{SceneGenerator, SceneKind};
use dcdiff::image::write_ppm;
use dcdiff::jpeg::{
    encode_coefficients, encode_coefficients_optimized, DcDropMode, JpegDecoder, JpegEncoder,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // stand-in for "an existing JPEG file on disk"
    let scene = SceneGenerator::new(SceneKind::Natural, 128, 96).generate(2024);
    let original_file = JpegEncoder::new(50).encode(&scene)?;
    println!("input JPEG: {} bytes", original_file.len());

    // --- the surgery: entropy-decode, drop DC, entropy-encode ---
    let coeffs = JpegDecoder::decode_coefficients(&original_file)?;
    let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
    let surgered = encode_coefficients(&dropped)?;
    let surgered_opt = encode_coefficients_optimized(&dropped)?;
    println!(
        "DC-dropped:  {} bytes ({:.1}% of input)",
        surgered.len(),
        100.0 * surgered.len() as f64 / original_file.len() as f64
    );
    println!(
        "  + optimised Huffman tables: {} bytes ({:.1}%)",
        surgered_opt.len(),
        100.0 * surgered_opt.len() as f64 / original_file.len() as f64
    );

    // --- verify the surgery was lossless on AC ---
    let reparsed = JpegDecoder::decode_coefficients(&surgered)?;
    let mut ac_mismatch = 0usize;
    for c in 0..3 {
        for by in 0..coeffs.plane(c).blocks_y() {
            for bx in 0..coeffs.plane(c).blocks_x() {
                if coeffs.plane(c).block(bx, by)[1..] != reparsed.plane(c).block(bx, by)[1..] {
                    ac_mismatch += 1;
                }
            }
        }
    }
    println!("AC blocks altered by the surgery: {ac_mismatch} (must be 0)");
    assert_eq!(ac_mismatch, 0);

    // --- what a relay sees when the uplink dies mid-transfer ---
    // The decoder never panics on damaged input; it returns a typed error
    // whose kind drives the runtime's retry decision (truncated streams are
    // transient — the rest of the bytes may still arrive).
    let cut = &surgered[..surgered.len() * 2 / 3];
    let err = JpegDecoder::decode_coefficients(cut).expect_err("cut stream cannot parse");
    println!(
        "truncated upload: kind={:?}, retryable={} ({err})",
        err.kind(),
        err.is_transient()
    );
    assert!(err.is_transient());

    // --- what left the stream: the DC thumbnail ---
    let out_dir = std::env::temp_dir().join("dcdiff-bitstream-surgery");
    std::fs::create_dir_all(&out_dir)?;
    write_ppm(out_dir.join("dc-thumbnail.ppm"), &coeffs.dc_thumbnail())?;
    write_ppm(out_dir.join("x-tilde.ppm"), &dropped.to_image())?;
    println!("wrote dc-thumbnail.ppm and x-tilde.ppm to {}", out_dir.display());
    Ok(())
}

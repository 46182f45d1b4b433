//! Deterministic fault injection for JPEG bitstreams.
//!
//! DCDiff receivers decode *damaged-by-design* streams (DC coefficients
//! deliberately dropped at the sender), so the decoder must survive the
//! corruption a production transport actually delivers: truncated
//! payloads, bit-flipped entropy data, mangled segment lengths. This
//! crate generates those corruptions **deterministically** — every
//! mutation is a pure function of `(reference bytes, seed)` — so a
//! failing case from CI reproduces locally from its seed alone.
//!
//! Three mutation families mirror the transport faults seen in practice:
//!
//! * [`truncations`] — every prefix of the stream cut at a marker
//!   boundary (losing the tail of a datagram sequence), plus mid-scan
//!   cuts via [`FaultClass::ScanTruncation`] in the seeded corpus;
//! * bit flips ([`flip_bit`]) — single-bit channel noise, aimed at the
//!   entropy-coded scan where a flip derails Huffman decoding;
//! * length corruption ([`corrupt_length`]) — a damaged segment header
//!   desynchronising the marker parser.
//!
//! [`corpus`] composes the families into a seeded stream of test cases;
//! the decoder contract over the whole corpus is *no panic, ever* —
//! every failure must surface as a typed [`dcdiff_jpeg::JpegError`].
//!
//! # Example
//!
//! ```
//! use dcdiff_faults::{corpus, reference_stream, truncations};
//! use dcdiff_jpeg::JpegDecoder;
//!
//! let bytes = reference_stream(32, 24, 50)?;
//! // Every marker-boundary truncation decodes to a typed error.
//! for cut in truncations(&bytes) {
//!     assert!(JpegDecoder::decode(&cut).is_err());
//! }
//! // Seeded mutations never panic; Ok (a flip the decoder tolerates)
//! // and typed Err are both acceptable outcomes.
//! for case in corpus(&bytes, 0xFA_07, 25) {
//!     let _ = JpegDecoder::decode(&case.bytes);
//! }
//! # Ok::<(), dcdiff_jpeg::JpegError>(())
//! ```

// Untrusted bytes and job execution must never panic (ANALYSIS.md).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_macros
)]
#![cfg_attr(test, allow(clippy::disallowed_macros))]

use dcdiff_image::{ColorSpace, Image, Plane};
use dcdiff_jpeg::{encode_coefficients, DcDropMode, JpegEncoder, JpegError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The corruption families the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// The stream cut exactly at a marker boundary (header loss).
    MarkerTruncation,
    /// The stream cut inside the entropy-coded scan (payload loss).
    ScanTruncation,
    /// A single bit flipped somewhere in the stream (channel noise).
    BitFlip,
    /// A segment length field rewritten to a wrong value.
    LengthCorruption,
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultClass::MarkerTruncation => "marker-truncation",
            FaultClass::ScanTruncation => "scan-truncation",
            FaultClass::BitFlip => "bit-flip",
            FaultClass::LengthCorruption => "length-corruption",
        })
    }
}

/// One corrupted bitstream plus the provenance needed to reproduce it.
#[derive(Debug, Clone)]
pub struct FaultCase {
    /// Which mutation family produced this case.
    pub class: FaultClass,
    /// The seed that reproduces this exact mutation via [`corpus`].
    pub seed: u64,
    /// The corrupted bytes to feed to the decoder.
    pub bytes: Vec<u8>,
}

/// A deterministic valid DC-dropped reference stream for mutation.
///
/// Encodes a synthetic RGB gradient image of the given dimensions at the
/// given quality, with DC coefficients dropped exactly as the DCDiff
/// sender would before transmission.
///
/// # Errors
///
/// Propagates encoder errors for out-of-range dimensions.
pub fn reference_stream(width: usize, height: usize, quality: u8) -> Result<Vec<u8>, JpegError> {
    let img = Image::from_planes(
        vec![
            Plane::from_fn(width, height, |x, y| ((x * 9 + y * 5) % 256) as f32),
            Plane::from_fn(width, height, |x, y| ((x * 3 + y * 11) % 256) as f32),
            Plane::from_fn(width, height, |x, y| ((x + y * 2) % 256) as f32),
        ],
        ColorSpace::Rgb,
    )
    .map_err(|e| JpegError::internal(format!("reference planes disagree: {e}")))?;
    let coeffs = JpegEncoder::new(quality)
        .to_coefficients(&img)
        .drop_dc(DcDropMode::KeepCorners);
    encode_coefficients(&coeffs)
}

/// Byte offsets of every `0xFF <marker>` pair in the stream.
///
/// Includes SOI/EOI and segment markers; excludes the `0xFF 0x00` byte
/// stuffing that escapes literal `0xFF` inside the entropy-coded scan.
pub fn marker_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == 0xFF && bytes[i + 1] != 0x00 {
            out.push(i);
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// Every truncation of `bytes` at a marker boundary: for each marker the
/// stream is cut both *before* the `0xFF` and *after* the marker byte,
/// covering "segment never arrived" and "segment header arrived alone".
pub fn truncations(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for b in marker_boundaries(bytes) {
        out.push(bytes[..b].to_vec());
        if b + 2 <= bytes.len() {
            out.push(bytes[..b + 2].to_vec());
        }
    }
    // Never emit the intact stream itself.
    out.retain(|t| t.len() < bytes.len());
    out
}

/// Flip bit `bit` (0..8) of the byte at `index`, returning the mutated
/// copy. Returns `None` when `index` is out of range.
pub fn flip_bit(bytes: &[u8], index: usize, bit: u8) -> Option<Vec<u8>> {
    if index >= bytes.len() {
        return None;
    }
    let mut out = bytes.to_vec();
    out[index] ^= 1 << (bit % 8);
    Some(out)
}

/// Byte range of the entropy-coded scan (after the SOS header, before
/// EOI), or `None` when the stream has no complete SOS segment.
///
/// Bit flips aimed here exercise the Huffman decode path rather than the
/// marker parser.
pub fn entropy_segment(bytes: &[u8]) -> Option<std::ops::Range<usize>> {
    let sos = bytes.windows(2).position(|w| w == [0xFF, 0xDA])?;
    if sos + 4 > bytes.len() {
        return None;
    }
    let len = u16::from_be_bytes([bytes[sos + 2], bytes[sos + 3]]) as usize;
    let start = sos + 2 + len;
    let end = bytes.len().saturating_sub(2); // exclude EOI
    if start >= end {
        return None;
    }
    Some(start..end)
}

/// Offsets of the two-byte length fields of every sized header segment
/// (everything between SOI and SOS that is not a standalone marker).
pub fn length_fields(bytes: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = 2; // skip SOI
    while i + 3 < bytes.len() {
        if bytes[i] != 0xFF {
            break; // lost sync — stop rather than guess
        }
        let marker = bytes[i + 1];
        match marker {
            // standalone markers carry no length
            0x01 | 0xD0..=0xD9 => i += 2,
            0xDA => {
                out.push(i + 2);
                break; // SOS: entropy data follows, no more segments
            }
            _ => {
                out.push(i + 2);
                let len = u16::from_be_bytes([bytes[i + 2], bytes[i + 3]]) as usize;
                i += 2 + len;
            }
        }
    }
    out
}

/// Rewrite one segment length field to a seeded wrong value.
///
/// Returns `None` when the stream has no length fields to corrupt.
pub fn corrupt_length(bytes: &[u8], rng: &mut StdRng) -> Option<Vec<u8>> {
    let fields = length_fields(bytes);
    if fields.is_empty() {
        return None;
    }
    let at = fields[rng.gen_range(0..fields.len())];
    let old = u16::from_be_bytes([bytes[at], bytes[at + 1]]);
    let mut new = rng.gen::<u16>();
    if new == old {
        new = new.wrapping_add(1);
    }
    let mut out = bytes.to_vec();
    out[at..at + 2].copy_from_slice(&new.to_be_bytes());
    Some(out)
}

/// Produce `count` seeded mutations of `bytes`, cycling through the
/// [`FaultClass`] families.
///
/// Case `k` is generated from `StdRng::seed_from_u64(base_seed + k)`, so
/// any failing case is reproducible from its [`FaultCase::seed`] alone.
/// Marker truncations are enumerated exhaustively by [`truncations`];
/// this corpus adds the randomised families on top (mid-scan cuts,
/// bit flips biased into the entropy segment, length corruption).
pub fn corpus(bytes: &[u8], base_seed: u64, count: usize) -> Vec<FaultCase> {
    let entropy = entropy_segment(bytes);
    let mut out = Vec::with_capacity(count);
    for k in 0..count as u64 {
        let seed = base_seed.wrapping_add(k);
        let mut rng = StdRng::seed_from_u64(seed);
        let class = match k % 3 {
            0 => FaultClass::BitFlip,
            1 => FaultClass::ScanTruncation,
            _ => FaultClass::LengthCorruption,
        };
        let mutated = match class {
            FaultClass::BitFlip => {
                // Two thirds of flips land in the entropy-coded scan, the
                // rest anywhere in the stream (headers included).
                let index = match &entropy {
                    Some(range) if rng.gen_bool(2.0 / 3.0) => {
                        rng.gen_range(range.start..range.end)
                    }
                    _ => rng.gen_range(0..bytes.len()),
                };
                flip_bit(bytes, index, rng.gen::<u8>() % 8)
            }
            FaultClass::ScanTruncation => {
                let cut = match &entropy {
                    Some(range) => rng.gen_range(range.start..range.end),
                    None => rng.gen_range(0..bytes.len()),
                };
                Some(bytes[..cut].to_vec())
            }
            FaultClass::LengthCorruption => corrupt_length(bytes, &mut rng),
            // Marker truncations are enumerated exhaustively by
            // `truncations` above, never sampled here; skip rather than
            // panic if a caller ever routes one through the sampler.
            FaultClass::MarkerTruncation => None,
        };
        if let Some(mutated) = mutated {
            out.push(FaultCase {
                class,
                seed,
                bytes: mutated,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_jpeg::JpegDecoder;

    fn stream() -> Vec<u8> {
        reference_stream(48, 32, 50).expect("reference encodes")
    }

    #[test]
    fn reference_stream_is_valid_and_dc_dropped() {
        let coeffs = JpegDecoder::decode_coefficients(&stream()).expect("decodes");
        assert_eq!(coeffs.plane(0).dc(1, 1), 0, "interior DC dropped");
    }

    #[test]
    fn marker_boundaries_find_soi_and_eoi() {
        let bytes = stream();
        let marks = marker_boundaries(&bytes);
        assert_eq!(marks.first(), Some(&0), "SOI at offset 0");
        assert!(marks.contains(&(bytes.len() - 2)), "EOI found");
    }

    #[test]
    fn marker_boundaries_skip_stuffing() {
        let bytes = [0xFF, 0xD8, 0xFF, 0x00, 0xFF, 0xD9];
        assert_eq!(marker_boundaries(&bytes), vec![0, 4]);
    }

    #[test]
    fn truncations_shrink_and_cover_every_marker() {
        let bytes = stream();
        let cuts = truncations(&bytes);
        let markers = marker_boundaries(&bytes).len();
        assert!(cuts.len() >= markers, "{} cuts for {markers} markers", cuts.len());
        assert!(cuts.iter().all(|c| c.len() < bytes.len()));
    }

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let bytes = stream();
        let a = corpus(&bytes, 42, 30);
        let b = corpus(&bytes, 42, 30);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.class, y.class);
            assert_eq!(x.bytes, y.bytes);
        }
        let c = corpus(&bytes, 43, 30);
        assert!(a.iter().zip(&c).any(|(x, y)| x.bytes != y.bytes));
    }

    #[test]
    fn corpus_covers_all_randomised_classes() {
        let bytes = stream();
        let cases = corpus(&bytes, 7, 30);
        for class in [
            FaultClass::BitFlip,
            FaultClass::ScanTruncation,
            FaultClass::LengthCorruption,
        ] {
            assert!(cases.iter().any(|c| c.class == class), "missing {class}");
        }
    }

    #[test]
    fn flip_bit_flips_exactly_one_bit() {
        let bytes = stream();
        let flipped = flip_bit(&bytes, 10, 3).unwrap();
        let diff: u32 = bytes
            .iter()
            .zip(&flipped)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
        assert!(flip_bit(&bytes, bytes.len(), 0).is_none());
    }

    #[test]
    fn entropy_segment_sits_between_sos_and_eoi() {
        let bytes = stream();
        let range = entropy_segment(&bytes).expect("has scan");
        assert!(range.start > 4 && range.end <= bytes.len() - 2);
    }

    #[test]
    fn length_fields_cover_every_header_segment() {
        let bytes = stream();
        // APP0, 2×DQT, SOF0, 4×DHT, SOS = 9 sized segments for color.
        assert_eq!(length_fields(&bytes).len(), 9);
    }
}

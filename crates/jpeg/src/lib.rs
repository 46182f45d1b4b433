//! A from-scratch baseline JPEG codec plus the DC-drop transform studied
//! by DCDiff.
//!
//! The crate implements the complete baseline sequential DCT pipeline of
//! ITU-T T.81 (JPEG):
//!
//! * forward/inverse 8×8 DCT ([`dct`]) — a reference `O(N^4)` transform
//!   and a separable row/column transform over a precomputed cosine
//!   table, with AVX2 kernels for the decoder's iDCT and the encoder's
//!   fused fDCT + quantise;
//! * quality-scaled Annex-K quantisation tables ([`quant`]);
//! * zig-zag coefficient ordering ([`zigzag`]);
//! * DC differential + AC run-length entropy coding with the Annex-K
//!   Huffman tables, byte stuffing and real JFIF markers
//!   ([`huffman`], [`bitstream`], [`JpegEncoder`], [`JpegDecoder`]);
//! * 4:4:4 and 4:2:0 chroma subsampling;
//! * the **DC-drop transform** ([`CoeffImage::drop_dc`]): zero, in place,
//!   every quantised DC coefficient except the four corner blocks before entropy
//!   coding — the sender-side operation that DCDiff and its baselines
//!   build on (§II-B of the paper).
//!
//! # Example
//!
//! ```
//! use dcdiff_image::{ColorSpace, Image};
//! use dcdiff_jpeg::{JpegDecoder, JpegEncoder};
//!
//! let img = Image::filled(32, 32, ColorSpace::Rgb, 120.0);
//! let encoder = JpegEncoder::new(50);
//! let bytes = encoder.encode(&img)?;
//! let decoded = JpegDecoder::decode(&bytes)?;
//! assert_eq!(decoded.dims(), (32, 32));
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

pub mod bitstream;
pub mod rate;
pub mod dct;
pub mod huffman;
pub mod quant;
pub mod simd;
pub mod zigzag;

mod codec;
mod coeff;
mod error;
mod metrics;
mod optimize;

pub use codec::{
    encode_coefficients, encode_coefficients_with_restarts, scan_length, ChromaSampling,
    JpegDecoder, JpegEncoder, MAX_DECODE_PIXELS,
};
pub use coeff::{CoeffImage, CoeffPlane, DcDropMode};
pub use optimize::{encode_coefficients_optimized, size_comparison};
pub use error::{JpegError, JpegErrorKind};

/// Number of samples per block edge (8 in baseline JPEG).
pub const BLOCK: usize = 8;
/// Number of coefficients per block (64).
pub const BLOCK_AREA: usize = 64;

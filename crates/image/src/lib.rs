//! Planar floating-point image containers shared across the DCDiff workspace.
//!
//! The JPEG pipeline, the neural substrates and the metrics all operate on
//! [`Plane`] (a single 2-D channel of `f32` samples) and [`Image`] (one to
//! three planes plus a [`ColorSpace`] tag). Samples are kept in the nominal
//! `0.0..=255.0` range used by baseline JPEG; the conversion helpers
//! [`rgb_to_ycbcr_pixel`] / [`ycbcr_to_rgb_pixel`] move between RGB and the
//! JPEG (BT.601 full-range) YCbCr space.
//!
//! # Example
//!
//! ```
//! use dcdiff_image::{Image, ColorSpace};
//!
//! let img = Image::filled(16, 8, ColorSpace::Rgb, 128.0);
//! assert_eq!(img.width(), 16);
//! assert_eq!(img.height(), 8);
//! let ycbcr = img.to_ycbcr();
//! assert_eq!(ycbcr.color_space(), ColorSpace::YCbCr);
//! ```

mod blocks;
mod color;
mod error;
mod image;
mod io;
mod plane;

pub use blocks::{Block8, BlockGrid};
pub use color::{
    rgb_to_ycbcr_pixel, rgb_to_ycbcr_rows, rgb_to_ycbcr_rows_scalar, simd_force_scalar,
    simd_tier_name, ycbcr_to_rgb_pixel, ycbcr_to_rgb_rows, ycbcr_to_rgb_rows_scalar,
};
pub use error::ImageError;
pub use image::{ColorSpace, Image};
pub use io::{read_pgm, read_ppm, write_pgm, write_ppm, PnmFormat, PnmWriter};
pub use plane::Plane;

/// Size (in samples) of the JPEG minimum coded block along each axis.
pub const BLOCK: usize = 8;

/// Upper bound on the pixel count (`width × height`) of an image decoded
/// from untrusted bytes: the PPM/PGM readers here and the JPEG decoder
/// (`dcdiff_jpeg` re-exports it) reject larger headers with a parse error.
///
/// A header's dimensions size the sample buffers before a payload byte
/// is read. A PNM header can declare any size (a product past `usize`
/// included) and a JPEG frame up to 65535×65535 (≈ 4.3 G pixels), and a
/// failed allocation aborts the process instead of unwinding, so no job
/// boundary could contain it. 2²⁴ pixels (a 4096×4096 frame) covers
/// every dataset in the paper while bounding decoder memory.
pub const MAX_DECODE_PIXELS: usize = 1 << 24;

//! DC-recovery baselines reproduced from the literature.
//!
//! All four comparison methods of the paper's Table I are implemented
//! from their published algorithms:
//!
//! * [`Tip2006`] — Uehara et al., *IEEE TIP 2006* \[22\]: block-iterative
//!   recovery minimising absolute boundary-pixel differences against
//!   already-recovered neighbours (median estimator).
//! * [`SmartCom2019`] — Qiu et al., *SmartCom 2019* \[18\]: linear
//!   *trend* extrapolation of the last two boundary columns/rows instead
//!   of plain differences (mean estimator).
//! * [`Tii2021`] — Qiu et al., *IEEE TII 2021* \[19\]: SmartCom-2019
//!   recovery followed by a residual CNN trained with MSE to correct
//!   propagation errors (the learned two-step baseline).
//! * [`Icip2022`] — Zhang et al., *ICIP 2022* \[20\]: convex relaxation —
//!   a global weighted least-squares over all per-block DC offsets with
//!   direction-selective pair weights, solved by Gauss–Seidel sweeps.
//!
//! Every method implements [`DcRecovery`]: it receives the receiver-side
//! [`CoeffImage`] with dropped DC (four corner anchors retained) and
//! returns its estimate of every block's DC level, which the decoder turns
//! into the reconstructed image.
//!
//! The crate also holds the one DC-offset solver. [`AcField`] is the
//! AC-only pixel field of one plane, and [`AcField::solve`] minimises the
//! boundary energy whose mechanisms [`RefineConfig`] switches. ICIP-2022
//! is that energy with trend and consensus off, λ = 0 and 120 sweeps;
//! DCDiff's masked-Laplacian refinement (`dcdiff_core::refine_dc_offsets`)
//! is the same energy with all three mechanisms on and the diffusion
//! estimate as its prior.
//!
//! # Example
//!
//! ```
//! use dcdiff_baselines::{DcRecovery, SmartCom2019};
//! use dcdiff_image::{ColorSpace, Image};
//! use dcdiff_jpeg::{ChromaSampling, CoeffImage, DcDropMode};
//!
//! let image = Image::filled(32, 32, ColorSpace::Rgb, 200.0);
//! let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
//! let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
//! let recovered = SmartCom2019::new().recover(&dropped);
//! assert_eq!(recovered.dims(), (32, 32));
//! ```

mod common;
mod icip2022;
mod smartcom2019;
mod tii2021;
mod tip2006;

pub use common::{AcField, RefineConfig, DEFAULT_THRESHOLD};
pub use icip2022::Icip2022;
pub use smartcom2019::SmartCom2019;
pub use tii2021::Tii2021;
pub use tip2006::Tip2006;

use dcdiff_image::Image;
use dcdiff_jpeg::CoeffImage;

/// A receiver-side DC recovery method.
///
/// A method estimates DC levels; the AC levels arrived intact. So
/// [`DcRecovery::estimate_dc`] is the one method an estimator implements,
/// and the pixel and coefficient outputs are provided over it.
pub trait DcRecovery {
    /// Human-readable method name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Estimate the dropped DC levels of `dropped`: one level per block of
    /// every component, row-major, corner anchors included. This is the
    /// form [`CoeffImage::to_image_with_dc`] and
    /// [`CoeffImage::write_pnm_with_dc`] decode, so a served recovery
    /// streams its pixels straight into the response file.
    ///
    /// `dropped` must retain the four corner-block DC anchors
    /// ([`dcdiff_jpeg::DcDropMode::KeepCorners`]); methods treat absent
    /// anchors as zero.
    fn estimate_dc(&self, dropped: &CoeffImage) -> Vec<Vec<i32>>;

    /// The reconstructed pixel image: `dropped` decoded with the
    /// estimated DC levels substituted ([`CoeffImage::to_image_with_dc`]),
    /// bit for bit the decode of [`DcRecovery::recover_coefficients`].
    fn recover(&self, dropped: &CoeffImage) -> Image {
        dropped.to_image_with_dc(&self.estimate_dc(dropped))
    }

    /// The coefficient image with the estimated DC levels filled in (for
    /// coefficient-domain analysis).
    fn recover_coefficients(&self, dropped: &CoeffImage) -> CoeffImage {
        dropped.with_dc_levels(&self.estimate_dc(dropped))
    }
}

//! DCDiff — diffusion-based DC coefficient estimation (the paper's core
//! contribution).
//!
//! The sender JPEG-codes an image and zeroes every quantised DC
//! coefficient except the four corner anchors; the receiver reconstructs
//! the picture by *estimating* the missing DC coefficients end-to-end
//! with a latent diffusion model instead of the block-iterative
//! statistical recovery of prior work. The pieces (paper §III):
//!
//! * [`mask`] — the Eq. 3 spatial mask separating low-frequency regions
//!   (where the Laplacian prior holds) from high-frequency ones;
//! * [`mld`] — the masked Laplacian distribution loss (Eq. 4), both as a
//!   differentiable tensor loss for training and as a pixel-domain energy;
//! * [`Stage1`] — the DC encoder `E_DC`, AC encoder `E_AC` and decoder
//!   `D` trained with `L1 + perceptual + discriminator` (Eq. 5);
//! * [`Stage2`] — fine-tuning the U-Net noise predictor with
//!   `L_ldm + σ·L_m` (Eq. 6), with ControlNet-style structure injection
//!   from the DC-less image `x̃`;
//! * [`DcDiff`] — the end-to-end estimator: FMPP-modulated DDIM sampling,
//!   decoding, **DC projection** (the decoded AC coefficients are kept
//!   bit-exact; only per-block means are taken from the generated image)
//!   and masked-Laplacian refinement.
//!
//! ## Scaled-down substitution
//!
//! The paper finetunes Stable Diffusion on 8×H800 GPUs; this reproduction
//! trains a small U-Net from scratch, which cannot carry an equivalent
//! image prior. To preserve the method's key property — the masked
//! Laplacian constraint that suppresses error propagation — the same MLD
//! objective the paper imposes through `L_m` during training is also
//! applied at inference as an explicit energy minimisation over the
//! generated DC map (anchored at the four corners, tied to the diffusion
//! output by a quadratic prior). `DESIGN.md` documents this substitution.
//!
//! # Example
//!
//! The training-free core of the receiver — DC projection plus the
//! masked-Laplacian refinement — is usable without any trained model:
//!
//! ```
//! use dcdiff_core::refine_dc_offsets;
//! use dcdiff_image::{ColorSpace, Image};
//! use dcdiff_jpeg::{ChromaSampling, CoeffImage, DcDropMode};
//!
//! let image = Image::filled(48, 48, ColorSpace::Rgb, 150.0);
//! let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
//! let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
//! // neutral prior: pass the dropped coefficients themselves
//! let recovered = refine_dc_offsets(&dropped, &dropped, 10.0, 5e-4, 100);
//! let out = recovered.to_image();
//! assert_eq!(out.dims(), (48, 48));
//! ```

pub mod mask;
pub mod mld;

mod discriminator;
mod estimator;
mod fallback;
mod perceptual;
mod projection;
mod refine;
mod stage1;
mod stage2;

pub use dcdiff_baselines::RefineConfig;
pub use discriminator::PatchDiscriminator;
pub use estimator::{
    content_seed, BatchRecoverJob, DcDiff, DcDiffConfig, RecoverOptions, TrainBudget, TrainReport,
};
pub use fallback::{panic_message, BreakerState, CircuitBreaker, EstimateError};
pub use perceptual::PerceptualLoss;
pub use projection::{image_to_tensor, project_dc, tensor_to_image};
pub use refine::{refine_dc_levels, refine_dc_offsets, refine_dc_offsets_with};
pub use stage1::Stage1;
pub use stage2::Stage2;

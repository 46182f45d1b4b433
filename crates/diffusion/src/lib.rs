//! Denoising-diffusion machinery for DCDiff.
//!
//! Provides the pieces of §III-B and §III-D of the paper:
//!
//! * [`NoiseSchedule`] — the forward process `q(z_t | z_0)` (Eq. 1) with
//!   linear or cosine β schedules, and the `z_t → ẑ_0` projection used by
//!   the masked Laplacian loss during stage-2 training;
//! * [`DdimSampler`] — deterministic DDIM sampling (the paper uses 50
//!   steps at inference);
//! * [`Fmpp`] — the frequency-modulation parameter predictor: a ResNet
//!   over the DC-less image `x̃` emitting per-sample scale factors
//!   `(s, b) ∈ (0, 2)` that re-weight U-Net backbone and skip features
//!   (FreeU-style) during sampling.
//!
//! # Example
//!
//! ```
//! use dcdiff_diffusion::{DdimSampler, NoiseSchedule};
//! use dcdiff_tensor::{seeded_rng, Tensor};
//!
//! let schedule = NoiseSchedule::linear(100, 1e-4, 2e-2);
//! // forward process: q(z_t | z_0)
//! let mut rng = seeded_rng(0);
//! let z0 = Tensor::full(vec![1, 4, 2, 2], 1.0);
//! let eps = Tensor::randn(vec![1, 4, 2, 2], 1.0, &mut rng);
//! let z_t = schedule.q_sample(&z0, 50, &eps);
//! // exact inversion with the true noise
//! let back = schedule.predict_z0(&z_t, 50, &eps);
//! assert!((back.to_vec()[0] - 1.0).abs() < 1e-3);
//! let _sampler = DdimSampler::new(schedule, 10);
//! ```

mod batched;
mod ddim;
mod fmpp;
mod schedule;

pub use batched::{BatchLane, BatchedDdimSampler};
pub use ddim::DdimSampler;
pub use fmpp::Fmpp;
pub use schedule::NoiseSchedule;

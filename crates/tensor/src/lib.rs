//! A small CPU tensor library with reverse-mode automatic differentiation.
//!
//! This crate is the neural-network substrate for the DCDiff reproduction:
//! the stage-1 autoencoder, the latent-diffusion U-Net, the FMPP predictor,
//! the TII-2021 residual baseline and the downstream classifier are all
//! trained with it. It provides:
//!
//! * [`Tensor`] — an NCHW `f32` tensor with a reverse-mode autograd tape
//!   (micrograd-style: each op records a backward closure over its parents);
//! * [`kernels`] — the blocked, register-tiled, multi-threaded GEMM and
//!   thread-pool layer every dense op dispatches to (`DCDIFF_THREADS`
//!   controls the thread budget);
//! * dense 2-D [`Tensor::matmul`] and implicit-GEMM [`Tensor::conv2d`];
//! * activations, group normalisation, pooling, upsampling, concatenation;
//! * losses (MSE, L1, masked MSE, softmax cross-entropy);
//! * [`optim`] — SGD and Adam;
//! * [`serial`] — a simple named-tensor binary checkpoint format.
//!
//! # Example
//!
//! ```
//! use dcdiff_tensor::Tensor;
//!
//! let x = Tensor::param(vec![1], vec![3.0]);
//! let y = x.mul(&x).add(&x); // y = x^2 + x
//! y.backward();
//! assert_eq!(x.grad_vec(), vec![7.0]); // dy/dx = 2x + 1
//! ```

mod ops;
mod tensor;

pub mod gradcheck;
pub mod kernels;
pub mod optim;
pub mod serial;

pub use tensor::{no_grad, Tensor};

/// Convenience alias for the RNG used across the workspace.
pub type Rng = rand::rngs::StdRng;

/// Create the workspace-standard seeded RNG.
///
/// # Example
///
/// ```
/// use rand::Rng as _;
/// let mut rng = dcdiff_tensor::seeded_rng(7);
/// let _: f32 = rng.gen();
/// ```
pub fn seeded_rng(seed: u64) -> Rng {
    use rand::SeedableRng;
    Rng::seed_from_u64(seed)
}

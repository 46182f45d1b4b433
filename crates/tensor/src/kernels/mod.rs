//! High-performance CPU kernels for the U-Net / DDIM hot path.
//!
//! Every DCDiff recover call bottoms out in dense matrix products (linear
//! layers, attention, convolution). This module supplies the fast path
//! the [`crate::Tensor`] ops build on:
//!
//! * [`sgemm`] — cache-blocked, register-tiled `C += op(A)·op(B)` with
//!   packed panels and a dense microkernel (no per-element zero-skip
//!   branch), sharded across a std-only persistent thread pool. The
//!   convolution forward runs the same blocked loop as an implicit GEMM
//!   that packs straight from the NCHW input and adds straight into the
//!   NCHW output, bias included;
//! * [`Trans`] — stride-aware operand views so backward passes
//!   (`dA = dC·Bᵀ`, `dB = Aᵀ·dC`) never materialise transposed copies;
//! * [`parallel_for`] / [`parallel_chunks_mut`] — the scoped pool, also
//!   used to fan the backward pass's im2col/col2im across samples;
//! * [`scratch`] — per-thread buffer recycling for packing panels and
//!   backward-pass temporaries;
//! * [`gemm_naive`] — the seed repo's scalar reference, kept for parity
//!   tests and as the baseline in `kernel_bench`;
//! * [`KernelConfig`] — the thread/block configuration, embedded in bench
//!   artifacts so speedups stay attributable across machines.
//!
//! Threading is sized from `DCDIFF_THREADS` (when set to a positive
//! integer) or `std::thread::available_parallelism`, and engages only above
//! [`config::PAR_FLOP_THRESHOLD`] so small tape ops stay on the calling
//! thread. Kernel activity is exported through `dcdiff-telemetry` as the
//! `tensor.gemm_us` / `tensor.conv_us` histograms and
//! `tensor.{gemm,conv}_flops` counters.

// A panicking pool worker must not poison the pool: the pool's locks are
// the poison-recovering `dcdiff_telemetry::sync` wrappers, and nothing here
// unwraps (ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
mod gemm;
pub(crate) mod metrics;
mod pool;
pub mod scratch;

pub use config::{configured_threads, set_threads, KernelConfig};
pub(crate) use gemm::{conv2d_nchw, ConvGeom};
pub use gemm::{gemm_naive, microkernel_info, sgemm, sgemm_with_threads, Trans};
pub(crate) use pool::parallel_chunks_mut_with_threads;
pub use pool::{parallel_chunks_mut, parallel_for};

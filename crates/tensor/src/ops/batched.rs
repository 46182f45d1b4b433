//! Batched 3-D operations used by the attention block: batched matrix
//! multiply, batched transpose and a softmax over the last axis.

use std::time::Instant;

use super::matmul::transpose;
use crate::kernels::{self, sgemm, Trans};
use crate::Tensor;

impl Tensor {
    /// Batched matrix product `[N, M, K] x [N, K, P] -> [N, M, P]` on the
    /// blocked [`kernels::sgemm`]; backward reads the transposed operands
    /// through stride views (`dAᵢ = dCᵢ·Bᵢᵀ`, `dBᵢ = Aᵢᵀ·dCᵢ`) instead of
    /// materialising per-sample transposes.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 3-D with matching batch and inner
    /// dimensions.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().len(), 3, "bmm lhs must be 3-D");
        assert_eq!(other.shape().len(), 3, "bmm rhs must be 3-D");
        let (n, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (n2, k2, p) = (other.shape()[0], other.shape()[1], other.shape()[2]);
        assert_eq!(n, n2, "bmm batch mismatch");
        assert_eq!(k, k2, "bmm inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; n * m * p];
        let t0 = Instant::now();
        let (av, bv) = (self.data(), other.data());
        for i in 0..n {
            sgemm(
                Trans::N,
                Trans::N,
                m,
                k,
                p,
                &av[i * m * k..(i + 1) * m * k],
                &bv[i * k * p..(i + 1) * k * p],
                &mut out[i * m * p..(i + 1) * m * p],
            );
        }
        kernels::metrics::record_gemm(t0.elapsed(), 2 * (n * m * k * p) as u64);
        // Each operand's gradient reads the other operand.
        let b = other.saved_for(self);
        let a = self.saved_for(other);
        Tensor::from_op(
            vec![n, m, p],
            out,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                let t0 = Instant::now();
                let mut flops = 0u64;
                if let Some(b) = b.as_ref().filter(|_| parents[0].tracks_grad()) {
                    let mut ga = vec![0.0f32; n * m * k];
                    for i in 0..n {
                        sgemm(
                            Trans::N,
                            Trans::T,
                            m,
                            p,
                            k,
                            &g[i * m * p..(i + 1) * m * p],
                            &b[i * k * p..(i + 1) * k * p],
                            &mut ga[i * m * k..(i + 1) * m * k],
                        );
                    }
                    flops += 2 * (n * m * p * k) as u64;
                    parents[0].accumulate_grad(&ga);
                }
                if let Some(a) = a.as_ref().filter(|_| parents[1].tracks_grad()) {
                    let mut gb = vec![0.0f32; n * k * p];
                    for i in 0..n {
                        sgemm(
                            Trans::T,
                            Trans::N,
                            k,
                            m,
                            p,
                            &a[i * m * k..(i + 1) * m * k],
                            &g[i * m * p..(i + 1) * m * p],
                            &mut gb[i * k * p..(i + 1) * k * p],
                        );
                    }
                    flops += 2 * (n * k * m * p) as u64;
                    parents[1].accumulate_grad(&gb);
                }
                if flops > 0 {
                    kernels::metrics::record_gemm(t0.elapsed(), flops);
                }
            }),
        )
    }

    /// Swap the last two axes of a 3-D tensor: `[N, M, K] -> [N, K, M]`.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 3-D.
    pub fn transpose_last2(&self) -> Tensor {
        assert_eq!(self.shape().len(), 3, "transpose_last2 expects 3-D");
        let (n, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let a = self.data();
        let mut out = vec![0.0f32; n * m * k];
        for i in 0..n {
            let t = transpose(m, k, &a[i * m * k..(i + 1) * m * k]);
            out[i * m * k..(i + 1) * m * k].copy_from_slice(&t);
        }
        Tensor::from_op(
            vec![n, k, m],
            out,
            vec![self.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    let mut ga = vec![0.0f32; n * m * k];
                    for i in 0..n {
                        let t = transpose(k, m, &g[i * m * k..(i + 1) * m * k]);
                        ga[i * m * k..(i + 1) * m * k].copy_from_slice(&t);
                    }
                    parents[0].accumulate_grad(&ga);
                }
            }),
        )
    }

    /// Softmax over the last axis of a 3-D tensor (attention weights).
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 3-D.
    pub fn softmax_last(&self) -> Tensor {
        assert_eq!(self.shape().len(), 3, "softmax_last expects 3-D");
        let shape = self.shape().to_vec();
        let k = shape[2];
        let a = self.data();
        let mut out = vec![0.0f32; a.len()];
        for (row_in, row_out) in a.chunks(k).zip(out.chunks_mut(k)) {
            let max = row_in.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (o, &v) in row_out.iter_mut().zip(row_in) {
                *o = (v - max).exp();
                sum += *o;
            }
            for o in row_out.iter_mut() {
                *o /= sum;
            }
        }
        let saved = self.tracks_grad().then(|| out.clone());
        Tensor::from_op(
            shape,
            out,
            vec![self.clone()],
            Box::new(move |g, parents| {
                if let Some(saved) = saved.as_ref().filter(|_| parents[0].tracks_grad()) {
                    // dx = s * (g - sum(g * s)) per row
                    let mut ga = vec![0.0f32; g.len()];
                    for ((grow, srow), garow) in
                        g.chunks(k).zip(saved.chunks(k)).zip(ga.chunks_mut(k))
                    {
                        let dot: f32 = grow.iter().zip(srow).map(|(&gv, &sv)| gv * sv).sum();
                        for ((ga_i, &g_i), &s_i) in garow.iter_mut().zip(grow).zip(srow) {
                            *ga_i = s_i * (g_i - dot);
                        }
                    }
                    parents[0].accumulate_grad(&ga);
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::check_gradient;
    use crate::Tensor;

    #[test]
    fn bmm_matches_per_sample_matmul() {
        let a = Tensor::from_vec(vec![2, 2, 3], (0..12).map(|v| v as f32).collect());
        let b = Tensor::from_vec(vec![2, 3, 2], (0..12).map(|v| (v as f32) * 0.5).collect());
        let c = a.bmm(&b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        // sample 0 equals plain matmul of the first slices
        let a0 = Tensor::from_vec(vec![2, 3], (0..6).map(|v| v as f32).collect());
        let b0 = Tensor::from_vec(vec![3, 2], (0..6).map(|v| (v as f32) * 0.5).collect());
        assert_eq!(&c.to_vec()[..4], a0.matmul(&b0).to_vec().as_slice());
    }

    #[test]
    fn transpose_last2_round_trip() {
        let a = Tensor::from_vec(vec![2, 2, 3], (0..12).map(|v| v as f32).collect());
        let back = a.transpose_last2().transpose_last2();
        assert_eq!(back.shape(), a.shape());
        assert_eq!(back.to_vec(), a.to_vec());
    }

    #[test]
    fn softmax_rows_sum_to_one_per_row() {
        let a = Tensor::from_vec(vec![1, 2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 5.0]);
        let s = a.softmax_last().to_vec();
        assert!((s[0..3].iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!((s[3..6].iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(s[5] > s[4] && s[2] > s[1]);
    }

    #[test]
    fn bmm_gradients_match_finite_difference() {
        let b = Tensor::from_vec(vec![2, 3, 2], (0..12).map(|v| (v as f32) * 0.3 - 1.0).collect());
        let x0: Vec<f32> = (0..12).map(|v| (v as f32) * 0.1 - 0.5).collect();
        let report = check_gradient(&[2, 2, 3], &x0, &[], 1e-3, |x| {
            x.bmm(&b).square().sum_all()
        });
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn softmax_gradients_match_finite_difference() {
        let x0 = vec![0.5f32, -0.3, 1.2, 0.0, 0.7, -1.1];
        let w = Tensor::from_vec(vec![1, 2, 3], vec![0.3, -0.8, 0.5, 1.0, 0.2, -0.4]);
        let report = check_gradient(&[1, 2, 3], &x0, &[], 1e-3, |x| {
            x.softmax_last().mul(&w).sum_all()
        });
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn attention_composition_gradcheck() {
        // softmax(QK^T/sqrt(d)) V through all three ops
        let k = Tensor::from_vec(vec![1, 4, 2], (0..8).map(|v| (v as f32) * 0.2 - 0.7).collect());
        let v = Tensor::from_vec(vec![1, 4, 2], (0..8).map(|v| (v as f32) * 0.1).collect());
        let x0: Vec<f32> = (0..8).map(|v| (v as f32) * 0.15 - 0.5).collect();
        let report = check_gradient(&[1, 4, 2], &x0, &[], 1e-3, |q| {
            q.bmm(&k.transpose_last2())
                .scale(1.0 / (2.0f32).sqrt())
                .softmax_last()
                .bmm(&v)
                .square()
                .sum_all()
        });
        assert!(report.passes(3e-2), "{report:?}");
    }
}

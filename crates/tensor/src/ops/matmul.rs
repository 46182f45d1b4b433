use std::time::Instant;

use crate::kernels::{self, sgemm, Trans};
use crate::Tensor;

/// Transpose a row-major `rows x cols` matrix (layout changes only; the
/// GEMM ops themselves read transposed operands through strides).
pub(crate) fn transpose(rows: usize, cols: usize, a: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = a[r * cols + c];
        }
    }
    out
}

impl Tensor {
    /// 2-D matrix product `[M, K] x [K, N] -> [M, N]` on the blocked,
    /// threaded [`kernels::sgemm`]. The backward pass multiplies against
    /// the transposed operands through stride views (`dA = dC·Bᵀ`,
    /// `dB = Aᵀ·dC`) instead of materialising transposes.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with matching inner dimension.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().len(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape().len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        let a = self.to_vec();
        let b = other.to_vec();
        let mut out = vec![0.0f32; m * n];
        let t0 = Instant::now();
        sgemm(Trans::N, Trans::N, m, k, n, &a, &b, &mut out);
        kernels::metrics::record_gemm(t0.elapsed(), 2 * (m * k * n) as u64);
        Tensor::from_op(
            vec![m, n],
            out,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                let t0 = Instant::now();
                let mut flops = 0u64;
                if parents[0].tracks_grad() {
                    let mut ga = vec![0.0f32; m * k];
                    sgemm(Trans::N, Trans::T, m, n, k, g, &b, &mut ga);
                    flops += 2 * (m * n * k) as u64;
                    parents[0].accumulate_grad(&ga);
                }
                if parents[1].tracks_grad() {
                    let mut gb = vec![0.0f32; k * n];
                    sgemm(Trans::T, Trans::N, k, m, n, &a, g, &mut gb);
                    flops += 2 * (k * m * n) as u64;
                    parents[1].accumulate_grad(&gb);
                }
                if flops > 0 {
                    kernels::metrics::record_gemm(t0.elapsed(), flops);
                }
            }),
        )
    }

    /// Add a per-column bias to a `[M, N]` matrix; `bias` has shape `[N]`
    /// (the linear-layer bias).
    ///
    /// # Panics
    ///
    /// Panics unless `self` is 2-D and `bias` is `[N]`.
    pub fn add_bias_row(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.shape().len(), 2, "add_bias_row expects a matrix");
        let (m, n) = (self.shape()[0], self.shape()[1]);
        assert_eq!(bias.shape(), &[n], "bias must be [N]");
        let b = bias.to_vec();
        let mut data = self.to_vec();
        for row in data.chunks_mut(n) {
            for (v, &bv) in row.iter_mut().zip(&b) {
                *v += bv;
            }
        }
        Tensor::from_op(
            vec![m, n],
            data,
            vec![self.clone(), bias.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    parents[0].accumulate_grad(g);
                }
                if parents[1].tracks_grad() {
                    let mut gb = vec![0.0f32; n];
                    for row in g.chunks(n) {
                        for (acc, &gv) in gb.iter_mut().zip(row) {
                            *acc += gv;
                        }
                    }
                    parents[1].accumulate_grad(&gb);
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn matmul_forward_known_values() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.to_vec(), vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_gradients() {
        let a = Tensor::param(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::param(vec![2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        a.matmul(&b).sum_all().backward();
        // dA = ones * B^T, dB = A^T * ones
        assert_eq!(a.grad_vec(), vec![11.0, 15.0, 11.0, 15.0]);
        assert_eq!(b.grad_vec(), vec![4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a: Vec<f32> = (0..6).map(|v| v as f32).collect();
        let t = transpose(2, 3, &a);
        let back = transpose(3, 2, &t);
        assert_eq!(a, back);
        assert_eq!(t, vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
    }

    #[test]
    fn row_bias_gradient() {
        let x = Tensor::param(vec![2, 3], vec![0.0; 6]);
        let b = Tensor::param(vec![3], vec![1.0, 2.0, 3.0]);
        let y = x.add_bias_row(&b);
        assert_eq!(y.to_vec(), vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        y.sum_all().backward();
        assert_eq!(b.grad_vec(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_rejects_bad_inner_dim() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 2]);
        let _ = a.matmul(&b);
    }
}

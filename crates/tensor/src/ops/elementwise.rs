use crate::kernels::config::{configured_threads, PAR_ELEMENT_THRESHOLD};
use crate::kernels::parallel_chunks_mut_with_threads;
use crate::Tensor;

/// Elements per pool task when a per-element kernel is sharded: 16 KiB of
/// input and of output, well inside L1.
const ELEMENT_CHUNK: usize = 4096;

impl Tensor {
    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }

    /// Element-wise sum. Shapes must match exactly.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "add");
        let data: Vec<f32> = self
            .data()
            .iter()
            .zip(other.data().iter())
            .map(|(&a, &b)| a + b)
            .collect();
        Tensor::from_op(
            self.shape().to_vec(),
            data,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    parents[0].accumulate_grad(g);
                }
                if parents[1].tracks_grad() {
                    parents[1].accumulate_grad(g);
                }
            }),
        )
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "sub");
        let data: Vec<f32> = self
            .data()
            .iter()
            .zip(other.data().iter())
            .map(|(&a, &b)| a - b)
            .collect();
        Tensor::from_op(
            self.shape().to_vec(),
            data,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    parents[0].accumulate_grad(g);
                }
                if parents[1].tracks_grad() {
                    let neg: Vec<f32> = g.iter().map(|&v| -v).collect();
                    parents[1].accumulate_grad(&neg);
                }
            }),
        )
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "mul");
        let data: Vec<f32> = self
            .data()
            .iter()
            .zip(other.data().iter())
            .map(|(&x, &y)| x * y)
            .collect();
        // Each operand's gradient reads the other operand.
        let b = other.saved_for(self);
        let a = self.saved_for(other);
        Tensor::from_op(
            self.shape().to_vec(),
            data,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                if let Some(b) = b.as_ref().filter(|_| parents[0].tracks_grad()) {
                    let ga: Vec<f32> = g.iter().zip(b).map(|(&gv, &y)| gv * y).collect();
                    parents[0].accumulate_grad(&ga);
                }
                if let Some(a) = a.as_ref().filter(|_| parents[1].tracks_grad()) {
                    let gb: Vec<f32> = g.iter().zip(a).map(|(&gv, &x)| gv * x).collect();
                    parents[1].accumulate_grad(&gb);
                }
            }),
        )
    }

    /// Multiply every element by a constant.
    pub fn scale(&self, factor: f32) -> Tensor {
        let data: Vec<f32> = self.data().iter().map(|&v| v * factor).collect();
        Tensor::from_op(
            self.shape().to_vec(),
            data,
            vec![self.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    let ga: Vec<f32> = g.iter().map(|&v| v * factor).collect();
                    parents[0].accumulate_grad(&ga);
                }
            }),
        )
    }

    /// Add a constant to every element.
    pub fn add_scalar(&self, value: f32) -> Tensor {
        let data: Vec<f32> = self.data().iter().map(|&v| v + value).collect();
        Tensor::from_op(
            self.shape().to_vec(),
            data,
            vec![self.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    parents[0].accumulate_grad(g);
                }
            }),
        )
    }

    /// Negation.
    pub fn neg(&self) -> Tensor {
        self.scale(-1.0)
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        let data: Vec<f32> = self.data().iter().map(|&v| v.max(0.0)).collect();
        let a = self.saved_for(self);
        Tensor::from_op(
            self.shape().to_vec(),
            data,
            vec![self.clone()],
            Box::new(move |g, parents| {
                if let Some(a) = a.as_ref().filter(|_| parents[0].tracks_grad()) {
                    let ga: Vec<f32> = g
                        .iter()
                        .zip(a)
                        .map(|(&gv, &x)| if x > 0.0 { gv } else { 0.0 })
                        .collect();
                    parents[0].accumulate_grad(&ga);
                }
            }),
        )
    }

    /// SiLU / swish activation `x * sigmoid(x)` (the diffusion U-Net's
    /// nonlinearity).
    pub fn silu(&self) -> Tensor {
        self.silu_with_threads(configured_threads())
    }

    /// [`Tensor::silu`] on at most `threads` threads.
    pub(crate) fn silu_with_threads(&self, threads: usize) -> Tensor {
        let data = map_sharded(&self.data(), threads, |v| v * sigmoid_f(v));
        let a = self.saved_for(self);
        Tensor::from_op(
            self.shape().to_vec(),
            data,
            vec![self.clone()],
            Box::new(move |g, parents| {
                if let Some(a) = a.as_ref().filter(|_| parents[0].tracks_grad()) {
                    let ga: Vec<f32> = g
                        .iter()
                        .zip(a)
                        .map(|(&gv, &x)| {
                            let s = sigmoid_f(x);
                            gv * (s + x * s * (1.0 - s))
                        })
                        .collect();
                    parents[0].accumulate_grad(&ga);
                }
            }),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        let data: Vec<f32> = self.data().iter().map(|&v| sigmoid_f(v)).collect();
        let out = self.tracks_grad().then(|| data.clone());
        Tensor::from_op(
            self.shape().to_vec(),
            data,
            vec![self.clone()],
            Box::new(move |g, parents| {
                if let Some(out) = out.as_ref().filter(|_| parents[0].tracks_grad()) {
                    let ga: Vec<f32> = g
                        .iter()
                        .zip(out)
                        .map(|(&gv, &s)| gv * s * (1.0 - s))
                        .collect();
                    parents[0].accumulate_grad(&ga);
                }
            }),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.tanh_with_threads(configured_threads())
    }

    /// [`Tensor::tanh`] on at most `threads` threads.
    pub(crate) fn tanh_with_threads(&self, threads: usize) -> Tensor {
        let data = map_sharded(&self.data(), threads, f32::tanh);
        let out = self.tracks_grad().then(|| data.clone());
        Tensor::from_op(
            self.shape().to_vec(),
            data,
            vec![self.clone()],
            Box::new(move |g, parents| {
                if let Some(out) = out.as_ref().filter(|_| parents[0].tracks_grad()) {
                    let ga: Vec<f32> = g
                        .iter()
                        .zip(out)
                        .map(|(&gv, &t)| gv * (1.0 - t * t))
                        .collect();
                    parents[0].accumulate_grad(&ga);
                }
            }),
        )
    }

    /// Scale each sample of an NCHW tensor by a per-sample scalar; `s` has
    /// shape `[N]`. Used by the FMPP frequency modulation (gradients flow
    /// into `s`).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 4-D or `s` is not `[N]`.
    pub fn scale_per_sample(&self, s: &Tensor) -> Tensor {
        assert_eq!(self.shape().len(), 4, "scale_per_sample expects NCHW");
        let (n, c, h, w) = shape4(self.shape());
        assert_eq!(s.shape(), &[n], "scale must be [N]");
        let chw = c * h * w;
        let mut data = self.to_vec();
        for (ni, &f) in s.data().iter().enumerate() {
            for v in &mut data[ni * chw..(ni + 1) * chw] {
                *v *= f;
            }
        }
        let sv = s.saved_for(self);
        let a = self.saved_for(s);
        Tensor::from_op(
            self.shape().to_vec(),
            data,
            vec![self.clone(), s.clone()],
            Box::new(move |g, parents| {
                if let Some(sv) = sv.as_ref().filter(|_| parents[0].tracks_grad()) {
                    let mut ga = g.to_vec();
                    for ni in 0..n {
                        let f = sv[ni];
                        for v in &mut ga[ni * chw..(ni + 1) * chw] {
                            *v *= f;
                        }
                    }
                    parents[0].accumulate_grad(&ga);
                }
                if let Some(a) = a.as_ref().filter(|_| parents[1].tracks_grad()) {
                    let mut gs = vec![0.0f32; n];
                    for (ni, acc) in gs.iter_mut().enumerate() {
                        *acc += g[ni * chw..(ni + 1) * chw]
                            .iter()
                            .zip(&a[ni * chw..(ni + 1) * chw])
                            .map(|(&gv, &xv)| gv * xv)
                            .sum::<f32>();
                    }
                    parents[1].accumulate_grad(&gs);
                }
            }),
        )
    }

    /// Add a per-sample, per-channel vector `v` of shape `[N, C]` to an
    /// NCHW tensor (broadcast over the spatial axes). This is how timestep
    /// embeddings condition the U-Net's residual blocks.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 4-D or `v` is not `[N, C]`.
    pub fn add_per_channel(&self, v: &Tensor) -> Tensor {
        let (n, c, h, w) = shape4(self.shape());
        assert_eq!(v.shape(), &[n, c], "per-channel vector must be [N, C]");
        let hw = h * w;
        let mut data = self.to_vec();
        for (nc, &add) in v.data().iter().enumerate() {
            for x in &mut data[nc * hw..(nc + 1) * hw] {
                *x += add;
            }
        }
        Tensor::from_op(
            self.shape().to_vec(),
            data,
            vec![self.clone(), v.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    parents[0].accumulate_grad(g);
                }
                if parents[1].tracks_grad() {
                    let mut gv = vec![0.0f32; n * c];
                    for (nc, acc) in gv.iter_mut().enumerate() {
                        *acc = g[nc * hw..(nc + 1) * hw].iter().sum();
                    }
                    parents[1].accumulate_grad(&gv);
                }
            }),
        )
    }

    /// Mean over all elements, returning a scalar tensor.
    pub fn mean_all(&self) -> Tensor {
        let n = self.len() as f32;
        self.sum_all().scale(1.0 / n)
    }

    /// Sum over all elements, returning a scalar tensor.
    pub fn sum_all(&self) -> Tensor {
        let total: f32 = self.data().iter().sum();
        let len = self.len();
        Tensor::from_op(
            vec![1],
            vec![total],
            vec![self.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    parents[0].accumulate_grad(&vec![g[0]; len]);
                }
            }),
        )
    }

    /// Element-wise absolute value (used by L1 losses).
    pub fn abs(&self) -> Tensor {
        let data: Vec<f32> = self.data().iter().map(|&v| v.abs()).collect();
        let a = self.saved_for(self);
        Tensor::from_op(
            self.shape().to_vec(),
            data,
            vec![self.clone()],
            Box::new(move |g, parents| {
                if let Some(a) = a.as_ref().filter(|_| parents[0].tracks_grad()) {
                    let ga: Vec<f32> = g
                        .iter()
                        .zip(a)
                        .map(|(&gv, &x)| if x >= 0.0 { gv } else { -gv })
                        .collect();
                    parents[0].accumulate_grad(&ga);
                }
            }),
        )
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor {
        self.mul(self)
    }
}

/// `f` applied to every element of `x` into a fresh buffer. Above
/// [`PAR_ELEMENT_THRESHOLD`] elements, fixed [`ELEMENT_CHUNK`]-sized chunks
/// run as pool tasks on at most `threads` threads; each element is still
/// computed once, by the same `f`, so the bits do not depend on `threads`.
fn map_sharded(x: &[f32], threads: usize, f: impl Fn(f32) -> f32 + Sync) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    let threads = if x.len() < PAR_ELEMENT_THRESHOLD {
        1
    } else {
        threads
    };
    parallel_chunks_mut_with_threads(threads, &mut out, ELEMENT_CHUNK, &|i, dst| {
        for (o, &v) in dst.iter_mut().zip(&x[i * ELEMENT_CHUNK..]) {
            *o = f(v);
        }
    });
    out
}

#[inline]
pub(crate) fn sigmoid_f(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

#[inline]
pub(crate) fn shape4(shape: &[usize]) -> (usize, usize, usize, usize) {
    assert_eq!(shape.len(), 4, "expected a 4-D tensor, got {shape:?}");
    (shape[0], shape[1], shape[2], shape[3])
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    fn finite_diff(f: impl Fn(f32) -> f32, x: f32) -> f32 {
        let h = 1e-3;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn add_sub_mul_gradients() {
        let a = Tensor::param(vec![2], vec![1.5, -2.0]);
        let b = Tensor::param(vec![2], vec![4.0, 0.5]);
        let y = a.add(&b).mul(&a).sub(&b).sum_all();
        // y = sum((a+b)*a - b); dy/da = 2a + b; dy/db = a - 1
        y.backward();
        assert_eq!(a.grad_vec(), vec![2.0 * 1.5 + 4.0, 2.0 * -2.0 + 0.5]);
        assert_eq!(b.grad_vec(), vec![1.5 - 1.0, -2.0 - 1.0]);
    }

    #[test]
    fn activation_gradients_match_finite_difference() {
        for &x0 in &[-1.3f32, -0.2, 0.0, 0.7, 2.4] {
            for (name, fwd, make) in [
                (
                    "relu",
                    Box::new(|v: f32| v.max(0.0)) as Box<dyn Fn(f32) -> f32>,
                    Box::new(|t: &Tensor| t.relu()) as Box<dyn Fn(&Tensor) -> Tensor>,
                ),
                (
                    "silu",
                    Box::new(|v: f32| v / (1.0 + (-v).exp())),
                    Box::new(|t: &Tensor| t.silu()),
                ),
                (
                    "sigmoid",
                    Box::new(|v: f32| 1.0 / (1.0 + (-v).exp())),
                    Box::new(|t: &Tensor| t.sigmoid()),
                ),
                (
                    "tanh",
                    Box::new(|v: f32| v.tanh()),
                    Box::new(|t: &Tensor| t.tanh()),
                ),
            ] {
                if name == "relu" && x0 == 0.0 {
                    continue; // kink
                }
                let x = Tensor::param(vec![1], vec![x0]);
                let y = make(&x).sum_all();
                y.backward();
                let expected = finite_diff(&fwd, x0);
                let got = x.grad_vec()[0];
                assert!(
                    (got - expected).abs() < 2e-2,
                    "{name}({x0}): got {got}, expected {expected}"
                );
            }
        }
    }

    #[test]
    fn per_sample_scaling_gradients() {
        let x = Tensor::param(vec![2, 1, 1, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let s = Tensor::param(vec![2], vec![2.0, -1.0]);
        let y = x.scale_per_sample(&s);
        assert_eq!(y.to_vec(), vec![2.0, 4.0, -3.0, -4.0]);
        y.sum_all().backward();
        assert_eq!(s.grad_vec(), vec![3.0, 7.0]);
        assert_eq!(x.grad_vec(), vec![2.0, 2.0, -1.0, -1.0]);
    }

    #[test]
    fn mean_all_gradient_is_uniform() {
        let x = Tensor::param(vec![4], vec![1.0, 2.0, 3.0, 4.0]);
        x.mean_all().backward();
        assert_eq!(x.grad_vec(), vec![0.25; 4]);
    }

    #[test]
    fn abs_gradient_sign() {
        let x = Tensor::param(vec![2], vec![-3.0, 2.0]);
        x.abs().sum_all().backward();
        assert_eq!(x.grad_vec(), vec![-1.0, 1.0]);
    }

    #[test]
    fn per_channel_add_broadcasts_and_differentiates() {
        let x = Tensor::param(vec![2, 2, 1, 2], vec![0.0; 8]);
        let v = Tensor::param(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = x.add_per_channel(&v);
        assert_eq!(y.to_vec(), vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
        y.sum_all().backward();
        assert_eq!(v.grad_vec(), vec![2.0; 4]);
        assert_eq!(x.grad_vec(), vec![1.0; 8]);
    }

    #[test]
    fn sharded_silu_and_tanh_match_one_thread_bit_for_bit() {
        // Past the sharding threshold and not a whole number of chunks.
        let mut rng = crate::seeded_rng(12);
        let x = Tensor::randn(vec![1, 5, 64, 65], 3.0, &mut rng);
        assert!(x.len() >= crate::kernels::config::PAR_ELEMENT_THRESHOLD);
        let bits = |t: Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(x.silu_with_threads(2)), bits(x.silu_with_threads(1)));
        assert_eq!(bits(x.tanh_with_threads(2)), bits(x.tanh_with_threads(1)));
        let one: Vec<u32> = x
            .to_vec()
            .iter()
            .map(|&v| (v * super::sigmoid_f(v)).to_bits())
            .collect();
        assert_eq!(bits(x.silu_with_threads(2)), one);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_mismatched_shapes() {
        let a = Tensor::zeros(vec![2]);
        let b = Tensor::zeros(vec![3]);
        let _ = a.add(&b);
    }
}

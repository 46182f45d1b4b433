use super::elementwise::{shape4, sigmoid_f};
use crate::kernels::config::{configured_threads, PAR_ELEMENT_THRESHOLD};
use crate::kernels::parallel_chunks_mut_with_threads;
use crate::Tensor;

impl Tensor {
    /// Group normalisation over an NCHW tensor with affine parameters.
    ///
    /// Channels are split into `groups`; each group is normalised to zero
    /// mean / unit variance per sample, then scaled by `gamma` and shifted
    /// by `beta` (both `[C]`). This is the normalisation used throughout
    /// the diffusion U-Net.
    ///
    /// # Panics
    ///
    /// Panics if `C` is not divisible by `groups` or parameter shapes are
    /// not `[C]`.
    pub fn group_norm(&self, groups: usize, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        self.group_norm_with_threads(groups, gamma, beta, eps, false, configured_threads())
    }

    /// [`Tensor::group_norm`] followed by SiLU, as one op: bit for bit what
    /// `group_norm(..).silu()` computes, forward and backward, without the
    /// intermediate tensor or its tape node.
    ///
    /// # Panics
    ///
    /// As [`Tensor::group_norm`].
    pub fn group_norm_silu(
        &self,
        groups: usize,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> Tensor {
        self.group_norm_with_threads(groups, gamma, beta, eps, true, configured_threads())
    }

    /// The group-norm kernel on at most `threads` threads, with or without
    /// the trailing SiLU. Above [`PAR_ELEMENT_THRESHOLD`] elements each
    /// (sample, group) is one pool task that owns its statistics and its
    /// outputs, so the bits do not depend on `threads`.
    pub(crate) fn group_norm_with_threads(
        &self,
        groups: usize,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
        silu: bool,
        threads: usize,
    ) -> Tensor {
        let (n, c, h, w) = shape4(self.shape());
        assert!(
            groups > 0 && c % groups == 0,
            "channels {c} not divisible by groups {groups}"
        );
        assert_eq!(gamma.shape(), &[c], "gamma must be [C]");
        assert_eq!(beta.shape(), &[c], "beta must be [C]");
        let cg = c / groups; // channels per group
        let hw = h * w;
        // Elements per group; `chunks` needs a positive length even when a
        // zero-sized tensor has no group to visit.
        let gsize = (cg * hw).max(1);
        let mut out = vec![0.0f32; n * c * hw];
        {
            let (x_ref, gm_ref, bt_ref) = (self.data(), gamma.data(), beta.data());
            let (x, gm, bt): (&[f32], &[f32], &[f32]) = (&x_ref, &gm_ref, &bt_ref);
            let threads = if out.len() < PAR_ELEMENT_THRESHOLD {
                1
            } else {
                threads
            };
            parallel_chunks_mut_with_threads(threads, &mut out, gsize, &|task, dst| {
                let ch = (task % groups) * cg..(task % groups + 1) * cg;
                let xs = &x[task * gsize..(task + 1) * gsize];
                normalise_group(xs, &gm[ch.clone()], &bt[ch], eps, silu, dst);
            });
        }
        // The backward recomputes the statistics and the pre-activation
        // values from the input with the forward's own expressions, so it
        // keeps the input and the affine parameters, copied only when a
        // tape records this node.
        let parents = vec![self.clone(), gamma.clone(), beta.clone()];
        let saved = parents
            .iter()
            .any(Tensor::tracks_grad)
            .then(|| (self.to_vec(), gamma.to_vec(), beta.to_vec()));
        Tensor::from_op(
            self.shape().to_vec(),
            out,
            parents,
            Box::new(move |g, parents| {
                let Some((x, gm, bt)) = &saved else { return };
                // Per-group inverse deviations and normalised inputs, rounded
                // as the forward rounded them.
                let mut xhat = vec![0.0f32; x.len()];
                let mut inv_std = vec![0.0f32; n * groups];
                let groups_iter = x.chunks(gsize).zip(xhat.chunks_mut(gsize));
                for ((xs, dst), slot) in groups_iter.zip(&mut inv_std) {
                    let (mean, istd) = group_stats(xs, eps);
                    *slot = istd;
                    for (d, &xv) in dst.iter_mut().zip(xs) {
                        *d = (xv - mean) * istd;
                    }
                }
                // SiLU's gradient at the pre-activation `v = xhat·γ + β`
                // comes first; the norm's backward then runs on it.
                let g_act;
                let g = if silu {
                    let mut ga = g.to_vec();
                    let plane = hw.max(1);
                    for (nc, (gs, xs)) in ga.chunks_mut(plane).zip(xhat.chunks(plane)).enumerate() {
                        let (g0, b0) = (gm[nc % c], bt[nc % c]);
                        for (gv, &xh) in gs.iter_mut().zip(xs) {
                            let v = xh * g0 + b0;
                            let s = sigmoid_f(v);
                            *gv *= s + v * s * (1.0 - s);
                        }
                    }
                    g_act = ga;
                    &g_act[..]
                } else {
                    g
                };
                // d gamma / d beta
                if parents[1].tracks_grad() || parents[2].tracks_grad() {
                    let mut ggamma = vec![0.0f32; c];
                    let mut gbeta = vec![0.0f32; c];
                    for ni in 0..n {
                        for ci in 0..c {
                            let base = (ni * c + ci) * hw;
                            for i in 0..hw {
                                ggamma[ci] += g[base + i] * xhat[base + i];
                                gbeta[ci] += g[base + i];
                            }
                        }
                    }
                    if parents[1].tracks_grad() {
                        parents[1].accumulate_grad(&ggamma);
                    }
                    if parents[2].tracks_grad() {
                        parents[2].accumulate_grad(&gbeta);
                    }
                }
                if parents[0].tracks_grad() {
                    // dL/dxhat = g * gamma, then the standard norm backward
                    // within each group:
                    // dx = istd/M * (M*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat))
                    let mut gx = vec![0.0f32; n * c * hw];
                    let m = (cg * hw) as f32;
                    for ni in 0..n {
                        for gi in 0..groups {
                            let start = ni * c * hw + gi * cg * hw;
                            let istd = inv_std[ni * groups + gi];
                            let mut sum_dxhat = 0.0f32;
                            let mut sum_dxhat_xhat = 0.0f32;
                            // first pass
                            for k in 0..cg * hw {
                                let ci = gi * cg + k / hw;
                                let dxhat = g[start + k] * gm[ci];
                                sum_dxhat += dxhat;
                                sum_dxhat_xhat += dxhat * xhat[start + k];
                            }
                            for k in 0..cg * hw {
                                let ci = gi * cg + k / hw;
                                let dxhat = g[start + k] * gm[ci];
                                gx[start + k] = istd / m
                                    * (m * dxhat - sum_dxhat - xhat[start + k] * sum_dxhat_xhat);
                            }
                        }
                    }
                    parents[0].accumulate_grad(&gx);
                }
            }),
        )
    }
}

/// One (sample, group) of the forward: normalise `xs` (the group's `cg`
/// channel planes) with its own statistics and apply the per-channel
/// affine `gamma`/`beta` into `out`, then, when asked, SiLU in place over
/// the group. Two passes over `out`, not one per element: the affine pass
/// vectorises, and the SiLU pass is `silu`'s own loop. A single pass
/// spills the affine constants around every `expf` call and measured
/// slower than the two separate ops in `kernel_bench`.
fn normalise_group(xs: &[f32], gamma: &[f32], beta: &[f32], eps: f32, silu: bool, out: &mut [f32]) {
    let (mean, istd) = group_stats(xs, eps);
    let hw = xs.len() / gamma.len();
    let planes = xs.chunks(hw).zip(out.chunks_mut(hw));
    for ((src, dst), (&g0, &b0)) in planes.zip(gamma.iter().zip(beta)) {
        for (o, &xv) in dst.iter_mut().zip(src) {
            *o = (xv - mean) * istd * g0 + b0;
        }
    }
    if silu {
        for o in out.iter_mut() {
            *o *= sigmoid_f(*o);
        }
    }
}

/// Mean and inverse standard deviation of one (sample, group) slice, from
/// two sequential `f32` sums in element order.
fn group_stats(slice: &[f32], eps: f32) -> (f32, f32) {
    let m = slice.len() as f32;
    let mean = slice.iter().sum::<f32>() / m;
    let var = slice.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / m;
    (mean, 1.0 / (var + eps).sqrt())
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn group_norm_normalises_each_group() {
        let mut rng = crate::seeded_rng(4);
        let x = Tensor::randn(vec![2, 4, 3, 3], 3.0, &mut rng).add_scalar(5.0);
        let gamma = Tensor::from_vec(vec![4], vec![1.0; 4]);
        let beta = Tensor::from_vec(vec![4], vec![0.0; 4]);
        let y = x.group_norm(2, &gamma, &beta, 1e-5);
        let data = y.to_vec();
        // each group (2 channels x 9) of each sample should be ~N(0, 1)
        let gsize = 2 * 9;
        for g in 0..4 {
            let slice = &data[g * gsize..(g + 1) * gsize];
            let mean: f32 = slice.iter().sum::<f32>() / gsize as f32;
            let var: f32 =
                slice.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / gsize as f32;
            assert!(mean.abs() < 1e-4, "group {g} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "group {g} var {var}");
        }
    }

    #[test]
    fn affine_parameters_apply() {
        let x = Tensor::from_vec(vec![1, 2, 1, 2], vec![1.0, -1.0, 3.0, -3.0]);
        let gamma = Tensor::from_vec(vec![2], vec![2.0, 0.5]);
        let beta = Tensor::from_vec(vec![2], vec![10.0, -10.0]);
        let y = x.group_norm(2, &gamma, &beta, 1e-5);
        let d = y.to_vec();
        // channel 0: xhat = [1, -1] -> [12, 8]; channel 1: [0.5-10, -0.5-10]
        assert!((d[0] - 12.0).abs() < 1e-2);
        assert!((d[1] - 8.0).abs() < 1e-2);
        assert!((d[2] + 9.5).abs() < 1e-2);
        assert!((d[3] + 10.5).abs() < 1e-2);
    }

    #[test]
    fn group_norm_gradients_match_finite_difference() {
        let mut rng = crate::seeded_rng(9);
        let x0 = Tensor::randn(vec![1, 2, 2, 2], 1.0, &mut rng).to_vec();
        let g0 = vec![1.5f32, 0.7];
        let b0 = vec![0.1f32, -0.2];

        let loss_at = |xv: &[f32], gv: &[f32], bv: &[f32]| -> f32 {
            let x = Tensor::from_vec(vec![1, 2, 2, 2], xv.to_vec());
            let gamma = Tensor::from_vec(vec![2], gv.to_vec());
            let beta = Tensor::from_vec(vec![2], bv.to_vec());
            // weighted sum to give a non-uniform output gradient
            let w: Vec<f32> = (0..8).map(|i| (i as f32 - 3.0) * 0.3).collect();
            let wt = Tensor::from_vec(vec![1, 2, 2, 2], w);
            x.group_norm(1, &gamma, &beta, 1e-5)
                .mul(&wt)
                .sum_all()
                .item()
        };

        let x = Tensor::param(vec![1, 2, 2, 2], x0.clone());
        let gamma = Tensor::param(vec![2], g0.clone());
        let beta = Tensor::param(vec![2], b0.clone());
        let w: Vec<f32> = (0..8).map(|i| (i as f32 - 3.0) * 0.3).collect();
        let wt = Tensor::from_vec(vec![1, 2, 2, 2], w);
        x.group_norm(1, &gamma, &beta, 1e-5)
            .mul(&wt)
            .sum_all()
            .backward();

        let h = 1e-3;
        for idx in 0..8 {
            let mut xp = x0.clone();
            xp[idx] += h;
            let mut xm = x0.clone();
            xm[idx] -= h;
            let fd = (loss_at(&xp, &g0, &b0) - loss_at(&xm, &g0, &b0)) / (2.0 * h);
            let ad = x.grad_vec()[idx];
            assert!((fd - ad).abs() < 2e-2, "x[{idx}]: fd {fd} ad {ad}");
        }
        for idx in 0..2 {
            let mut gp = g0.clone();
            gp[idx] += h;
            let mut gm = g0.clone();
            gm[idx] -= h;
            let fd = (loss_at(&x0, &gp, &b0) - loss_at(&x0, &gm, &b0)) / (2.0 * h);
            let ad = gamma.grad_vec()[idx];
            assert!((fd - ad).abs() < 2e-2, "gamma[{idx}]: fd {fd} ad {ad}");
        }
        for idx in 0..2 {
            let mut bp = b0.clone();
            bp[idx] += h;
            let mut bm = b0.clone();
            bm[idx] -= h;
            let fd = (loss_at(&x0, &g0, &bp) - loss_at(&x0, &g0, &bm)) / (2.0 * h);
            let ad = beta.grad_vec()[idx];
            assert!((fd - ad).abs() < 2e-2, "beta[{idx}]: fd {fd} ad {ad}");
        }
    }
}

/// The fused op against the two-op chain, by `to_bits`, forward and
/// backward, at one and two threads.
#[cfg(test)]
mod fused_bits {
    use proptest::prelude::*;

    use crate::{no_grad, Tensor};

    /// `(shape, groups)`: the stage-1 decoder's and FMPP's group norms,
    /// then odd groupings: 36 channels in the 6 groups `GroupNorm` falls
    /// back to from 8, and one channel per group.
    const CASES: &[([usize; 4], usize)] = &[
        ([1, 24, 64, 64], 8),
        ([1, 12, 64, 64], 6),
        ([8, 48, 2, 2], 8),
        ([2, 36, 5, 3], 6),
        ([3, 5, 4, 4], 5),
    ];

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Forward output, then the input, γ and β gradients of
    /// `Σ w ⊙ op(x)` (empty under `no_grad`), with the op run fused or as
    /// `group_norm(..).silu()` on `threads` threads.
    fn run(
        ([n, c, h, w], groups): ([usize; 4], usize),
        seed: u64,
        fused: bool,
        threads: usize,
        taped: bool,
    ) -> Vec<Vec<u32>> {
        let mut rng = crate::seeded_rng(seed);
        let shape = vec![n, c, h, w];
        let xv = Tensor::randn(shape.clone(), 2.0, &mut rng)
            .add_scalar(0.5)
            .to_vec();
        let gv = Tensor::randn(vec![c], 0.5, &mut rng)
            .add_scalar(1.0)
            .to_vec();
        let bv = Tensor::randn(vec![c], 0.5, &mut rng).to_vec();
        let weight = Tensor::randn(shape.clone(), 1.0, &mut rng);
        let (x, gamma, beta) = (
            Tensor::param(shape, xv),
            Tensor::param(vec![c], gv),
            Tensor::param(vec![c], bv),
        );
        let op = || {
            if fused {
                x.group_norm_with_threads(groups, &gamma, &beta, 1e-5, true, threads)
            } else {
                x.group_norm_with_threads(groups, &gamma, &beta, 1e-5, false, threads)
                    .silu_with_threads(threads)
            }
        };
        if !taped {
            return vec![bits(&no_grad(op).to_vec())];
        }
        let y = op();
        y.mul(&weight).sum_all().backward();
        vec![
            bits(&y.to_vec()),
            bits(&x.grad_vec()),
            bits(&gamma.grad_vec()),
            bits(&beta.grad_vec()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn fused_group_norm_silu_matches_the_chain_bit_for_bit(
            case in 0..CASES.len(),
            seed in any::<u64>(),
            taped in any::<bool>(),
        ) {
            let chain = run(CASES[case], seed, false, 1, taped);
            for threads in [1, 2] {
                prop_assert!(
                    run(CASES[case], seed, true, threads, taped) == chain,
                    "{:?} taped={taped} threads={threads}", CASES[case]
                );
                prop_assert!(
                    run(CASES[case], seed, false, threads, taped) == chain,
                    "chain {:?} taped={taped} threads={threads}", CASES[case]
                );
            }
        }
    }

    /// Every case, both modes, at least once: the sampled cases above may
    /// miss one.
    #[test]
    fn every_case_matches_in_both_modes() {
        for &case in CASES {
            for taped in [false, true] {
                let chain = run(case, 7, false, 1, taped);
                assert!(
                    run(case, 7, true, 2, taped) == chain,
                    "{case:?} taped={taped}"
                );
            }
        }
    }

    /// The group norm alone against the two-pass loop it replaced
    /// (normalise into a buffer, then apply γ and β), so sharing one
    /// kernel with the fused op changed no forward bit.
    #[test]
    fn group_norm_matches_the_two_pass_reference() {
        for &([n, c, h, w], groups) in CASES {
            let mut rng = crate::seeded_rng(3);
            let x = Tensor::randn(vec![n, c, h, w], 2.0, &mut rng);
            let gamma = Tensor::randn(vec![c], 0.5, &mut rng);
            let beta = Tensor::randn(vec![c], 0.5, &mut rng);
            let (xv, gm, bt) = (x.to_vec(), gamma.to_vec(), beta.to_vec());
            let (cg, hw) = (c / groups, h * w);
            let mut xhat = vec![0.0f32; xv.len()];
            for (xs, dst) in xv.chunks(cg * hw).zip(xhat.chunks_mut(cg * hw)) {
                let mean = xs.iter().sum::<f32>() / (cg * hw) as f32;
                let var =
                    xs.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / (cg * hw) as f32;
                let istd = 1.0 / (var + 1e-5).sqrt();
                for (d, &v) in dst.iter_mut().zip(xs) {
                    *d = (v - mean) * istd;
                }
            }
            let reference: Vec<f32> = xhat
                .iter()
                .enumerate()
                .map(|(i, &v)| v * gm[i / hw % c] + bt[i / hw % c])
                .collect();
            for threads in [1, 2] {
                let y = x.group_norm_with_threads(groups, &gamma, &beta, 1e-5, false, threads);
                assert_eq!(
                    bits(&y.to_vec()),
                    bits(&reference),
                    "{:?} threads={threads}",
                    [n, c, h, w]
                );
            }
        }
    }
}

use std::time::Instant;

use super::elementwise::shape4;
use crate::kernels::{self, parallel_chunks_mut, scratch, sgemm, ConvGeom, Trans};
use crate::Tensor;

/// Unfold one `[C, H, W]` sample into rows-layout im2col: `col` has shape
/// `[ho*wo, c*kh*kw]`, one row per output position (zero padding). The
/// rows layout lets all samples' columns stack into a single
/// `[N*ho*wo, C*kh*kw]` matrix, the operand of the weight-gradient GEMM.
///
/// Writes every element of `col` (callers may pass recycled buffers).
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col_rows(
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ho: usize,
    wo: usize,
    col: &mut [f32],
) {
    let ckk = c * kh * kw;
    debug_assert_eq!(col.len(), ho * wo * ckk);
    for oy in 0..ho {
        for ox in 0..wo {
            let row = &mut col[(oy * wo + ox) * ckk..(oy * wo + ox + 1) * ckk];
            let mut idx = 0;
            for ci in 0..c {
                for ky in 0..kh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        row[idx..idx + kw].fill(0.0);
                        idx += kw;
                        continue;
                    }
                    let in_base = (ci * h + iy as usize) * w;
                    for kx in 0..kw {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        row[idx] = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            input[in_base + ix as usize]
                        };
                        idx += 1;
                    }
                }
            }
        }
    }
}

/// Fold a rows-layout im2col gradient (`[ho*wo, c*kh*kw]`) back onto a
/// `[C, H, W]` input gradient, accumulating overlapping contributions.
#[allow(clippy::too_many_arguments)]
pub(crate) fn col2im_rows(
    col: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ho: usize,
    wo: usize,
    out: &mut [f32],
) {
    let ckk = c * kh * kw;
    debug_assert_eq!(col.len(), ho * wo * ckk);
    for oy in 0..ho {
        for ox in 0..wo {
            let row = &col[(oy * wo + ox) * ckk..(oy * wo + ox + 1) * ckk];
            let mut idx = 0;
            for ci in 0..c {
                for ky in 0..kh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        idx += kw;
                        continue;
                    }
                    let in_base = (ci * h + iy as usize) * w;
                    for kx in 0..kw {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix >= 0 && ix < w as isize {
                            out[in_base + ix as usize] += row[idx];
                        }
                        idx += 1;
                    }
                }
            }
        }
    }
}

impl Tensor {
    /// 2-D convolution over an NCHW tensor with zero padding.
    ///
    /// `weight` has shape `[O, C, kh, kw]`; the result is
    /// `[N, O, ho, wo]` with `ho = (H + 2*pad - kh) / stride + 1`.
    ///
    /// The forward pass is one implicit GEMM over all N samples: the
    /// blocked kernel packs its operand strips straight from the NCHW
    /// input and adds its result tiles straight into the NCHW output, so
    /// no im2col matrix is built, kept or recycled, in training or in
    /// inference. The backward pass builds the im2col rows from the input
    /// only when the weight needs a gradient; the weight- and
    /// input-gradient passes each run as a single blocked GEMM
    /// ([`kernels::sgemm`]).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent or the kernel does not fit.
    pub fn conv2d(&self, weight: &Tensor, stride: usize, pad: usize) -> Tensor {
        let (n, c, h, w) = shape4(self.shape());
        let ws = weight.shape();
        assert_eq!(ws.len(), 4, "conv2d weight must be [O, C, kh, kw]");
        let (o, wc, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
        assert_eq!(c, wc, "conv2d channel mismatch: input {c}, weight {wc}");
        assert!(stride > 0, "stride must be positive");
        assert!(
            h + 2 * pad >= kh && w + 2 * pad >= kw,
            "kernel {kh}x{kw} larger than padded input {h}x{w} (pad {pad})"
        );
        let ho = (h + 2 * pad - kh) / stride + 1;
        let wo = (w + 2 * pad - kw) / stride + 1;
        let ckk = c * kh * kw;
        let owo = ho * wo;
        let np = n * owo;
        let chw = c * h * w;

        let t0 = Instant::now();
        let geom = ConvGeom { c, h, w, kh, kw, stride, pad, ho, wo };
        let mut out = vec![0.0f32; n * o * owo];
        kernels::conv2d_nchw(&geom, n, o, &self.data(), &weight.data(), &mut out);
        kernels::metrics::record_conv(t0.elapsed(), 2 * (np * ckk * o) as u64);

        Tensor::from_op(
            vec![n, o, ho, wo],
            out,
            vec![self.clone(), weight.clone()],
            Box::new(move |g, parents| {
                let t0 = Instant::now();
                let mut flops = 0u64;
                // Gather dOut [n, o, owo] into rows layout [np, o]; both
                // gradient GEMMs consume it. Fully overwritten by the
                // gather, so a dirty buffer suffices.
                let mut g_rm = scratch::take_dirty(np * o);
                parallel_chunks_mut(&mut g_rm, owo * o, &|ni, block| {
                    let src = &g[ni * o * owo..(ni + 1) * o * owo];
                    for p in 0..owo {
                        let row = &mut block[p * o..(p + 1) * o];
                        for (oi, v) in row.iter_mut().enumerate() {
                            *v = src[oi * owo + p];
                        }
                    }
                });
                if parents[1].tracks_grad() {
                    // dW [o, ckk] = dOutᵀ [o, np] · cols [np, ckk], over the
                    // im2col rows the forward never built. im2col writes
                    // every element, so the buffer can be dirty.
                    let x_ref = parents[0].data();
                    let x: &[f32] = &x_ref;
                    let mut cols = scratch::take_dirty(np * ckk);
                    parallel_chunks_mut(&mut cols, owo * ckk, &|ni, block| {
                        let xs = &x[ni * chw..(ni + 1) * chw];
                        im2col_rows(xs, c, h, w, kh, kw, stride, pad, ho, wo, block);
                    });
                    let mut gw = vec![0.0f32; o * ckk];
                    sgemm(Trans::T, Trans::N, o, np, ckk, &g_rm, &cols, &mut gw);
                    flops += 2 * (o * np * ckk) as u64;
                    scratch::put(cols);
                    parents[1].accumulate_grad(&gw);
                }
                if parents[0].tracks_grad() {
                    // dCols [np, ckk] = dOut [np, o] · W [o, ckk], then
                    // col2im folds each sample's rows back onto dX.
                    let wt = parents[1].data();
                    let mut gcols = scratch::take(np * ckk);
                    sgemm(Trans::N, Trans::N, np, o, ckk, &g_rm, &wt, &mut gcols);
                    flops += 2 * (np * o * ckk) as u64;
                    let mut gx = vec![0.0f32; n * chw];
                    {
                        let gcols = &gcols[..];
                        parallel_chunks_mut(&mut gx, chw, &|ni, block| {
                            col2im_rows(
                                &gcols[ni * owo * ckk..(ni + 1) * owo * ckk],
                                c,
                                h,
                                w,
                                kh,
                                kw,
                                stride,
                                pad,
                                ho,
                                wo,
                                block,
                            );
                        });
                    }
                    scratch::put(gcols);
                    parents[0].accumulate_grad(&gx);
                }
                scratch::put(g_rm);
                if flops > 0 {
                    kernels::metrics::record_conv(t0.elapsed(), flops);
                }
            }),
        )
    }

    /// 2× nearest-neighbour upsampling of an NCHW tensor (the U-Net
    /// decoder's upsampling step).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 4-D.
    pub fn upsample_nearest2(&self) -> Tensor {
        let (n, c, h, w) = shape4(self.shape());
        let (h2, w2) = (h * 2, w * 2);
        let x = self.to_vec();
        let mut out = vec![0.0f32; n * c * h2 * w2];
        for nc in 0..n * c {
            let src = &x[nc * h * w..(nc + 1) * h * w];
            let dst = &mut out[nc * h2 * w2..(nc + 1) * h2 * w2];
            for y in 0..h2 {
                for xx in 0..w2 {
                    dst[y * w2 + xx] = src[(y / 2) * w + xx / 2];
                }
            }
        }
        Tensor::from_op(
            vec![n, c, h2, w2],
            out,
            vec![self.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    let mut gx = vec![0.0f32; n * c * h * w];
                    for nc in 0..n * c {
                        let gs = &g[nc * h2 * w2..(nc + 1) * h2 * w2];
                        let gd = &mut gx[nc * h * w..(nc + 1) * h * w];
                        for y in 0..h2 {
                            for xx in 0..w2 {
                                gd[(y / 2) * w + xx / 2] += gs[y * w2 + xx];
                            }
                        }
                    }
                    parents[0].accumulate_grad(&gx);
                }
            }),
        )
    }

    /// 2×2 average pooling with stride 2.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is 4-D with even spatial dimensions.
    pub fn avg_pool2(&self) -> Tensor {
        let (n, c, h, w) = shape4(self.shape());
        assert!(h % 2 == 0 && w % 2 == 0, "avg_pool2 needs even dims, got {h}x{w}");
        let (h2, w2) = (h / 2, w / 2);
        let x = self.to_vec();
        let mut out = vec![0.0f32; n * c * h2 * w2];
        for nc in 0..n * c {
            let src = &x[nc * h * w..(nc + 1) * h * w];
            let dst = &mut out[nc * h2 * w2..(nc + 1) * h2 * w2];
            for y in 0..h2 {
                for xx in 0..w2 {
                    let base = 2 * y * w + 2 * xx;
                    dst[y * w2 + xx] =
                        0.25 * (src[base] + src[base + 1] + src[base + w] + src[base + w + 1]);
                }
            }
        }
        Tensor::from_op(
            vec![n, c, h2, w2],
            out,
            vec![self.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    let mut gx = vec![0.0f32; n * c * h * w];
                    for nc in 0..n * c {
                        let gs = &g[nc * h2 * w2..(nc + 1) * h2 * w2];
                        let gd = &mut gx[nc * h * w..(nc + 1) * h * w];
                        for y in 0..h2 {
                            for xx in 0..w2 {
                                let gv = 0.25 * gs[y * w2 + xx];
                                let base = 2 * y * w + 2 * xx;
                                gd[base] += gv;
                                gd[base + 1] += gv;
                                gd[base + w] += gv;
                                gd[base + w + 1] += gv;
                            }
                        }
                    }
                    parents[0].accumulate_grad(&gx);
                }
            }),
        )
    }

    /// Global average pooling: `[N, C, H, W] -> [N, C]`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 4-D.
    pub fn global_avg_pool(&self) -> Tensor {
        let (n, c, h, w) = shape4(self.shape());
        let hw = (h * w) as f32;
        let x = self.to_vec();
        let mut out = vec![0.0f32; n * c];
        for (nc, o) in out.iter_mut().enumerate() {
            *o = x[nc * h * w..(nc + 1) * h * w].iter().sum::<f32>() / hw;
        }
        Tensor::from_op(
            vec![n, c],
            out,
            vec![self.clone()],
            Box::new(move |g, parents| {
                if parents[0].tracks_grad() {
                    let mut gx = vec![0.0f32; n * c * h * w];
                    for (nc, &gv) in g.iter().enumerate() {
                        let val = gv / hw;
                        for v in &mut gx[nc * h * w..(nc + 1) * h * w] {
                            *v += val;
                        }
                    }
                    parents[0].accumulate_grad(&gx);
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn conv_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input.
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = Tensor::from_vec(vec![1, 1, 1, 1], vec![1.0]);
        let y = x.conv2d(&w, 1, 0);
        assert_eq!(y.to_vec(), x.to_vec());
    }

    #[test]
    fn conv_known_3x3_sum_kernel() {
        // All-ones 3x3 kernel with pad 1: each output = sum of 3x3 neighbourhood.
        let x = Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let w = Tensor::from_vec(vec![1, 1, 3, 3], vec![1.0; 9]);
        let y = x.conv2d(&w, 1, 1);
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        // centre output sees all nine values
        assert_eq!(y.to_vec()[4], 45.0);
        // top-left sees 1,2,4,5
        assert_eq!(y.to_vec()[0], 12.0);
    }

    #[test]
    fn conv_stride_two_downsamples() {
        let x = Tensor::from_vec(vec![1, 1, 4, 4], (0..16).map(|v| v as f32).collect());
        let w = Tensor::from_vec(vec![1, 1, 2, 2], vec![0.25; 4]);
        let y = x.conv2d(&w, 2, 0);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.to_vec(), vec![2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn conv_batch_matches_per_sample() {
        // The batched GEMM must agree with running each sample alone.
        let mut rng = crate::seeded_rng(17);
        let x = Tensor::randn(vec![3, 2, 5, 5], 1.0, &mut rng);
        let w = Tensor::randn(vec![4, 2, 3, 3], 0.5, &mut rng);
        let batched = x.conv2d(&w, 1, 1).to_vec();
        let xv = x.to_vec();
        let per = 2 * 5 * 5;
        for ni in 0..3 {
            let xi = Tensor::from_vec(vec![1, 2, 5, 5], xv[ni * per..(ni + 1) * per].to_vec());
            let yi = xi.conv2d(&w, 1, 1).to_vec();
            let block = &batched[ni * yi.len()..(ni + 1) * yi.len()];
            for (a, b) in block.iter().zip(&yi) {
                assert!((a - b).abs() < 1e-5, "sample {ni}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn conv_gradients_match_finite_difference() {
        let mut rng = crate::seeded_rng(3);
        let x0 = Tensor::randn(vec![1, 2, 4, 4], 1.0, &mut rng).to_vec();
        let w0 = Tensor::randn(vec![3, 2, 3, 3], 0.5, &mut rng).to_vec();

        let loss_at = |xv: &[f32], wv: &[f32]| -> f32 {
            let x = Tensor::from_vec(vec![1, 2, 4, 4], xv.to_vec());
            let w = Tensor::from_vec(vec![3, 2, 3, 3], wv.to_vec());
            x.conv2d(&w, 1, 1).square().sum_all().item()
        };

        let x = Tensor::param(vec![1, 2, 4, 4], x0.clone());
        let w = Tensor::param(vec![3, 2, 3, 3], w0.clone());
        x.conv2d(&w, 1, 1).square().sum_all().backward();
        let gx = x.grad_vec();
        let gw = w.grad_vec();

        let h = 1e-2;
        for idx in [0usize, 7, 15, 31] {
            let mut xp = x0.clone();
            xp[idx] += h;
            let mut xm = x0.clone();
            xm[idx] -= h;
            let fd = (loss_at(&xp, &w0) - loss_at(&xm, &w0)) / (2.0 * h);
            assert!(
                (fd - gx[idx]).abs() < 0.05 * (1.0 + fd.abs()),
                "x grad {idx}: fd {fd} vs ad {}",
                gx[idx]
            );
        }
        for idx in [0usize, 10, 25, 53] {
            let mut wp = w0.clone();
            wp[idx] += h;
            let mut wm = w0.clone();
            wm[idx] -= h;
            let fd = (loss_at(&x0, &wp) - loss_at(&x0, &wm)) / (2.0 * h);
            assert!(
                (fd - gw[idx]).abs() < 0.05 * (1.0 + fd.abs()),
                "w grad {idx}: fd {fd} vs ad {}",
                gw[idx]
            );
        }
    }

    #[test]
    fn upsample_then_pool_is_identity() {
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = x.upsample_nearest2().avg_pool2();
        assert_eq!(y.to_vec(), x.to_vec());
    }

    #[test]
    fn upsample_gradient_sums_quads() {
        let x = Tensor::param(vec![1, 1, 1, 1], vec![5.0]);
        x.upsample_nearest2().sum_all().backward();
        assert_eq!(x.grad_vec(), vec![4.0]);
    }

    #[test]
    fn avg_pool_gradient_splits_evenly() {
        let x = Tensor::param(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        x.avg_pool2().sum_all().backward();
        assert_eq!(x.grad_vec(), vec![0.25; 4]);
    }

    #[test]
    fn global_avg_pool_shape_and_grad() {
        let x = Tensor::param(vec![2, 3, 2, 2], vec![1.0; 24]);
        let y = x.global_avg_pool();
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.to_vec(), vec![1.0; 6]);
        y.sum_all().backward();
        assert_eq!(x.grad_vec(), vec![0.25; 24]);
    }
}

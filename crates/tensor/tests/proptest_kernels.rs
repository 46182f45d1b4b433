//! Property-based parity tests for the blocked/threaded kernel layer: on
//! random shapes (including degenerate k = 0/1 products) the packed
//! [`sgemm`] must agree with the naive reference for every transpose
//! combination and thread budget, and the implicit-GEMM `conv2d` must
//! agree with a direct nested-loop convolution and with finite
//! differences, and bit for bit with an explicit im2col + [`sgemm`] +
//! NCHW scatter forward followed by a separate per-channel bias add.

use dcdiff_tensor::gradcheck::check_gradient;
use dcdiff_tensor::kernels::{gemm_naive, sgemm, sgemm_with_threads, Trans};
use dcdiff_tensor::{no_grad, Tensor};
use proptest::prelude::*;

fn values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, n)
}

/// Row-major transpose used to feed transposed operands to the naive
/// reference (the packed kernel reads them through strides instead).
fn transpose(rows: usize, cols: usize, a: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = a[r * cols + c];
        }
    }
    out
}

fn assert_parity(got: &[f32], want: &[f32]) -> Result<(), TestCaseError> {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let rel = (g - w).abs() / (1.0 + w.abs());
        prop_assert!(rel < 1e-4, "c[{i}]: blocked {g} vs naive {w} (rel {rel})");
    }
    Ok(())
}

/// Direct nested-loop 2-D convolution, the shape-agnostic ground truth for
/// the im2col + GEMM implementation.
#[allow(clippy::too_many_arguments)]
fn conv_reference(
    x: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    wt: &[f32],
    o: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let ho = (h + 2 * pad - kh) / stride + 1;
    let wo = (w + 2 * pad - kw) / stride + 1;
    let mut out = vec![0.0f32; n * o * ho * wo];
    for ni in 0..n {
        for oi in 0..o {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0f32;
                    for ci in 0..c {
                        for ky in 0..kh {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += x[((ni * c + ci) * h + iy as usize) * w + ix as usize]
                                    * wt[((oi * c + ci) * kh + ky) * kw + kx];
                            }
                        }
                    }
                    out[((ni * o + oi) * ho + oy) * wo + ox] = acc;
                }
            }
        }
    }
    out
}

/// The explicit-im2col convolution forward: unfold every sample into
/// rows-layout columns `[N*ho*wo, C*kh*kw]` (zero padding), multiply by the
/// transposed weight with [`sgemm`] into a zeroed row-major `[N*ho*wo, O]`
/// product, then scatter that to NCHW.
#[allow(clippy::too_many_arguments)]
fn conv_im2col_sgemm(
    x: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    wt: &[f32],
    o: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let ho = (h + 2 * pad - k) / stride + 1;
    let wo = (w + 2 * pad - k) / stride + 1;
    let (owo, ckk) = (ho * wo, c * k * k);
    let mut cols = vec![0.0f32; n * owo * ckk];
    for (row, col) in cols.chunks_exact_mut(ckk).enumerate() {
        let (s, oy, ox) = (row / owo, row % owo / wo, row % wo);
        for (q, v) in col.iter_mut().enumerate() {
            let (ci, ky, kx) = (q / (k * k), q % (k * k) / k, q % k);
            let iy = (oy * stride + ky) as isize - pad as isize;
            let ix = (ox * stride + kx) as isize - pad as isize;
            if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                *v = x[((s * c + ci) * h + iy as usize) * w + ix as usize];
            }
        }
    }
    let mut rows = vec![0.0f32; n * owo * o];
    sgemm(Trans::N, Trans::T, n * owo, ckk, o, &cols, wt, &mut rows);
    let mut out = vec![0.0f32; n * o * owo];
    for (row, vals) in rows.chunks_exact(o).enumerate() {
        let (s, p) = (row / owo, row % owo);
        for (oi, &v) in vals.iter().enumerate() {
            out[(s * o + oi) * owo + p] = v;
        }
    }
    out
}

/// `Tensor::conv2d` must reproduce [`conv_im2col_sgemm`] bit for bit, both
/// as an inference forward (`no_grad`) and as a training forward through a
/// parameter weight; and with a bias, the same product followed by a
/// per-channel add, the two-pass forward the fused bias writeback replaces.
#[allow(clippy::too_many_arguments)]
fn assert_conv_bit_identical(
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    k: usize,
    stride: usize,
    pad: usize,
    seed: u32,
) -> Result<(), TestCaseError> {
    let mix = |i: usize, s: f32| ((i as f32) * 0.377 + seed as f32 * 0.23 + s).sin();
    let xv: Vec<f32> = (0..n * c * h * w).map(|i| mix(i, 0.0)).collect();
    let wv: Vec<f32> = (0..o * c * k * k).map(|i| mix(i, 1.0) * 0.2).collect();
    let bv: Vec<f32> = (0..o).map(|i| mix(i, 2.0)).collect();
    let want = conv_im2col_sgemm(&xv, n, c, h, w, &wv, o, k, stride, pad);
    let plane = want.len() / (n * o);
    let want_biased: Vec<f32> = (want.iter().enumerate())
        .map(|(i, &v)| v + bv[i / plane % o])
        .collect();
    let x = Tensor::from_vec(vec![n, c, h, w], xv);
    for (biased, want) in [(false, &want), (true, &want_biased)] {
        let inference = no_grad(|| {
            let wt = Tensor::from_vec(vec![o, c, k, k], wv.clone());
            let bias = biased.then(|| Tensor::from_vec(vec![o], bv.clone()));
            x.conv2d(&wt, bias.as_ref(), stride, pad).to_vec()
        });
        let wt = Tensor::param(vec![o, c, k, k], wv.clone());
        let bias = biased.then(|| Tensor::param(vec![o], bv.clone()));
        let training = x.conv2d(&wt, bias.as_ref(), stride, pad).to_vec();
        let shape = format!("{n}x{c}x{h}x{w} -> {o}, k{k} s{stride} p{pad}, bias {biased}");
        for (mode, got) in [("no_grad", &inference), ("param", &training)] {
            prop_assert_eq!(got.len(), want.len(), "{} {}", mode, shape);
            for (i, (g, e)) in got.iter().zip(want).enumerate() {
                prop_assert!(
                    g.to_bits() == e.to_bits(),
                    "{mode} {shape} out[{i}]: {g} vs {e}"
                );
            }
        }
    }
    Ok(())
}

#[test]
fn conv2d_is_bit_identical_to_im2col_sgemm_at_network_shapes() {
    // (n, c, h, w, o, k, stride, pad): stage-1 `d_res0.conv1`, stride-2
    // `ac1` and `d_out` at 64x64, the U-Net and its `conv_out` on 8x8
    // latents, and the fused 8-lane U-Net convs on the 2x2 / 1x1 latents
    // of 16x16 tiles. `d_out` and `conv_out` fill less than one `nr`-wide
    // weight strip; c*k*k = 576 spans three KC = 256 depth panels, so a
    // bias added before the last one would round differently.
    for (n, c, h, w, o, k, stride, pad) in [
        (1, 24, 64, 64, 12, 3, 1, 1),
        (1, 12, 64, 64, 12, 3, 2, 1),
        (1, 12, 64, 64, 3, 3, 1, 1),
        (1, 16, 8, 8, 16, 3, 1, 1),
        (1, 16, 8, 8, 4, 3, 1, 1),
        (1, 16, 2, 2, 16, 3, 1, 1),
        (8, 48, 2, 2, 16, 3, 1, 1),
        (8, 64, 1, 1, 32, 3, 1, 1),
        (8, 32, 1, 1, 32, 1, 1, 0),
    ] {
        assert_conv_bit_identical(n, c, h, w, o, k, stride, pad, 5).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv2d_is_bit_identical_to_im2col_sgemm(
        n in 1usize..=8,
        h in 1usize..=70,
        w in 1usize..=70,
        c in 1usize..=32,
        o in 1usize..=24,
        k in 1usize..=3,
        stride in 1usize..=2,
        pad in 0usize..=1,
        seed in 0u32..1000,
    ) {
        // c*k*k reaches 288, across the KC = 256 depth panel; o crosses
        // NR = 16. The batch shrinks to keep a case's work bounded.
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let plane = ((h + 2 * pad - k) / stride + 1) * ((w + 2 * pad - k) / stride + 1);
        let n = n.min((1usize << 24) / (plane * c * k * k * o)).max(1);
        assert_conv_bit_identical(n, c, h, w, o, k, stride, pad, seed)?;
    }

    #[test]
    fn sgemm_matches_naive_on_random_shapes(
        m in 1usize..24,
        k in 0usize..24,
        n in 1usize..24,
        seed in 0u32..1000,
    ) {
        let mix = |i: usize, s: f32| ((i as f32) * 0.173 + seed as f32 * 0.31 + s).sin() * 1.5;
        let a: Vec<f32> = (0..m * k).map(|i| mix(i, 0.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|i| mix(i, 2.0)).collect();
        let mut want = vec![0.0f32; m * n];
        gemm_naive(m, k, n, &a, &b, &mut want);
        for threads in [1usize, 3] {
            let mut c = vec![0.0f32; m * n];
            sgemm_with_threads(threads, Trans::N, Trans::N, m, k, n, &a, &b, &mut c);
            assert_parity(&c, &want)?;
        }
    }

    #[test]
    fn sgemm_transpose_views_match_materialised_transposes(
        m in 1usize..16,
        k in 1usize..16,
        n in 1usize..16,
        a in values(16 * 16),
        b in values(16 * 16),
    ) {
        let a = &a[..m * k];
        let b = &b[..k * n];
        let mut want = vec![0.0f32; m * n];
        gemm_naive(m, k, n, a, b, &mut want);
        // Store A as [k, m] and read it back transposed; same for B.
        let a_t = transpose(m, k, a); // stored [k, m]
        let b_t = transpose(k, n, b); // stored [n, k]
        for (ta, tb, astore, bstore) in [
            (Trans::T, Trans::N, &a_t, &b.to_vec()),
            (Trans::N, Trans::T, &a.to_vec(), &b_t),
            (Trans::T, Trans::T, &a_t, &b_t),
        ] {
            let mut c = vec![0.0f32; m * n];
            sgemm_with_threads(2, ta, tb, m, k, n, astore, bstore, &mut c);
            assert_parity(&c, &want)?;
        }
    }

    #[test]
    fn sgemm_accumulates_like_naive(
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        init in values(12 * 12),
    ) {
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.7).cos()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.3).sin()).collect();
        let mut want = init[..m * n].to_vec();
        gemm_naive(m, k, n, &a, &b, &mut want);
        let mut c = init[..m * n].to_vec();
        sgemm_with_threads(1, Trans::N, Trans::N, m, k, n, &a, &b, &mut c);
        assert_parity(&c, &want)?;
    }

    #[test]
    fn conv2d_matches_direct_convolution(
        n in 1usize..4,
        c in 1usize..4,
        o in 1usize..4,
        hw in 3usize..8,
        ks in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u32..1000,
    ) {
        prop_assume!(hw + 2 * pad >= ks);
        let mix = |i: usize, s: f32| ((i as f32) * 0.41 + seed as f32 * 0.17 + s).sin();
        let xv: Vec<f32> = (0..n * c * hw * hw).map(|i| mix(i, 0.0)).collect();
        let wv: Vec<f32> = (0..o * c * ks * ks).map(|i| mix(i, 1.0)).collect();
        let want = conv_reference(&xv, n, c, hw, hw, &wv, o, ks, ks, stride, pad);
        let x = Tensor::from_vec(vec![n, c, hw, hw], xv);
        let wt = Tensor::from_vec(vec![o, c, ks, ks], wv);
        let got = x.conv2d(&wt, None, stride, pad).to_vec();
        prop_assert_eq!(got.len(), want.len());
        assert_parity(&got, &want)?;
    }

    #[test]
    fn conv2d_input_gradients_pass_gradcheck(
        stride in 1usize..3,
        x0 in values(2 * 2 * 4 * 4),
    ) {
        // batch 2 exercises the batched rows-layout gather/scatter
        let k = Tensor::from_vec(
            vec![2, 2, 3, 3],
            (0..36).map(|v| ((v as f32) * 0.23).sin() * 0.5).collect(),
        );
        let report = check_gradient(&[2, 2, 4, 4], &x0, &[0, 5, 17, 31, 40, 63], 1e-3, |x| {
            x.conv2d(&k, None, stride, 1).square().sum_all()
        });
        prop_assert!(report.passes(2e-2), "stride {stride}: {report:?}");
    }

    #[test]
    fn conv2d_weight_gradients_match_finite_difference(
        w0 in values(2 * 2 * 2 * 2),
        b0 in values(2),
        seed in 0u32..1000,
    ) {
        let xv: Vec<f32> = (0..2 * 2 * 4 * 4)
            .map(|i| ((i as f32) * 0.29 + seed as f32 * 0.13).sin())
            .collect();
        let x = Tensor::from_vec(vec![2, 2, 4, 4], xv);
        let loss_at = |wv: &[f32], bv: &[f32]| -> f32 {
            let w = Tensor::from_vec(vec![2, 2, 2, 2], wv.to_vec());
            let b = Tensor::from_vec(vec![2], bv.to_vec());
            x.conv2d(&w, Some(&b), 2, 0).square().sum_all().item()
        };
        let w = Tensor::param(vec![2, 2, 2, 2], w0.clone());
        let b = Tensor::param(vec![2], b0.clone());
        x.conv2d(&w, Some(&b), 2, 0).square().sum_all().backward();
        let (gw, gb) = (w.grad_vec(), b.grad_vec());
        let h = 1e-3;
        let nudged = |v: &[f32], idx: usize, by: f32| {
            let mut v = v.to_vec();
            v[idx] += by;
            v
        };
        for idx in [0usize, 5, 9, 15] {
            let fd = (loss_at(&nudged(&w0, idx, h), &b0) - loss_at(&nudged(&w0, idx, -h), &b0))
                / (2.0 * h);
            prop_assert!(
                (fd - gw[idx]).abs() < 2e-2 * (1.0 + fd.abs()),
                "w grad {idx}: fd {fd} vs ad {}",
                gw[idx]
            );
        }
        for idx in [0usize, 1] {
            let fd = (loss_at(&w0, &nudged(&b0, idx, h)) - loss_at(&w0, &nudged(&b0, idx, -h)))
                / (2.0 * h);
            prop_assert!(
                (fd - gb[idx]).abs() < 2e-2 * (1.0 + fd.abs()),
                "bias grad {idx}: fd {fd} vs ad {}",
                gb[idx]
            );
        }
    }
}

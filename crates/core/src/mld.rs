//! The masked Laplacian distribution (MLD) loss — Eq. 4 of the paper.
//!
//! `L_m = Σ M ⊙ ((Δ_h x̂_{i,j} − Δ_h x̂_{i,j−1})² + (Δ_w x̂_{i,j} −
//! Δ_w x̂_{i−1,j})²)` where `Δ` are forward differences — i.e. the
//! masked second differences of the reconstruction must be small, which
//! is exactly the statement that unmasked (low-frequency) regions follow
//! the Laplacian smoothness prior.

use dcdiff_image::Plane;
use dcdiff_tensor::Tensor;

/// Differentiable MLD loss over a batch.
///
/// * `x_hat` — reconstruction `[N, C, H, W]` (any pixel scaling);
/// * `mask` — Eq. 3 masks, one plane per sample, each `H × W`.
///
/// The second differences are computed with constant per-channel
/// convolution kernels, so gradients flow into `x_hat` only. Returns a
/// scalar (mean over all masked positions).
///
/// # Panics
///
/// Panics if the mask count or sizes disagree with `x_hat`, or the image
/// is smaller than 3×3.
pub fn mld_loss(x_hat: &Tensor, masks: &[Plane]) -> Tensor {
    let shape = x_hat.shape().to_vec();
    assert_eq!(shape.len(), 4, "x_hat must be NCHW");
    let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
    assert!(h >= 3 && w >= 3, "mld needs at least 3x3 images");
    assert_eq!(masks.len(), n, "one mask per sample");
    for m in masks {
        assert_eq!(m.dims(), (w, h), "mask size mismatch");
    }

    // per-channel second-difference kernels as identity-routed dense convs
    let mut kh = vec![0.0f32; c * c * 3];
    let mut kv = vec![0.0f32; c * c * 3];
    for ch in 0..c {
        let base = ch * c * 3 + ch * 3;
        kh[base] = 1.0;
        kh[base + 1] = -2.0;
        kh[base + 2] = 1.0;
        kv[base] = 1.0;
        kv[base + 1] = -2.0;
        kv[base + 2] = 1.0;
    }
    let kernel_h = Tensor::from_vec(vec![c, c, 1, 3], kh);
    let kernel_v = Tensor::from_vec(vec![c, c, 3, 1], kv);

    // horizontal second differences: output [N, C, H, W-2]
    let dh = x_hat.conv2d(&kernel_h, None, 1, 0);
    // vertical: [N, C, H-2, W]
    let dv = x_hat.conv2d(&kernel_v, None, 1, 0);

    // mask at the centre position of each 3-tap window; a window is valid
    // only when all three pixels are unmasked
    let mut mh = Vec::with_capacity(n * c * h * (w - 2));
    for m in masks {
        let mut plane_mask = Vec::with_capacity(h * (w - 2));
        for y in 0..h {
            for x in 1..w - 1 {
                let keep = m.get(x - 1, y) * m.get(x, y) * m.get(x + 1, y);
                plane_mask.push(keep);
            }
        }
        for _ in 0..c {
            mh.extend_from_slice(&plane_mask);
        }
    }
    let mut mv = Vec::with_capacity(n * c * (h - 2) * w);
    for m in masks {
        let mut plane_mask = Vec::with_capacity((h - 2) * w);
        for y in 1..h - 1 {
            for x in 0..w {
                let keep = m.get(x, y - 1) * m.get(x, y) * m.get(x, y + 1);
                plane_mask.push(keep);
            }
        }
        for _ in 0..c {
            mv.extend_from_slice(&plane_mask);
        }
    }
    let mask_h = Tensor::from_vec(vec![n, c, h, w - 2], mh);
    let mask_v = Tensor::from_vec(vec![n, c, h - 2, w], mv);

    dh.square()
        .mul(&mask_h)
        .mean_all()
        .add(&dv.square().mul(&mask_v).mean_all())
}

/// Pixel-domain MLD energy of a single luma plane (diagnostic / used by
/// the refinement): mean masked squared second difference.
///
/// # Panics
///
/// Panics on size mismatch or images smaller than 3×3.
pub fn mld_energy(plane: &Plane, mask: &Plane) -> f32 {
    let (w, h) = plane.dims();
    assert_eq!(mask.dims(), (w, h), "mask size mismatch");
    assert!(w >= 3 && h >= 3, "mld needs at least 3x3 images");
    let mut sum = 0.0f64;
    let mut count = 0u64;
    for y in 0..h {
        for x in 1..w - 1 {
            if mask.get(x - 1, y) > 0.5 && mask.get(x, y) > 0.5 && mask.get(x + 1, y) > 0.5 {
                let d = plane.get(x - 1, y) - 2.0 * plane.get(x, y) + plane.get(x + 1, y);
                sum += (d * d) as f64;
                count += 1;
            }
        }
    }
    for y in 1..h - 1 {
        for x in 0..w {
            if mask.get(x, y - 1) > 0.5 && mask.get(x, y) > 0.5 && mask.get(x, y + 1) > 0.5 {
                let d = plane.get(x, y - 1) - 2.0 * plane.get(x, y) + plane.get(x, y + 1);
                sum += (d * d) as f64;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        (sum / count as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_ramp_has_zero_loss() {
        // second differences of a linear ramp vanish
        let n = 1;
        let (c, h, w) = (2, 6, 6);
        let mut data = Vec::new();
        for _ in 0..c {
            for y in 0..h {
                for x in 0..w {
                    data.push((2 * x + 3 * y) as f32);
                }
            }
        }
        let x = Tensor::from_vec(vec![n, c, h, w], data);
        let mask = vec![Plane::filled(w, h, 1.0)];
        assert!(mld_loss(&x, &mask).item() < 1e-6);
    }

    #[test]
    fn curvature_is_penalised() {
        let (h, w) = (6, 6);
        let mut data = Vec::new();
        for y in 0..h {
            for x in 0..w {
                data.push((x * x + y * y) as f32);
            }
        }
        let x = Tensor::from_vec(vec![1, 1, h, w], data);
        let mask = vec![Plane::filled(w, h, 1.0)];
        assert!(mld_loss(&x, &mask).item() > 1.0);
    }

    #[test]
    fn masked_regions_do_not_contribute() {
        let (h, w) = (6, 6);
        let mut data = Vec::new();
        for y in 0..h {
            for x in 0..w {
                data.push(if x >= 3 { (x * x + y) as f32 } else { x as f32 });
            }
        }
        let x = Tensor::from_vec(vec![1, 1, h, w], data);
        // mask out the curved right half (and the boundary windows that
        // touch it)
        let mask = vec![Plane::from_fn(w, h, |x, _| if x < 3 { 1.0 } else { 0.0 })];
        let loss = mld_loss(&x, &mask).item();
        assert!(loss < 1e-6, "masked curvature leaked: {loss}");
    }

    #[test]
    fn gradients_reach_the_reconstruction() {
        let x = Tensor::param(vec![1, 1, 4, 4], (0..16).map(|v| (v * v) as f32).collect());
        let mask = vec![Plane::filled(4, 4, 1.0)];
        mld_loss(&x, &mask).backward();
        assert!(x.grad_vec().iter().any(|&g| g != 0.0));
    }

    #[test]
    fn pixel_energy_matches_intuition() {
        let flat = Plane::from_fn(8, 8, |x, y| (x + y) as f32);
        let curved = Plane::from_fn(8, 8, |x, y| (x * x + y * y) as f32);
        let mask = Plane::filled(8, 8, 1.0);
        assert!(mld_energy(&flat, &mask) < 1e-6);
        assert!(mld_energy(&curved, &mask) > 1.0);
    }

    #[test]
    fn fully_masked_energy_is_zero() {
        let curved = Plane::from_fn(8, 8, |x, y| (x * x * y) as f32);
        let mask = Plane::filled(8, 8, 0.0);
        assert_eq!(mld_energy(&curved, &mask), 0.0);
    }
}

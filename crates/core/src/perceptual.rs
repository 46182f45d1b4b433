//! Differentiable perceptual loss for stage-1 training (`L_per` in
//! Eq. 5).
//!
//! Like [`dcdiff_metrics::PerceptualDistance`] this uses frozen random
//! band-pass convolution features in place of a pretrained VGG (see
//! `DESIGN.md`), but operates on tensors so gradients reach the
//! reconstruction.

use dcdiff_tensor::{seeded_rng, Tensor};

/// Frozen random-feature perceptual loss.
#[derive(Debug, Clone)]
pub struct PerceptualLoss {
    /// Constant filter bank `[F, 3, 3, 3]`.
    filters: Tensor,
    scales: usize,
}

impl Default for PerceptualLoss {
    fn default() -> Self {
        Self::new(0xFEA7, 8, 2)
    }
}

impl PerceptualLoss {
    /// Build a loss with `num_filters` random 3×3 filters compared over
    /// `scales` dyadic scales.
    ///
    /// # Panics
    ///
    /// Panics if `num_filters` or `scales` is zero.
    pub fn new(seed: u64, num_filters: usize, scales: usize) -> Self {
        assert!(num_filters > 0 && scales > 0);
        let mut rng = seeded_rng(seed);
        let raw = Tensor::randn(vec![num_filters, 3, 3, 3], 1.0, &mut rng);
        // zero-mean each filter so features are band-pass
        let mut data = raw.to_vec();
        for f in data.chunks_mut(27) {
            let mean: f32 = f.iter().sum::<f32>() / 27.0;
            let mut norm = 0.0f32;
            for v in f.iter_mut() {
                *v -= mean;
                norm += *v * *v;
            }
            let norm = norm.sqrt().max(1e-6);
            for v in f.iter_mut() {
                *v /= norm;
            }
        }
        Self {
            filters: Tensor::from_vec(vec![num_filters, 3, 3, 3], data),
            scales,
        }
    }

    /// Perceptual loss between a reconstruction and a (constant) target,
    /// both `[N, 3, H, W]`. Returns a scalar; gradients flow into `x_hat`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or non-3-channel inputs.
    pub fn loss(&self, x_hat: &Tensor, target: &Tensor) -> Tensor {
        assert_eq!(x_hat.shape(), target.shape(), "shape mismatch");
        assert_eq!(x_hat.shape()[1], 3, "perceptual loss expects RGB");
        let mut a = x_hat.clone();
        let mut b = target.detach();
        let mut total = Tensor::zeros(vec![1]);
        for s in 0..self.scales {
            let fa = a.conv2d(&self.filters, None, 1, 1);
            let fb = b.conv2d(&self.filters, None, 1, 1);
            total = total.add(&fa.mse(&fb));
            if s + 1 < self.scales {
                a = a.avg_pool2();
                b = b.avg_pool2();
            }
        }
        total.scale(1.0 / self.scales as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_inputs_have_zero_loss() {
        let p = PerceptualLoss::default();
        let mut rng = seeded_rng(1);
        let x = Tensor::randn(vec![1, 3, 8, 8], 1.0, &mut rng);
        assert!(p.loss(&x, &x).item() < 1e-10);
    }

    #[test]
    fn loss_grows_with_structural_difference() {
        let p = PerceptualLoss::default();
        let mut rng = seeded_rng(2);
        let x = Tensor::randn(vec![1, 3, 16, 16], 1.0, &mut rng);
        let near = x.add(&Tensor::randn(vec![1, 3, 16, 16], 0.05, &mut rng));
        let far = x.add(&Tensor::randn(vec![1, 3, 16, 16], 0.5, &mut rng));
        assert!(p.loss(&x, &far).item() > p.loss(&x, &near).item());
    }

    #[test]
    fn gradients_flow_to_reconstruction() {
        let p = PerceptualLoss::default();
        let mut rng = seeded_rng(3);
        let x = Tensor::param(vec![1, 3, 8, 8], vec![0.1; 192]);
        let t = Tensor::randn(vec![1, 3, 8, 8], 1.0, &mut rng);
        p.loss(&x, &t).backward();
        assert!(x.grad_vec().iter().any(|&g| g != 0.0));
    }

    #[test]
    fn constant_offset_is_cheap() {
        // band-pass filters ignore DC shifts: offset costs ~nothing
        let p = PerceptualLoss::default();
        let mut rng = seeded_rng(4);
        let x = Tensor::randn(vec![1, 3, 16, 16], 1.0, &mut rng);
        let shifted = x.add_scalar(0.3);
        let blurred = x.avg_pool2().upsample_nearest2();
        assert!(p.loss(&shifted, &x).item() < p.loss(&blurred, &x).item());
    }
}

use dcdiff_tensor::Tensor;

/// A variance schedule for the forward diffusion process (Eq. 1 of the
/// paper): `q(z_t | z_{t-1}) = N(sqrt(1-β_t) z_{t-1}, β_t I)`.
///
/// Precomputes `α_t = 1 − β_t` and the cumulative products `ᾱ_t` so the
/// closed-form `q(z_t | z_0)` can be sampled directly.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseSchedule {
    betas: Vec<f32>,
    alpha_bars: Vec<f32>,
}

impl NoiseSchedule {
    /// Linear β schedule from `beta_start` to `beta_end` over `steps`
    /// timesteps (the DDPM default is `1e-4 → 2e-2` over 1000).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < beta_start <= beta_end < 1` and `steps > 0`.
    pub fn linear(steps: usize, beta_start: f32, beta_end: f32) -> Self {
        assert!(steps > 0, "schedule needs at least one step");
        assert!(
            0.0 < beta_start && beta_start <= beta_end && beta_end < 1.0,
            "betas must satisfy 0 < start <= end < 1"
        );
        let betas: Vec<f32> = (0..steps)
            .map(|t| {
                if steps == 1 {
                    beta_start
                } else {
                    beta_start + (beta_end - beta_start) * t as f32 / (steps - 1) as f32
                }
            })
            .collect();
        Self::from_betas(betas)
    }

    /// Cosine schedule (Nichol & Dhariwal) over `steps` timesteps.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn cosine(steps: usize) -> Self {
        assert!(steps > 0, "schedule needs at least one step");
        let s = 0.008f32;
        let f = |t: f32| ((t / steps as f32 + s) / (1.0 + s) * std::f32::consts::FRAC_PI_2).cos().powi(2);
        let f0 = f(0.0);
        let betas: Vec<f32> = (0..steps)
            .map(|t| {
                let ab_t = f((t + 1) as f32) / f0;
                let ab_prev = f(t as f32) / f0;
                (1.0 - ab_t / ab_prev).clamp(1e-5, 0.999)
            })
            .collect();
        Self::from_betas(betas)
    }

    /// Build from explicit β values.
    ///
    /// # Panics
    ///
    /// Panics if any β is outside `(0, 1)` or the list is empty.
    pub fn from_betas(betas: Vec<f32>) -> Self {
        assert!(!betas.is_empty(), "schedule needs at least one step");
        assert!(
            betas.iter().all(|&b| 0.0 < b && b < 1.0),
            "betas must lie in (0, 1)"
        );
        let mut alpha_bars = Vec::with_capacity(betas.len());
        let mut prod = 1.0f32;
        for &b in &betas {
            prod *= 1.0 - b;
            alpha_bars.push(prod);
        }
        Self { betas, alpha_bars }
    }

    /// Number of diffusion timesteps `T`.
    pub fn steps(&self) -> usize {
        self.betas.len()
    }

    /// `β_t` for `t` in `0..T`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= T`.
    pub fn beta(&self, t: usize) -> f32 {
        self.betas[t]
    }

    /// Cumulative `ᾱ_t = Π (1 − β_i)`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= T`.
    pub fn alpha_bar(&self, t: usize) -> f32 {
        self.alpha_bars[t]
    }

    /// Sample `z_t ~ q(z_t | z_0)` in closed form:
    /// `z_t = sqrt(ᾱ_t) z_0 + sqrt(1 − ᾱ_t) ε`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= T` or shapes differ.
    pub fn q_sample(&self, z0: &Tensor, t: usize, eps: &Tensor) -> Tensor {
        let ab = self.alpha_bar(t);
        z0.scale(ab.sqrt()).add(&eps.scale((1.0 - ab).sqrt()))
    }

    /// Project `(z_t, ε̂)` back to an estimate of `z_0`:
    /// `ẑ_0 = (z_t − sqrt(1 − ᾱ_t) ε̂) / sqrt(ᾱ_t)`.
    ///
    /// Gradients flow through `ε̂`, which is what lets the masked
    /// Laplacian loss (computed on the decoded ẑ_0) train the noise
    /// prediction network (§III-E).
    ///
    /// # Panics
    ///
    /// Panics if `t >= T` or shapes differ.
    pub fn predict_z0(&self, zt: &Tensor, t: usize, eps_hat: &Tensor) -> Tensor {
        let ab = self.alpha_bar(t);
        zt.sub(&eps_hat.scale((1.0 - ab).sqrt()))
            .scale(1.0 / ab.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_tensor::seeded_rng;

    #[test]
    fn linear_schedule_monotone() {
        let s = NoiseSchedule::linear(1000, 1e-4, 2e-2);
        assert_eq!(s.steps(), 1000);
        assert!(s.beta(0) < s.beta(999));
        // alpha_bar decreases monotonically towards ~0
        for t in 1..1000 {
            assert!(s.alpha_bar(t) < s.alpha_bar(t - 1));
        }
        assert!(s.alpha_bar(999) < 0.01, "terminal abar {}", s.alpha_bar(999));
        assert!(s.alpha_bar(0) > 0.99);
    }

    #[test]
    fn cosine_schedule_is_valid() {
        let s = NoiseSchedule::cosine(500);
        for t in 0..500 {
            assert!(s.beta(t) > 0.0 && s.beta(t) < 1.0);
        }
        assert!(s.alpha_bar(499) < 0.01);
    }

    #[test]
    fn q_sample_interpolates_between_signal_and_noise() {
        let s = NoiseSchedule::linear(100, 1e-4, 2e-2);
        let z0 = Tensor::full(vec![1, 1, 2, 2], 3.0);
        let eps = Tensor::full(vec![1, 1, 2, 2], 1.0);
        let early = s.q_sample(&z0, 0, &eps).to_vec()[0];
        let late = s.q_sample(&z0, 99, &eps).to_vec()[0];
        assert!((early - 3.0).abs() < 0.1, "early {early} ~ signal");
        assert!((late - 3.0).abs() > (early - 3.0).abs(), "late is noisier");
    }

    #[test]
    fn predict_z0_inverts_q_sample_exactly() {
        let s = NoiseSchedule::linear(50, 1e-3, 5e-2);
        let mut rng = seeded_rng(0);
        let z0 = Tensor::randn(vec![2, 3, 4, 4], 1.0, &mut rng);
        let eps = Tensor::randn(vec![2, 3, 4, 4], 1.0, &mut rng);
        for t in [0usize, 20, 49] {
            let zt = s.q_sample(&z0, t, &eps);
            let rec = s.predict_z0(&zt, t, &eps);
            for (a, b) in z0.to_vec().iter().zip(rec.to_vec()) {
                assert!((a - b).abs() < 1e-3, "t={t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn predict_z0_propagates_gradients_to_eps() {
        let s = NoiseSchedule::linear(10, 1e-3, 2e-2);
        let zt = Tensor::full(vec![1, 1, 1, 1], 1.0);
        let eps = Tensor::param(vec![1, 1, 1, 1], vec![0.5]);
        s.predict_z0(&zt, 5, &eps).sum_all().backward();
        let ab = s.alpha_bar(5);
        let expected = -(1.0 - ab).sqrt() / ab.sqrt();
        assert!((eps.grad_vec()[0] - expected).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "betas must satisfy")]
    fn invalid_betas_rejected() {
        NoiseSchedule::linear(10, 0.5, 0.2);
    }
}

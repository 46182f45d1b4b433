use dcdiff_telemetry::names;
use dcdiff_tensor::{Rng, Tensor};

use crate::NoiseSchedule;

/// Deterministic DDIM sampler (Song et al., η = 0).
///
/// The sampler visits a strided subsequence of the training schedule's
/// timesteps. At each visited step it asks the caller-provided noise
/// predictor for `ε̂(z_t, t)`, projects to `ẑ_0`, and moves to the
/// previous visited timestep along the DDIM ODE:
///
/// `z_{t'} = sqrt(ᾱ_{t'}) ẑ_0 + sqrt(1 − ᾱ_{t'}) ε̂`.
///
/// # Example
///
/// ```
/// use dcdiff_diffusion::{DdimSampler, NoiseSchedule};
/// use dcdiff_tensor::{seeded_rng, Tensor};
///
/// let schedule = NoiseSchedule::linear(100, 1e-4, 2e-2);
/// let sampler = DdimSampler::new(schedule, 10);
/// let mut rng = seeded_rng(0);
/// // a "perfect" predictor for z0 = 0 simply returns z_t / sqrt(1 - abar)
/// let sched = sampler.schedule().clone();
/// let out = sampler.sample(&[1, 1, 4, 4], &mut rng, |zt, t| {
///     zt.scale(1.0 / (1.0 - sched.alpha_bar(t)).sqrt())
/// });
/// assert!(out.to_vec().iter().all(|v| v.abs() < 1e-3));
/// ```
#[derive(Debug, Clone)]
pub struct DdimSampler {
    schedule: NoiseSchedule,
    steps: usize,
}

impl DdimSampler {
    /// Create a sampler taking `steps` DDIM steps over `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero or exceeds the schedule length.
    pub fn new(schedule: NoiseSchedule, steps: usize) -> Self {
        assert!(
            steps > 0 && steps <= schedule.steps(),
            "ddim steps must be in 1..=T"
        );
        Self { schedule, steps }
    }

    /// The underlying noise schedule.
    pub fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// Number of DDIM steps taken.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The descending subsequence of timesteps the sampler visits.
    pub fn timesteps(&self) -> Vec<usize> {
        let t_max = self.schedule.steps();
        let mut ts: Vec<usize> = (0..self.steps)
            .map(|i| i * t_max / self.steps)
            .collect();
        ts.dedup();
        ts.reverse();
        ts
    }

    /// Run the full reverse process from Gaussian noise.
    ///
    /// `eps_fn(z_t, t)` must return the predicted noise for latent `z_t`
    /// at timestep `t`. The result is the final `ẑ_0`.
    pub fn sample(
        &self,
        shape: &[usize],
        rng: &mut Rng,
        eps_fn: impl Fn(&Tensor, usize) -> Tensor,
    ) -> Tensor {
        let result: Result<Tensor, std::convert::Infallible> =
            self.try_sample(shape, rng, |z_t, t| Ok(eps_fn(z_t, t)));
        match result {
            Ok(z) => z,
        }
    }

    /// Fallible variant of [`DdimSampler::sample`] supporting cooperative
    /// cancellation.
    ///
    /// The noise predictor may return `Err` (deadline blown, resource
    /// exhausted, shutdown requested); sampling stops at that step and
    /// the error propagates immediately instead of burning the remaining
    /// DDIM steps.
    ///
    /// # Errors
    ///
    /// Returns the first error produced by `eps_fn`; no further steps run.
    pub fn try_sample<E>(
        &self,
        shape: &[usize],
        rng: &mut Rng,
        mut eps_fn: impl FnMut(&Tensor, usize) -> Result<Tensor, E>,
    ) -> Result<Tensor, E> {
        let mut z = Tensor::randn(shape.to_vec(), 1.0, rng);
        let ts = self.timesteps();
        // Per-step spans land in the process-wide trace when one is
        // installed (e.g. `dcdiff batch --trace`); otherwise inert.
        let tel = dcdiff_telemetry::global();
        for (i, &t) in ts.iter().enumerate() {
            let _step = tel.span(names::SPAN_RECOVER_DDIM_STEP);
            let eps = eps_fn(&z, t)?.detach();
            let z0 = self.schedule.predict_z0(&z, t, &eps);
            if i + 1 < ts.len() {
                let t_prev = ts[i + 1];
                let ab_prev = self.schedule.alpha_bar(t_prev);
                z = z0
                    .scale(ab_prev.sqrt())
                    .add(&eps.scale((1.0 - ab_prev).sqrt()))
                    .detach();
            } else {
                z = z0.detach();
            }
        }
        Ok(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_tensor::seeded_rng;

    #[test]
    fn timesteps_are_strictly_descending() {
        let sampler = DdimSampler::new(NoiseSchedule::linear(1000, 1e-4, 2e-2), 50);
        let ts = sampler.timesteps();
        assert_eq!(ts.len(), 50);
        for w in ts.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert_eq!(*ts.last().unwrap(), 0);
    }

    #[test]
    fn full_step_count_visits_every_timestep() {
        let sampler = DdimSampler::new(NoiseSchedule::linear(20, 1e-3, 2e-2), 20);
        assert_eq!(sampler.timesteps().len(), 20);
    }

    #[test]
    fn oracle_predictor_recovers_constant_target() {
        // If the model always predicts the exact noise that separates z_t
        // from a fixed target z0*, DDIM must land on z0*.
        let schedule = NoiseSchedule::linear(100, 1e-4, 2e-2);
        let sampler = DdimSampler::new(schedule.clone(), 10);
        let target = 2.5f32;
        let mut rng = seeded_rng(1);
        let out = sampler.sample(&[1, 1, 2, 2], &mut rng, |zt, t| {
            // eps = (z_t - sqrt(abar) z0*) / sqrt(1 - abar)
            let ab = schedule.alpha_bar(t);
            zt.add_scalar(-ab.sqrt() * target)
                .scale(1.0 / (1.0 - ab).sqrt())
        });
        for v in out.to_vec() {
            assert!((v - target).abs() < 1e-2, "got {v}, want {target}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let schedule = NoiseSchedule::linear(50, 1e-4, 2e-2);
        let sampler = DdimSampler::new(schedule, 5);
        let run = |seed: u64| {
            let mut rng = seeded_rng(seed);
            sampler
                .sample(&[1, 2, 2, 2], &mut rng, |zt, _| zt.scale(0.1))
                .to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    #[should_panic(expected = "ddim steps")]
    fn rejects_zero_steps() {
        DdimSampler::new(NoiseSchedule::linear(10, 1e-3, 2e-2), 0);
    }

    #[test]
    fn try_sample_stops_at_first_error() {
        let sampler = DdimSampler::new(NoiseSchedule::linear(100, 1e-4, 2e-2), 10);
        let mut rng = seeded_rng(3);
        let mut calls = 0usize;
        let result: Result<Tensor, &str> = sampler.try_sample(&[1, 1, 2, 2], &mut rng, |zt, _| {
            calls += 1;
            if calls == 4 {
                Err("deadline blown")
            } else {
                Ok(zt.scale(0.1))
            }
        });
        assert_eq!(result.unwrap_err(), "deadline blown");
        assert_eq!(calls, 4, "sampling must stop at the failing step");
    }

    #[test]
    fn try_sample_matches_sample_when_infallible() {
        let sampler = DdimSampler::new(NoiseSchedule::linear(50, 1e-4, 2e-2), 5);
        let mut r1 = seeded_rng(9);
        let mut r2 = seeded_rng(9);
        let a = sampler.sample(&[1, 1, 2, 2], &mut r1, |zt, _| zt.scale(0.1));
        let b: Result<Tensor, std::convert::Infallible> =
            sampler.try_sample(&[1, 1, 2, 2], &mut r2, |zt, _| Ok(zt.scale(0.1)));
        assert_eq!(a.to_vec(), b.unwrap().to_vec());
    }
}

/// Stochastic ancestral (DDPM) sampler — the full-`T` reverse chain of
/// Ho et al. used during the paper's training-time analyses; DDIM is the
/// fast deterministic special case used at deployment.
#[derive(Debug, Clone)]
pub struct DdpmSampler {
    schedule: NoiseSchedule,
}

impl DdpmSampler {
    /// Create a sampler over the full training schedule.
    pub fn new(schedule: NoiseSchedule) -> Self {
        Self { schedule }
    }

    /// The underlying schedule.
    pub fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// Run the full `T`-step ancestral reverse process.
    ///
    /// `eps_fn(z_t, t)` returns the predicted noise. Each step samples
    /// `z_{t-1} ~ N(mu_theta(z_t, t), sigma_t^2 I)` with the posterior
    /// variance `sigma_t^2 = beta_t (1 - abar_{t-1}) / (1 - abar_t)`.
    pub fn sample(
        &self,
        shape: &[usize],
        rng: &mut Rng,
        eps_fn: impl Fn(&Tensor, usize) -> Tensor,
    ) -> Tensor {
        let t_max = self.schedule.steps();
        let mut z = Tensor::randn(shape.to_vec(), 1.0, rng);
        for t in (0..t_max).rev() {
            let eps = eps_fn(&z, t).detach();
            let beta = self.schedule.beta(t);
            let alpha = 1.0 - beta;
            let abar = self.schedule.alpha_bar(t);
            // mu = (z - beta/sqrt(1-abar) * eps) / sqrt(alpha)
            let mu = z
                .sub(&eps.scale(beta / (1.0 - abar).sqrt()))
                .scale(1.0 / alpha.sqrt());
            if t == 0 {
                z = mu.detach();
            } else {
                let abar_prev = self.schedule.alpha_bar(t - 1);
                let var = beta * (1.0 - abar_prev) / (1.0 - abar);
                let noise = Tensor::randn(shape.to_vec(), 1.0, rng);
                z = mu.add(&noise.scale(var.sqrt())).detach();
            }
        }
        z
    }
}

#[cfg(test)]
mod ddpm_tests {
    use super::*;
    use dcdiff_tensor::seeded_rng;

    #[test]
    fn oracle_predictor_lands_near_target() {
        let schedule = NoiseSchedule::linear(50, 1e-3, 3e-2);
        let sampler = DdpmSampler::new(schedule.clone());
        let target = -1.5f32;
        let mut rng = seeded_rng(2);
        let out = sampler.sample(&[1, 1, 2, 2], &mut rng, |zt, t| {
            let ab = schedule.alpha_bar(t);
            zt.add_scalar(-ab.sqrt() * target)
                .scale(1.0 / (1.0 - ab).sqrt())
        });
        for v in out.to_vec() {
            // ancestral sampling is stochastic: allow posterior spread
            assert!((v - target).abs() < 0.8, "got {v}, want ~{target}");
        }
    }

    #[test]
    fn different_seeds_give_different_samples() {
        let schedule = NoiseSchedule::linear(20, 1e-3, 2e-2);
        let sampler = DdpmSampler::new(schedule);
        let run = |seed: u64| {
            let mut rng = seeded_rng(seed);
            sampler.sample(&[1, 1, 2, 2], &mut rng, |zt, _| zt.scale(0.05)).to_vec()
        };
        assert_ne!(run(1), run(2), "ancestral sampling must be stochastic");
    }

    #[test]
    fn matches_ddim_in_expectation_roughly() {
        // with an oracle predictor both samplers should land near the
        // same target; compare their means over a few seeds
        let schedule = NoiseSchedule::linear(40, 1e-3, 2e-2);
        let ddpm = DdpmSampler::new(schedule.clone());
        let ddim = DdimSampler::new(schedule.clone(), 40);
        let target = 0.8f32;
        let oracle = |zt: &Tensor, t: usize| {
            let ab = schedule.alpha_bar(t);
            zt.add_scalar(-ab.sqrt() * target)
                .scale(1.0 / (1.0 - ab).sqrt())
        };
        let mut ddpm_mean = 0.0f32;
        let mut ddim_mean = 0.0f32;
        for seed in 0..6 {
            let mut r1 = seeded_rng(seed);
            let mut r2 = seeded_rng(seed);
            ddpm_mean += ddpm.sample(&[1, 1, 1, 1], &mut r1, oracle).to_vec()[0];
            ddim_mean += ddim.sample(&[1, 1, 1, 1], &mut r2, oracle).to_vec()[0];
        }
        ddpm_mean /= 6.0;
        ddim_mean /= 6.0;
        assert!((ddpm_mean - ddim_mean).abs() < 0.4, "{ddpm_mean} vs {ddim_mean}");
    }
}

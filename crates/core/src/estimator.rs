//! The end-to-end DCDiff estimator.

use dcdiff_diffusion::{BatchLane, BatchedDdimSampler, Fmpp, NoiseSchedule};
use dcdiff_image::Image;
use dcdiff_jpeg::{ChromaSampling, CoeffImage, DcDropMode};
use dcdiff_tensor::optim::Adam;
use dcdiff_tensor::serial::{Checkpoint, CheckpointError};
use dcdiff_tensor::{no_grad, seeded_rng, Rng, Tensor};
use rand::Rng as _;

use std::time::Instant;

use crate::fallback::EstimateError;
use crate::RefineConfig;
use dcdiff_telemetry::names;
use crate::mask::{high_frequency_mask, DEFAULT_THRESHOLD};
use crate::projection::{image_to_tensor, project_dc, tensor_to_image};
use crate::refine::refine_dc_levels;
use crate::stage1::Stage1;
use crate::stage2::Stage2;
use crate::{PatchDiscriminator, PerceptualLoss};

/// Hyperparameters of the DCDiff system.
#[derive(Debug, Clone, PartialEq)]
pub struct DcDiffConfig {
    /// Stage-1 autoencoder width.
    pub stage1_base: usize,
    /// Latent channels of `z_0`.
    pub latent_channels: usize,
    /// U-Net width.
    pub unet_base: usize,
    /// Diffusion timesteps `T` of the training schedule.
    pub diffusion_steps: usize,
    /// DDIM steps at inference (the paper uses 50).
    pub ddim_steps: usize,
    /// Eq. 3 mask threshold `T` (the paper selects 10).
    pub mask_threshold: f32,
    /// Weight σ of the masked Laplacian loss in Eq. 6 (paper: 2e-4; we
    /// use a larger value because our pixel scale is `[-1, 1]`).
    pub sigma: f32,
    /// Quadratic prior weight λ of the inference-time MLD refinement.
    pub prior_weight: f32,
    /// Gauss–Seidel sweeps of the refinement.
    pub refine_sweeps: usize,
    /// JPEG quality the system is trained for.
    pub quality: u8,
    /// EMA decay for the stage-2 weights (`None` disables averaging).
    /// Sampling uses the averaged weights, the standard stabilisation for
    /// diffusion training.
    pub ema_decay: Option<f32>,
}

impl Default for DcDiffConfig {
    fn default() -> Self {
        Self {
            stage1_base: 12,
            latent_channels: 4,
            unet_base: 16,
            diffusion_steps: 200,
            ddim_steps: 50,
            mask_threshold: DEFAULT_THRESHOLD,
            sigma: 0.05,
            prior_weight: 0.001,
            refine_sweeps: 150,
            quality: 50,
            ema_decay: Some(0.995),
        }
    }
}

/// Inference-time options (the ablation knobs of Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoverOptions {
    /// DDIM steps (overrides the config default).
    pub ddim_steps: usize,
    /// Use the FMPP frequency modulation (w/o FMPP sets `s = b = 1`).
    pub use_fmpp: bool,
    /// Apply the masked-Laplacian refinement (the inference-time
    /// counterpart of the MLD loss).
    pub use_mld: bool,
    /// Apply the DC projection (keep AC bit-exact, take block means from
    /// the generated image).
    pub use_projection: bool,
    /// Eq. 3 mask threshold `T` used by the refinement.
    pub mask_threshold: f32,
    /// Sampling seed (inference is deterministic given the seed).
    pub seed: u64,
}

impl RecoverOptions {
    /// Defaults matching a [`DcDiffConfig`].
    pub fn from_config(config: &DcDiffConfig) -> Self {
        Self {
            ddim_steps: config.ddim_steps,
            use_fmpp: true,
            use_mld: true,
            use_projection: true,
            mask_threshold: config.mask_threshold,
            seed: 0,
        }
    }
}

/// One lane of a [`DcDiff::try_recover_batch`] cohort: the dropped stream
/// plus the per-job identity that keeps batched results composition-
/// independent (seed) and observable (trace).
#[derive(Debug)]
pub struct BatchRecoverJob<'a> {
    /// The DC-dropped coefficient stream to recover.
    pub dropped: &'a CoeffImage,
    /// Per-lane sampling seed. Derive it from the stream with
    /// [`content_seed`] so the output depends only on the input, never on
    /// cohort width or position.
    pub seed: u64,
    /// Optional per-lane cooperative deadline; expiry evicts this lane
    /// without aborting the cohort.
    pub deadline: Option<Instant>,
    /// Trace context this lane's spans are attributed to.
    pub trace: Option<dcdiff_telemetry::TraceCtx>,
}

impl<'a> BatchRecoverJob<'a> {
    /// A lane seeded from the stream's own content, with no deadline.
    pub fn new(dropped: &'a CoeffImage) -> Self {
        Self {
            dropped,
            seed: content_seed(dropped),
            deadline: None,
            trace: None,
        }
    }
}

/// What one lane of the recovery pipeline resolves to.
#[derive(Debug)]
enum LaneEstimate {
    /// The projected (and refined) DC levels, in
    /// [`CoeffImage::dc_levels`]' form.
    Levels(Vec<Vec<i32>>),
    /// The generated image itself: the Table III `use_projection = false`
    /// ablation, whose output is the network's pixels.
    Pixels(Image),
}

impl LaneEstimate {
    /// The lane's pixels: `dropped` decoded with the estimated levels.
    fn into_image(self, dropped: &CoeffImage) -> Image {
        match self {
            LaneEstimate::Levels(levels) => dropped.to_image_with_dc(&levels),
            LaneEstimate::Pixels(image) => image,
        }
    }
}

/// Deterministic sampling seed derived from the coefficient stream itself
/// (FNV-1a over dimensions and every quantised coefficient).
///
/// Seeding from job identity rather than a shared counter is what makes
/// recovery results reproducible across cohort compositions: the same
/// stream recovers to the same image whether it runs alone or in a width-8
/// cohort.
pub fn content_seed(dropped: &CoeffImage) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        hash ^= v;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(dropped.width() as u64);
    mix(dropped.height() as u64);
    mix(dropped.channels() as u64);
    for c in 0..dropped.channels() {
        let plane = dropped.plane(c);
        for by in 0..plane.blocks_y() {
            for bx in 0..plane.blocks_x() {
                for &v in plane.block(bx, by) {
                    mix(v as i64 as u64);
                }
            }
        }
    }
    hash
}

/// Stack per-lane `[1, …]` tensors along the batch dimension.
fn stack_rows(parts: &[Tensor]) -> Tensor {
    let mut shape = parts[0].shape().to_vec();
    let per: usize = shape.iter().product();
    let mut data = Vec::with_capacity(per * parts.len());
    for part in parts {
        data.extend_from_slice(&part.to_vec());
    }
    shape[0] = parts.len();
    Tensor::from_vec(shape, data)
}

/// Select `rows` (ascending batch indices) out of a stacked tensor.
fn select_rows(stacked: &Tensor, rows: &[usize]) -> Tensor {
    let mut shape = stacked.shape().to_vec();
    let per: usize = shape.iter().skip(1).product();
    let data = stacked.to_vec();
    let mut sel = Vec::with_capacity(per * rows.len());
    for &r in rows {
        sel.extend_from_slice(&data[r * per..(r + 1) * per]);
    }
    shape[0] = rows.len();
    Tensor::from_vec(shape, sel)
}

/// Summary of a training run (loss trajectories for diagnostics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainReport {
    /// Stage-1 generator losses per step.
    pub stage1_losses: Vec<f32>,
    /// Stage-2 `L_ldm` losses per step (both phases).
    pub ldm_losses: Vec<f32>,
    /// Stage-2 `L_m` values per phase-2 step.
    pub mld_losses: Vec<f32>,
    /// FMPP losses per step.
    pub fmpp_losses: Vec<f32>,
    /// Latent normalisation scale estimated after stage 1.
    pub latent_scale: f32,
}

/// Training step budget for [`DcDiff::train`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainBudget {
    /// Stage-1 autoencoder steps.
    pub stage1_steps: usize,
    /// Stage-2 phase-1 (`L_ldm` only) steps.
    pub ldm_steps: usize,
    /// Stage-2 phase-2 (`L_ldm + σ·L_m`) steps.
    pub mld_steps: usize,
    /// FMPP steps.
    pub fmpp_steps: usize,
    /// Batch size for every stage.
    pub batch: usize,
}

impl Default for TrainBudget {
    fn default() -> Self {
        Self {
            stage1_steps: 300,
            ldm_steps: 300,
            mld_steps: 150,
            fmpp_steps: 60,
            batch: 2,
        }
    }
}

/// The DCDiff system: stage-1 autoencoder, stage-2 controlled latent
/// diffusion, FMPP, and the receiver-side recovery pipeline.
///
/// # Pipeline (inference)
///
/// 1. decode the DC-dropped stream to `x̃`;
/// 2. FMPP predicts the FreeU scales `(s, b)` from `x̃`;
/// 3. DDIM-sample the DC latent under control features from `x̃`;
/// 4. decode with the stage-1 decoder and `E_AC(x̃)`;
/// 5. **DC projection** — keep the transmitted AC bit-exact, take only
///    per-block means from the generated image;
/// 6. masked-Laplacian refinement of the projected DC map (see
///    `DESIGN.md` for why this training-time constraint is also applied
///    at inference in this scaled-down reproduction).
#[derive(Debug)]
pub struct DcDiff {
    config: DcDiffConfig,
    stage1: Stage1,
    stage2: Stage2,
    fmpp: Fmpp,
    latent_scale: f32,
    trained: bool,
}

impl DcDiff {
    /// Build an untrained system.
    pub fn new(config: DcDiffConfig, seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        let stage1 = Stage1::new(config.stage1_base, config.latent_channels, &mut rng);
        let schedule = NoiseSchedule::linear(config.diffusion_steps, 1e-3, 2e-2);
        let stage2 = Stage2::new(config.latent_channels, config.unet_base, schedule, &mut rng);
        let fmpp = Fmpp::new(3, &mut rng);
        Self {
            config,
            stage1,
            stage2,
            fmpp,
            latent_scale: 1.0,
            trained: false,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DcDiffConfig {
        &self.config
    }

    /// Whether [`DcDiff::train`] completed.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Prepare an `(x0, x̃, mask)` training example from an original image.
    fn example(&self, image: &Image) -> (Tensor, Tensor, dcdiff_image::Plane) {
        let coeffs = CoeffImage::from_image(image, self.config.quality, ChromaSampling::Cs444);
        let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
        let x_tilde_img = dropped.to_image();
        let x0 = image_to_tensor(&image.to_rgb());
        let x_tilde = image_to_tensor(&x_tilde_img);
        let mask = high_frequency_mask(&x_tilde_img, self.config.mask_threshold);
        (x0, x_tilde, mask)
    }

    fn batch_tensors(
        examples: &[(Tensor, Tensor, dcdiff_image::Plane)],
        idx: &[usize],
    ) -> (Tensor, Tensor, Vec<dcdiff_image::Plane>) {
        let shape = examples[0].0.shape().to_vec();
        let (c, h, w) = (shape[1], shape[2], shape[3]);
        let mut x0 = Vec::with_capacity(idx.len() * c * h * w);
        let mut xt = Vec::with_capacity(idx.len() * c * h * w);
        let mut masks = Vec::with_capacity(idx.len());
        for &i in idx {
            x0.extend_from_slice(&examples[i].0.to_vec());
            xt.extend_from_slice(&examples[i].1.to_vec());
            masks.push(examples[i].2.clone());
        }
        (
            Tensor::from_vec(vec![idx.len(), c, h, w], x0),
            Tensor::from_vec(vec![idx.len(), c, h, w], xt),
            masks,
        )
    }

    /// Run the full three-stage training procedure of §III-E on
    /// `images` (all the same 16-aligned size).
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty or dimensions are not divisible by 16.
    pub fn train(&mut self, images: &[Image], budget: TrainBudget, seed: u64) -> TrainReport {
        assert!(!images.is_empty(), "need at least one training image");
        for img in images {
            assert!(
                img.width() % 16 == 0 && img.height() % 16 == 0,
                "training images must be 16-aligned, got {}x{}",
                img.width(),
                img.height()
            );
        }
        let mut rng = seeded_rng(seed);
        let mut report = TrainReport::default();
        let examples: Vec<_> = images.iter().map(|img| self.example(img)).collect();
        let sample_batch = |rng: &mut Rng| -> Vec<usize> {
            (0..budget.batch.max(1))
                .map(|_| rng.gen_range(0..examples.len()))
                .collect()
        };

        // ---- stage 1: autoencoder (Eq. 5) ----
        let perceptual = PerceptualLoss::default();
        let mut disc_rng = seeded_rng(seed ^ 0xD15C);
        let disc = PatchDiscriminator::new(3, &mut disc_rng);
        let mut opt1 = Adam::new(self.stage1.params(), 2e-3);
        let mut dopt = Adam::new(disc.params(), 1e-3);
        for _ in 0..budget.stage1_steps {
            let idx = sample_batch(&mut rng);
            let (x0, xt, _) = Self::batch_tensors(&examples, &idx);
            let loss = self
                .stage1
                .train_step(&x0, &xt, &perceptual, &disc, &mut opt1, &mut dopt, 0.005);
            report.stage1_losses.push(loss);
        }

        // latent scale for unit-variance diffusion
        let mut var_sum = 0.0f64;
        let mut var_count = 0usize;
        for (x0, _, _) in &examples {
            let z = self.stage1.encode_dc(x0).detach();
            for v in z.to_vec() {
                var_sum += (v as f64) * (v as f64);
                var_count += 1;
            }
        }
        self.latent_scale = ((var_sum / var_count.max(1) as f64).sqrt() as f32).max(1e-3);
        report.latent_scale = self.latent_scale;

        // ---- stage 2 phase 1: L_ldm only ----
        let mut opt2 = Adam::new(self.stage2.params(), 1e-3);
        let mut ema = self
            .config
            .ema_decay
            .map(|decay| dcdiff_tensor::optim::Ema::new(self.stage2.params(), decay));
        for _ in 0..budget.ldm_steps {
            let idx = sample_batch(&mut rng);
            let (x0, xt, _) = Self::batch_tensors(&examples, &idx);
            let z0 = self
                .stage1
                .encode_dc(&x0)
                .detach()
                .scale(1.0 / self.latent_scale);
            let cond = Stage2::condition_from(&xt).detach();
            let loss = self.stage2.train_step_ldm(&z0, &cond, &mut opt2, &mut rng);
            if let Some(ema) = &mut ema {
                ema.update();
            }
            report.ldm_losses.push(loss);
        }

        // ---- stage 2 phase 2: L_ldm + sigma * L_m ----
        opt2.set_lr(2e-4);
        for _ in 0..budget.mld_steps {
            let idx = sample_batch(&mut rng);
            let (x0, xt, masks) = Self::batch_tensors(&examples, &idx);
            let z0 = self
                .stage1
                .encode_dc(&x0)
                .detach()
                .scale(1.0 / self.latent_scale);
            let cond = Stage2::condition_from(&xt).detach();
            let (ldm, mld) = self.stage2.train_step_mld(
                &z0,
                &cond,
                &xt,
                &masks,
                &self.stage1,
                self.config.sigma,
                &mut opt2,
                &mut rng,
            );
            if let Some(ema) = &mut ema {
                ema.update();
            }
            report.ldm_losses.push(ldm);
            report.mld_losses.push(mld);
        }
        // sample from the averaged weights
        if let Some(ema) = &ema {
            ema.apply_to_params();
        }

        // ---- FMPP: freeze everything else, minimise MSE of a one-step
        // reconstruction under the predicted scales ----
        let mut fopt = Adam::new(self.fmpp.params(), 5e-4);
        for _ in 0..budget.fmpp_steps {
            let idx = sample_batch(&mut rng);
            let (x0, xt, _) = Self::batch_tensors(&examples, &idx);
            let z0 = self
                .stage1
                .encode_dc(&x0)
                .detach()
                .scale(1.0 / self.latent_scale);
            let cond = Stage2::condition_from(&xt).detach();
            let control = self.stage2.control_features(&cond);
            let control: Vec<Tensor> = control.iter().map(Tensor::detach).collect();
            let t = self.stage2.schedule().steps() / 2;
            let eps = Tensor::randn(z0.shape().to_vec(), 1.0, &mut rng);
            let z_t = self.stage2.schedule().q_sample(&z0, t, &eps).detach();
            fopt.zero_grad();
            let (s, b) = self.fmpp.predict(&xt);
            let n = z0.shape()[0];
            let eps_hat = self
                .stage2
                .predict_noise(&z_t, &vec![t; n], &control, Some((&s, &b)));
            let z0_hat = self.stage2.schedule().predict_z0(&z_t, t, &eps_hat);
            let x_hat = self
                .stage1
                .decode(&z0_hat.scale(self.latent_scale), &xt.detach());
            let loss = x_hat.mse(&x0);
            loss.backward();
            // freeze everything but FMPP
            for p in self.stage1.params().iter().chain(self.stage2.params().iter()) {
                p.zero_grad();
            }
            fopt.step();
            report.fmpp_losses.push(loss.item());
        }

        self.trained = true;
        report
    }

    /// Recover an image from a DC-dropped coefficient stream with default
    /// options.
    pub fn recover(&self, dropped: &CoeffImage) -> Image {
        self.recover_with(dropped, &RecoverOptions::from_config(&self.config))
    }

    /// Recover with explicit [`RecoverOptions`] (the Table III ablations):
    /// a one-lane cohort sampled under `options.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `options.ddim_steps` is zero or exceeds the training
    /// schedule, and propagates any panic of the model stack
    /// ([`DcDiff::try_recover_with`] catches it instead).
    pub fn recover_with(&self, dropped: &CoeffImage, options: &RecoverOptions) -> Image {
        let lane = BatchRecoverJob { dropped, seed: options.seed, deadline: None, trace: None };
        match self.recover_lanes(&[lane], options).pop() {
            Some(Ok(estimate)) => estimate.into_image(dropped),
            other => unreachable!("recovery without a deadline cannot fail: {other:?}"),
        }
    }

    /// Fallible recovery with an optional wall-clock deadline: a one-lane
    /// [`DcDiff::try_recover_batch`] sampled under `options.seed`.
    ///
    /// The deadline is checked cooperatively before every DDIM step and at
    /// each phase boundary, and any panic escaping the model stack is
    /// caught and reported as [`EstimateError::Panicked`] instead of
    /// unwinding into the caller.
    ///
    /// # Errors
    ///
    /// [`EstimateError::DeadlineExceeded`] when `deadline` passes before
    /// recovery completes; [`EstimateError::Panicked`] when the model
    /// stack panics.
    pub fn try_recover_with(
        &self,
        dropped: &CoeffImage,
        options: &RecoverOptions,
        deadline: Option<Instant>,
    ) -> Result<Image, EstimateError> {
        let lane = BatchRecoverJob { dropped, seed: options.seed, deadline, trace: None };
        let mut results = self.try_recover_batch(&[lane], options);
        results.pop().unwrap_or_else(|| unreachable!("one lane in, one result out"))
    }

    /// Recover a whole cohort of DC-dropped streams with **shared U-Net
    /// forwards**: lanes with the same padded canvas advance through the
    /// DDIM chain in lock-step via [`BatchedDdimSampler`], one forward per
    /// step for the group, and the FMPP / control / stage-1 decode passes
    /// are batched the same way. This is the only recovery pipeline; the
    /// single-image entry points are one-lane cohorts.
    ///
    /// Per-lane identity is preserved: each lane samples from its own RNG
    /// seeded with [`BatchRecoverJob::seed`] (use [`content_seed`] to derive
    /// it from the stream itself), so a lane's output is bit-identical at
    /// any cohort width, regardless of which other lanes share the cohort.
    /// Deadlines stay per-lane and cooperative: an expired lane is evicted
    /// from the cohort (its slot resolves to
    /// [`EstimateError::DeadlineExceeded`]) while the remaining lanes keep
    /// stepping. A panic anywhere in the model stack resolves every lane to
    /// [`EstimateError::Panicked`].
    ///
    /// `options.seed` is ignored in this entry point; seeding is per-lane.
    pub fn try_recover_batch(
        &self,
        jobs: &[BatchRecoverJob<'_>],
        options: &RecoverOptions,
    ) -> Vec<Result<Image, EstimateError>> {
        let images = |(lane, job): (Result<LaneEstimate, EstimateError>, &BatchRecoverJob<'_>)| {
            lane.map(|estimate| estimate.into_image(job.dropped))
        };
        self.try_lanes(jobs, options).into_iter().zip(jobs).map(images).collect()
    }

    /// [`DcDiff::try_recover_batch`]'s DC levels instead of its pixels: per
    /// lane, the projected and refined levels in
    /// [`CoeffImage::dc_levels`]' form, which
    /// [`CoeffImage::write_pnm_with_dc`] streams to a file and
    /// [`CoeffImage::to_image_with_dc`] decodes to the image
    /// `try_recover_batch` returns, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `options.use_projection` is off: without the projection
    /// the output is the network's pixels, which have no DC levels (the
    /// image entries serve that ablation).
    pub fn try_estimate_batch(
        &self,
        jobs: &[BatchRecoverJob<'_>],
        options: &RecoverOptions,
    ) -> Vec<Result<Vec<Vec<i32>>, EstimateError>> {
        assert!(options.use_projection, "only the projected recovery has DC levels");
        let levels = |lane: Result<LaneEstimate, EstimateError>| match lane? {
            LaneEstimate::Levels(levels) => Ok(levels),
            LaneEstimate::Pixels(_) => unreachable!("the projection is on"),
        };
        self.try_lanes(jobs, options).into_iter().map(levels).collect()
    }

    /// [`DcDiff::recover_lanes`] with a panic anywhere in the model stack
    /// resolving every lane to [`EstimateError::Panicked`].
    fn try_lanes(
        &self,
        jobs: &[BatchRecoverJob<'_>],
        options: &RecoverOptions,
    ) -> Vec<Result<LaneEstimate, EstimateError>> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.recover_lanes(jobs, options)
        }))
        .unwrap_or_else(|payload| {
            let err = EstimateError::panicked(payload);
            jobs.iter().map(|_| Err(err.clone())).collect()
        })
    }

    fn recover_lanes(
        &self,
        jobs: &[BatchRecoverJob<'_>],
        options: &RecoverOptions,
    ) -> Vec<Result<LaneEstimate, EstimateError>> {
        let mut out: Vec<Option<Result<LaneEstimate, EstimateError>>> =
            (0..jobs.len()).map(|_| None).collect();
        // Lanes can only share a forward when their padded canvases agree;
        // group by canvas and run each group as one cohort.
        let mut groups: Vec<((usize, usize), Vec<usize>)> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            let pw = job.dropped.width().div_ceil(16) * 16;
            let ph = job.dropped.height().div_ceil(16) * 16;
            match groups.iter_mut().find(|(canvas, _)| *canvas == (pw, ph)) {
                Some((_, members)) => members.push(i),
                None => groups.push(((pw, ph), vec![i])),
            }
        }
        for ((pw, ph), members) in groups {
            self.recover_group(jobs, &members, (pw, ph), options, &mut out);
        }
        out.into_iter()
            .map(|slot| slot.expect("every lane resolves"))
            .collect()
    }

    /// Run one same-canvas cohort; fills `out[i]` for every `i` in
    /// `members`.
    fn recover_group(
        &self,
        jobs: &[BatchRecoverJob<'_>],
        members: &[usize],
        (pw, ph): (usize, usize),
        options: &RecoverOptions,
        out: &mut [Option<Result<LaneEstimate, EstimateError>>],
    ) {
        // Inference-only pass: suppress the autograd tape so conv/GEMM work
        // buffers recycle through the kernel scratch pool instead of being
        // saved (K× larger at cohort width K) for a backward that never runs.
        no_grad(|| {
        // Phase spans go to the process-wide telemetry handle (see
        // `dcdiff_telemetry::install`); without an installed trace they are
        // inert branches.
        let tel = dcdiff_telemetry::global();
        let check = |i: usize, phase: &'static str| match jobs[i].deadline {
            Some(d) if Instant::now() >= d => Err(EstimateError::DeadlineExceeded { phase }),
            _ => Ok(()),
        };
        // Attribute a shared-phase span to one lane's trace.
        let lane_span = |i: usize, name: names::Name, start: Instant, end: Instant| {
            let _attributed = jobs[i].trace.map(dcdiff_telemetry::install_trace);
            tel.record_span(name, start, end);
        };
        // Ingest: decode each lane's x̃ and pad it to the group canvas.
        let mut live: Vec<usize> = Vec::new();
        let mut x_tildes: Vec<Tensor> = Vec::new();
        let mut dims: Vec<(usize, usize)> = Vec::new();
        for &i in members {
            if let Err(e) = check(i, "start") {
                out[i] = Some(Err(e));
                continue;
            }
            let x_tilde_img = jobs[i].dropped.to_image();
            let (w, h) = x_tilde_img.dims();
            let padded = if (pw, ph) == (w, h) {
                x_tilde_img.clone()
            } else {
                Image::from_planes(
                    x_tilde_img
                        .planes()
                        .iter()
                        .map(|p| p.crop_clamped(0, 0, pw, ph))
                        .collect(),
                    x_tilde_img.color_space(),
                )
                .expect("padded planes share dimensions")
            };
            x_tildes.push(image_to_tensor(&padded));
            dims.push((w, h));
            live.push(i);
        }
        if live.is_empty() {
            return;
        }
        let k = live.len();

        // FreeU scales, one batched FMPP forward for the group.
        let fmpp_start = Instant::now();
        let x_stack = stack_rows(&x_tildes);
        let (s_all, b_all) = if options.use_fmpp {
            self.fmpp.predict(&x_stack)
        } else {
            (Tensor::full(vec![k], 1.0), Tensor::full(vec![k], 1.0))
        };
        let s_all = s_all.detach();
        let b_all = b_all.detach();
        let fmpp_end = Instant::now();
        for &i in &live {
            lane_span(i, names::SPAN_RECOVER_FMPP, fmpp_start, fmpp_end);
        }

        // Control features, batched over the group.
        let control_start = Instant::now();
        let cond = Stage2::condition_from(&x_stack).detach();
        let control_all: Vec<Tensor> = self
            .stage2
            .control_features(&cond)
            .iter()
            .map(Tensor::detach)
            .collect();
        let sample_start = Instant::now();
        for &i in &live {
            lane_span(i, names::SPAN_RECOVER_CONTROL, control_start, sample_start);
        }

        // Step-synchronized DDIM over the cohort. The conditioning rows are
        // re-selected only when the active set changes (lane eviction).
        let sampler = BatchedDdimSampler::new(self.stage2.schedule().clone(), options.ddim_steps);
        let mut lanes: Vec<BatchLane> = live
            .iter()
            .map(|&i| {
                let lane = BatchLane::new(seeded_rng(jobs[i].seed));
                match jobs[i].trace {
                    Some(trace) => lane.with_trace(trace),
                    None => lane,
                }
            })
            .collect();
        let latent_shape = [1, self.config.latent_channels, ph / 8, pw / 8];
        // Until a lane is evicted every row is active: no copy needed.
        let mut selected: Option<(Vec<usize>, Vec<Tensor>, Tensor, Tensor)> =
            Some(((0..k).collect(), control_all.clone(), s_all.clone(), b_all.clone()));
        let sampled = sampler.try_sample_cohort::<EstimateError>(
            &latent_shape,
            &mut lanes,
            |z_t, t, active| {
                let stale = selected
                    .as_ref()
                    .is_none_or(|(rows, ..)| rows.as_slice() != active);
                if stale {
                    let ctrl: Vec<Tensor> =
                        control_all.iter().map(|c| select_rows(c, active)).collect();
                    let s = select_rows(&s_all, active);
                    let b = select_rows(&b_all, active);
                    selected = Some((active.to_vec(), ctrl, s, b));
                }
                let (_, ctrl, s, b) = selected.as_ref().expect("selected just populated");
                Ok(self
                    .stage2
                    .predict_noise(z_t, &vec![t; active.len()], ctrl, Some((s, b))))
            },
            |lane, _t| check(live[lane], "ddim"),
        );
        let sample_end = Instant::now();
        for &i in &live {
            lane_span(i, names::SPAN_RECOVER_SAMPLE, sample_start, sample_end);
        }

        // Batched stage-1 decode of the surviving lanes.
        let decode_start = Instant::now();
        let mut survivors: Vec<usize> = Vec::new(); // rows into `live`
        let mut z_parts: Vec<Tensor> = Vec::new();
        for (row, result) in sampled.iter().enumerate() {
            match result {
                Err(e) => out[live[row]] = Some(Err(e.clone())),
                Ok(z) => match check(live[row], "decode") {
                    Err(e) => out[live[row]] = Some(Err(e)),
                    Ok(()) => {
                        survivors.push(row);
                        z_parts.push(z.scale(self.latent_scale));
                    }
                },
            }
        }
        if survivors.is_empty() {
            return;
        }
        let xt_parts: Vec<Tensor> = survivors.iter().map(|&r| x_tildes[r].clone()).collect();
        let x_hat = self
            .stage1
            .decode(&stack_rows(&z_parts), &stack_rows(&xt_parts))
            .detach();
        let decode_end = Instant::now();
        let x_hat_data = x_hat.to_vec();
        let mut row_shape = x_hat.shape().to_vec();
        row_shape[0] = 1;
        let per: usize = row_shape.iter().product();

        // Per-lane tail: crop, DC projection, masked-Laplacian refinement.
        for (j, &row) in survivors.iter().enumerate() {
            let i = live[row];
            lane_span(i, names::SPAN_RECOVER_DECODE, decode_start, decode_end);
            let _attributed = jobs[i].trace.map(dcdiff_telemetry::install_trace);
            let lane_hat = Tensor::from_vec(
                row_shape.clone(),
                x_hat_data[j * per..(j + 1) * per].to_vec(),
            );
            let (w, h) = dims[row];
            let generated = tensor_to_image(&lane_hat).crop_to(w, h);
            out[i] = Some(self.finish_lane(jobs[i].dropped, generated, options, |phase| {
                check(i, phase)
            }));
        }
        })
    }

    /// The per-lane post-sampling pipeline: DC projection, then
    /// masked-Laplacian refinement, each behind the lane's deadline check.
    fn finish_lane(
        &self,
        dropped: &CoeffImage,
        generated: Image,
        options: &RecoverOptions,
        check: impl Fn(&'static str) -> Result<(), EstimateError>,
    ) -> Result<LaneEstimate, EstimateError> {
        let tel = dcdiff_telemetry::global();
        if !options.use_projection {
            return Ok(LaneEstimate::Pixels(generated));
        }
        check("projection")?;
        let projection_span = tel.span(names::SPAN_RECOVER_PROJECTION);
        let projected = project_dc(dropped, &generated);
        drop(projection_span);
        if !options.use_mld {
            return Ok(LaneEstimate::Levels(projected.dc_levels()));
        }
        check("mld_refine")?;
        let _mld_span = tel.span(names::SPAN_RECOVER_MLD_REFINE);
        Ok(LaneEstimate::Levels(refine_dc_levels(
            dropped,
            &projected,
            options.mask_threshold,
            self.config.prior_weight,
            self.config.refine_sweeps,
            RefineConfig::default(),
        )))
    }

    /// Serialise every sub-network into a checkpoint.
    pub fn save(&self) -> Checkpoint {
        let mut ckpt = Checkpoint::new();
        self.stage1.save(&mut ckpt);
        self.stage2.save(&mut ckpt);
        self.fmpp.save(&mut ckpt);
        let scale = Tensor::from_vec(vec![1], vec![self.latent_scale]);
        ckpt.insert("latent_scale", &scale);
        ckpt
    }

    /// Restore every sub-network from a checkpoint written by
    /// [`DcDiff::save`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on missing or mis-shaped tensors.
    pub fn load(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.stage1.load(ckpt)?;
        self.stage2.load(ckpt)?;
        self.fmpp.load(ckpt)?;
        let scale = Tensor::from_vec(vec![1], vec![1.0]);
        ckpt.load_into("latent_scale", &scale)?;
        self.latent_scale = scale.to_vec()[0];
        self.trained = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine_dc_offsets;
    use dcdiff_data::{DatasetProfile, SceneGenerator, SceneKind};
    use dcdiff_diffusion::DdimSampler;
    use dcdiff_metrics::psnr;

    fn tiny_config() -> DcDiffConfig {
        DcDiffConfig {
            stage1_base: 8,
            latent_channels: 4,
            unet_base: 8,
            diffusion_steps: 50,
            ddim_steps: 5,
            ..DcDiffConfig::default()
        }
    }

    fn tiny_budget() -> TrainBudget {
        TrainBudget {
            stage1_steps: 40,
            ldm_steps: 30,
            mld_steps: 10,
            fmpp_steps: 5,
            batch: 2,
        }
    }

    #[test]
    fn untrained_recovery_still_produces_valid_output() {
        let system = DcDiff::new(tiny_config(), 0);
        let img = SceneGenerator::new(SceneKind::Smooth, 48, 48).generate(1);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
        let out = system.recover(&dropped);
        assert_eq!(out.dims(), (48, 48));
    }

    #[test]
    fn training_runs_and_losses_decrease() {
        let mut system = DcDiff::new(tiny_config(), 1);
        let images = DatasetProfile::set5().with_dims(32, 32).generate(10);
        let report = system.train(&images, tiny_budget(), 7);
        assert!(system.is_trained());
        assert_eq!(report.stage1_losses.len(), 40);
        let first: f32 = report.stage1_losses[..5].iter().sum();
        let last: f32 = report.stage1_losses[35..].iter().sum();
        assert!(last < first, "stage-1 loss should decrease: {first} -> {last}");
        assert!(report.latent_scale > 0.0);
    }

    #[test]
    fn recovery_beats_no_recovery_even_lightly_trained() {
        let mut system = DcDiff::new(tiny_config(), 2);
        let images = DatasetProfile::set5().with_dims(48, 48).generate(50);
        system.train(&images, tiny_budget(), 9);
        let test = SceneGenerator::new(SceneKind::Smooth, 48, 48).generate(777);
        let coeffs = CoeffImage::from_image(&test, 50, ChromaSampling::Cs444);
        let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
        let reference = coeffs.to_image();
        let p_rec = psnr(&reference, &system.recover(&dropped));
        let p_none = psnr(&reference, &dropped.to_image());
        assert!(p_rec > p_none + 5.0, "dcdiff {p_rec} vs none {p_none}");
    }

    #[test]
    fn ablation_options_change_the_output() {
        let system = DcDiff::new(tiny_config(), 3);
        let img = SceneGenerator::new(SceneKind::Urban, 48, 48).generate(4);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
        let mut base_opts = RecoverOptions::from_config(system.config());
        base_opts.ddim_steps = 3;
        let full = system.recover_with(&dropped, &base_opts);
        let no_mld = system.recover_with(
            &dropped,
            &RecoverOptions {
                use_mld: false,
                ..base_opts
            },
        );
        let no_proj = system.recover_with(
            &dropped,
            &RecoverOptions {
                use_projection: false,
                use_mld: false,
                ..base_opts
            },
        );
        assert!(full.mean_abs_diff(&no_mld) > 1e-4);
        assert!(full.mean_abs_diff(&no_proj) > 1e-4);
    }

    fn dropped_scene(seed: u64, size: usize) -> CoeffImage {
        let img = SceneGenerator::new(SceneKind::Natural, size, size).generate(seed);
        CoeffImage::from_image(&img, 50, ChromaSampling::Cs444).drop_dc(DcDropMode::KeepCorners)
    }

    #[test]
    fn content_seed_is_stable_and_content_sensitive() {
        let a = dropped_scene(1, 32);
        let b = dropped_scene(1, 32);
        let c = dropped_scene(2, 32);
        assert_eq!(content_seed(&a), content_seed(&b), "same content, same seed");
        assert_ne!(content_seed(&a), content_seed(&c), "different content");
    }

    /// One recovery composed from the model's own parts with the sequential
    /// [`DdimSampler`]: no cohort, deadline or span code, so it is a
    /// reference independent of the pipeline under test. `dropped` must be
    /// 16-aligned (no padding).
    fn composed_reference(system: &DcDiff, dropped: &CoeffImage, opts: &RecoverOptions) -> Image {
        no_grad(|| {
            let x_img = dropped.to_image();
            let (w, h) = x_img.dims();
            assert!(w % 16 == 0 && h % 16 == 0, "reference skips padding");
            let x = image_to_tensor(&x_img);
            let (s, b) = system.fmpp.predict(&x);
            let (s, b) = (s.detach(), b.detach());
            let cond = Stage2::condition_from(&x).detach();
            let control: Vec<Tensor> =
                system.stage2.control_features(&cond).iter().map(Tensor::detach).collect();
            let sampler = DdimSampler::new(system.stage2.schedule().clone(), opts.ddim_steps);
            let shape = [1, system.config.latent_channels, h / 8, w / 8];
            let mut rng = seeded_rng(opts.seed);
            let z = sampler
                .try_sample::<std::convert::Infallible>(&shape, &mut rng, |z_t, t| {
                    Ok(system.stage2.predict_noise(z_t, &[t], &control, Some((&s, &b))))
                })
                .unwrap_or_else(|never| match never {});
            let x_hat = system.stage1.decode(&z.scale(system.latent_scale), &x).detach();
            let generated = tensor_to_image(&x_hat).crop_to(w, h);
            let projected = project_dc(dropped, &generated);
            let c = &system.config;
            let threshold = opts.mask_threshold;
            refine_dc_offsets(dropped, &projected, threshold, c.prior_weight, c.refine_sweeps)
                .to_image()
        })
    }

    // Per-sample RNG streams seeded from job identity make a sample's
    // output identical at cohort widths 1, 2 and 8, and equal to a recovery
    // composed independently from the model's parts.
    #[test]
    fn batched_recovery_is_bit_identical_across_cohort_widths() {
        let system = DcDiff::new(tiny_config(), 0);
        let mut opts = RecoverOptions::from_config(system.config());
        opts.ddim_steps = 3;
        let probe = dropped_scene(11, 32);
        let others: Vec<CoeffImage> = (0..7).map(|s| dropped_scene(100 + s, 32)).collect();
        let reference = composed_reference(
            &system,
            &probe,
            &RecoverOptions { seed: content_seed(&probe), ..opts },
        );

        for width in [1, 2, 8] {
            let mut jobs = vec![BatchRecoverJob::new(&probe)];
            jobs.extend(others.iter().take(width - 1).map(BatchRecoverJob::new));
            let mut results = system.try_recover_batch(&jobs, &opts);
            let lane = results.swap_remove(0).expect("no deadline, no panic");
            assert_eq!(lane, reference, "width {width} diverged from the composed reference");
        }
    }

    fn image_bits(image: &Image) -> Vec<Vec<u32>> {
        image.planes().iter().map(|p| p.as_slice().iter().map(|v| v.to_bits()).collect()).collect()
    }

    // The image entries are the decode of the levels entry's levels, lane
    // for lane, alone and in a width-8 cohort, with and without the
    // refinement.
    #[test]
    fn image_entries_decode_the_estimated_levels() {
        let system = DcDiff::new(tiny_config(), 0);
        let mut opts = RecoverOptions::from_config(system.config());
        opts.ddim_steps = 2;
        let inputs: Vec<CoeffImage> = (0..8).map(|s| dropped_scene(200 + s, 32)).collect();
        for use_mld in [true, false] {
            let opts = RecoverOptions { use_mld, ..opts };
            for width in [1, 8] {
                let jobs: Vec<BatchRecoverJob<'_>> =
                    inputs.iter().take(width).map(BatchRecoverJob::new).collect();
                let images = system.try_recover_batch(&jobs, &opts);
                let levels = system.try_estimate_batch(&jobs, &opts);
                for ((job, image), levels) in jobs.iter().zip(images).zip(levels) {
                    let decoded = job.dropped.to_image_with_dc(&levels.expect("healthy lane"));
                    assert!(
                        image_bits(&image.expect("healthy lane")) == image_bits(&decoded),
                        "width {width}, mld {use_mld}"
                    );
                }
            }
        }
        let probe = &inputs[0];
        let opts = RecoverOptions { seed: content_seed(probe), ..opts };
        let mut levels = system.try_estimate_batch(&[BatchRecoverJob::new(probe)], &opts);
        let levels = levels.pop().expect("one lane").expect("healthy lane");
        let image = system.recover_with(probe, &opts);
        assert!(image_bits(&image) == image_bits(&probe.to_image_with_dc(&levels)));
    }

    #[test]
    fn deadline_error_reports_the_phase() {
        let system = DcDiff::new(tiny_config(), 0);
        let mut options = RecoverOptions::from_config(system.config());
        options.ddim_steps = 3;
        let err = system
            .try_recover_with(&dropped_scene(12, 48), &options, Some(Instant::now()))
            .unwrap_err();
        assert!(matches!(err, EstimateError::DeadlineExceeded { .. }));
        assert!(err.to_string().contains("deadline"));
    }

    #[test]
    fn generous_deadline_recovers_normally() {
        let system = DcDiff::new(tiny_config(), 0);
        let mut options = RecoverOptions::from_config(system.config());
        options.ddim_steps = 3;
        let image = system
            .try_recover_with(
                &dropped_scene(12, 48),
                &options,
                Some(Instant::now() + std::time::Duration::from_secs(600)),
            )
            .expect("10 minutes is plenty for a tiny model");
        assert_eq!(image.dims(), (48, 48));
    }

    #[test]
    fn batched_recovery_mixed_canvas_sizes_resolve_every_lane() {
        let system = DcDiff::new(tiny_config(), 1);
        let mut opts = RecoverOptions::from_config(system.config());
        opts.ddim_steps = 2;
        let small = dropped_scene(3, 32);
        let large = dropped_scene(4, 48);
        let jobs = vec![
            BatchRecoverJob::new(&small),
            BatchRecoverJob::new(&large),
            BatchRecoverJob::new(&small),
        ];
        let results = system.try_recover_batch(&jobs, &opts);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().expect("lane 0").dims(), (32, 32));
        assert_eq!(results[1].as_ref().expect("lane 1").dims(), (48, 48));
        assert_eq!(results[2].as_ref().expect("lane 2").dims(), (32, 32));
        // Identical inputs in the same cohort produce identical outputs.
        let r0 = results[0].as_ref().expect("lane 0");
        let r2 = results[2].as_ref().expect("lane 2");
        assert_eq!(r0.mean_abs_diff(r2), 0.0);
    }

    #[test]
    fn batched_recovery_expired_lane_is_evicted_without_aborting_cohort() {
        let system = DcDiff::new(tiny_config(), 2);
        let mut opts = RecoverOptions::from_config(system.config());
        opts.ddim_steps = 2;
        let a = dropped_scene(5, 32);
        let b = dropped_scene(6, 32);
        let jobs = vec![
            BatchRecoverJob {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
                ..BatchRecoverJob::new(&a)
            },
            BatchRecoverJob::new(&b),
        ];
        let results = system.try_recover_batch(&jobs, &opts);
        assert_eq!(
            results[0],
            Err(EstimateError::DeadlineExceeded { phase: "start" })
        );
        let survivor = results[1].as_ref().expect("lane 1 survives");
        // The survivor is unaffected by its cohort-mate's eviction.
        let solo = system.try_recover_batch(&[BatchRecoverJob::new(&b)], &opts);
        assert_eq!(survivor.mean_abs_diff(solo[0].as_ref().expect("solo")), 0.0);
    }

    #[test]
    fn checkpoint_round_trip_preserves_recovery() {
        let mut a = DcDiff::new(tiny_config(), 5);
        let images = DatasetProfile::set5().with_dims(32, 32).generate(3);
        a.train(
            &images,
            TrainBudget {
                stage1_steps: 5,
                ldm_steps: 5,
                mld_steps: 2,
                fmpp_steps: 2,
                batch: 1,
            },
            11,
        );
        let ckpt = a.save();
        let mut b = DcDiff::new(tiny_config(), 99);
        b.load(&ckpt).unwrap();
        let img = SceneGenerator::new(SceneKind::Smooth, 32, 32).generate(6);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
        let mut opts = RecoverOptions::from_config(a.config());
        opts.ddim_steps = 3;
        let ra = a.recover_with(&dropped, &opts);
        let rb = b.recover_with(&dropped, &opts);
        assert!(ra.mean_abs_diff(&rb) < 1e-3);
    }
}

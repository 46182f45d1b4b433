//! Layer probes for traced runs. Each probe calls one layer's public
//! function on the workload's own inputs and shapes and times it from
//! outside; nothing inside the crates under test is instrumented.
//!
//! The diffusion probe re-composes `DcDiff`'s recovery from its public
//! parts (`Stage1`, `Stage2`, `Fmpp`, the DDIM samplers, `project_dc`,
//! `refine_dc_offsets`), built from `DcDiffConfig::default()` like the
//! serving engine, and times the real `DcDiff` call beside it. The parts
//! must add up to the whole: `core.unattributed_share` is the share of the
//! real recovery that no probed part accounts for.

use std::convert::Infallible;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dcdiff_baselines::{DcRecovery, Tip2006};
use dcdiff_core::{
    content_seed, image_to_tensor, project_dc, refine_dc_offsets, tensor_to_image, BatchRecoverJob,
    DcDiff, DcDiffConfig, RecoverOptions, Stage1, Stage2,
};
use dcdiff_diffusion::{BatchLane, BatchedDdimSampler, DdimSampler, Fmpp, NoiseSchedule};
use dcdiff_image::{read_ppm, write_ppm, Image};
use dcdiff_jpeg::{CoeffImage, JpegDecoder};
use dcdiff_telemetry::{names, Counter, Telemetry};
use dcdiff_tensor::{no_grad, seeded_rng, Tensor};

use crate::inputs::Input;
use crate::report::{median, Outcome};
use crate::spans::Recorder;

/// Timed calls per single-input probe.
const PROBE_SAMPLES: usize = 16;
/// Recoveries (width 1) and cohorts (width 8) the diffusion probe times,
/// each beside the real `DcDiff` call.
const RECOVER_SAMPLES: usize = 24;
const COHORT_SAMPLES: usize = 10;
/// Weight seed shared by the re-composed model and the real `DcDiff`, so
/// their outputs can be compared bit for bit.
const WEIGHTS_SEED: u64 = 0x5eed_dcd1;
/// An untrained `DcDiff` decodes its latents unscaled.
const LATENT_SCALE: f32 = 1.0;

/// `JpegDecoder::decode_coefficients` and `CoeffImage::to_image`.
pub fn probe_jpeg_decode(inputs: &[Input], rec: &mut Recorder, out: &mut Outcome) {
    for n in 0..PROBE_SAMPLES {
        let input = &inputs[n % inputs.len()];
        let decoded = rec.timed(None, n as u64, "jpeg.entropy_decode", || {
            black_box(JpegDecoder::decode_coefficients(black_box(&input.jpeg)))
        });
        match decoded {
            Ok(coeffs) => {
                rec.timed(None, n as u64, "jpeg.pixel_decode", || {
                    black_box(coeffs.to_image())
                });
            }
            Err(e) => out.problems.push(format!("probe decode failed: {e}")),
        }
    }
    let pixel_ms = median(&rec.durations_ms("jpeg.pixel_decode"));
    let rgb_bytes = (inputs[0].scene.width() * inputs[0].scene.height() * 3) as f64;
    out.set(
        "jpeg.entropy_decode_ms",
        median(&rec.durations_ms("jpeg.entropy_decode")),
    );
    out.set("jpeg.pixel_decode_ms", pixel_ms);
    if pixel_ms > 0.0 {
        out.set("jpeg.decode_mbps", rgb_bytes / 1e6 / (pixel_ms / 1e3));
    }
}

/// `Tip2006::recover`.
pub fn probe_tip2006(inputs: &[Input], rec: &mut Recorder, out: &mut Outcome) {
    let tip = Tip2006::new();
    for n in 0..PROBE_SAMPLES {
        let dropped = &inputs[n % inputs.len()].dropped;
        rec.timed(None, n as u64, "baselines.tip2006", || {
            black_box(tip.recover(black_box(dropped)))
        });
    }
    out.set(
        "baselines.tip2006_ms",
        median(&rec.durations_ms("baselines.tip2006")),
    );
}

/// `write_ppm` and `read_ppm` of a response-sized image.
///
/// # Errors
///
/// I/O errors, rendered.
pub fn probe_ppm_io(
    sample: &Path,
    spool: &Path,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let image = read_ppm(sample).map_err(|e| format!("read {}: {e}", sample.display()))?;
    let path = spool.join("probe.ppm");
    for n in 0..PROBE_SAMPLES {
        rec.timed(None, n as u64, "image.ppm_write", || {
            write_ppm(&path, &image)
        })
        .map_err(|e| format!("write {}: {e}", path.display()))?;
        rec.timed(None, n as u64, "image.ppm_read", || read_ppm(&path))
            .map_err(|e| format!("read {}: {e}", path.display()))?;
    }
    out.set(
        "image.ppm_write_ms",
        median(&rec.durations_ms("image.ppm_write")),
    );
    out.set(
        "image.ppm_read_ms",
        median(&rec.durations_ms("image.ppm_read")),
    );
    Ok(())
}

/// The networks `DcDiff::new` builds, constructed in its order.
struct Model {
    config: DcDiffConfig,
    stage1: Stage1,
    stage2: Stage2,
    fmpp: Fmpp,
}

fn build_model(config: &DcDiffConfig) -> Model {
    let mut rng = seeded_rng(WEIGHTS_SEED);
    let stage1 = Stage1::new(config.stage1_base, config.latent_channels, &mut rng);
    let schedule = NoiseSchedule::linear(config.diffusion_steps, 1e-3, 2e-2);
    let stage2 = Stage2::new(config.latent_channels, config.unet_base, schedule, &mut rng);
    let fmpp = Fmpp::new(3, &mut rng);
    Model {
        config: config.clone(),
        stage1,
        stage2,
        fmpp,
    }
}

/// Stack `[1, …]` tensors along the batch dimension.
fn stack(parts: &[Tensor]) -> Tensor {
    let mut shape = parts[0].shape().to_vec();
    shape[0] = parts.len();
    Tensor::from_vec(shape, parts.iter().flat_map(Tensor::to_vec).collect())
}

/// Row `row` of a stacked tensor as a `[1, …]` tensor.
fn row_of(stacked: &Tensor, row: usize) -> Tensor {
    let mut shape = stacked.shape().to_vec();
    let per: usize = shape[1..].iter().product();
    shape[0] = 1;
    Tensor::from_vec(shape, stacked.to_vec()[row * per..(row + 1) * per].to_vec())
}

/// Spans, FLOP counters and the request id of one probe repetition.
struct Probe<'a> {
    rec: &'a mut Recorder,
    request: u64,
    gemm_flops: Counter,
    conv_flops: Counter,
    /// (FLOPs, seconds) of every timed U-Net forward.
    forwards: Vec<(f64, f64)>,
}

impl Probe<'_> {
    fn timed_unet_forward(
        &mut self,
        model: &Model,
        parent: u64,
        (z, timesteps): (&Tensor, &[usize]),
        control: &[Tensor],
        freeu: (&Tensor, &Tensor),
    ) -> Tensor {
        let flops = |p: &Self| p.gemm_flops.get() + p.conv_flops.get();
        let before = flops(self);
        let start = Instant::now();
        let eps = model
            .stage2
            .predict_noise(z, timesteps, control, Some(freeu));
        let end = Instant::now();
        self.rec
            .record_interval(Some(parent), self.request, "nn.unet_forward", (start, end));
        self.forwards
            .push(((flops(self) - before) as f64, (end - start).as_secs_f64()));
        eps
    }

    /// `DcDiff::try_recover_with`, re-composed: one lane, `DdimSampler`.
    fn composed_single(&mut self, model: &Model, dropped: &CoeffImage, steps: usize) -> Image {
        let (rec, req) = (&mut *self.rec, self.request);
        let root = rec.reserve_id();
        let start = Instant::now();
        let x_img = rec.timed(Some(root), req, "jpeg.pixel_decode", || dropped.to_image());
        let (w, h) = x_img.dims();
        let x = image_to_tensor(&x_img);
        let (s, b) = rec.timed(Some(root), req, "diffusion.fmpp", || {
            let (s, b) = model.fmpp.predict(&x);
            (s.detach(), b.detach())
        });
        let control: Vec<Tensor> = rec.timed(Some(root), req, "nn.control", || {
            let cond = Stage2::condition_from(&x).detach();
            model
                .stage2
                .control_features(&cond)
                .iter()
                .map(Tensor::detach)
                .collect()
        });
        let sampler = DdimSampler::new(model.stage2.schedule().clone(), steps);
        let mut rng = seeded_rng(content_seed(dropped));
        let shape = [1, model.config.latent_channels, h / 8, w / 8];
        let ddim = self.rec.reserve_id();
        let ddim_start = Instant::now();
        let z = sampler
            .try_sample::<Infallible>(&shape, &mut rng, |z_t, t| {
                Ok(self.timed_unet_forward(model, ddim, (z_t, &[t]), &control, (&s, &b)))
            })
            .unwrap_or_else(|never| match never {});
        let (rec, req) = (&mut *self.rec, self.request);
        rec.record_reserved(
            ddim,
            Some(root),
            req,
            "diffusion.ddim_sample",
            (ddim_start, Instant::now()),
        );
        let generated = rec.timed(Some(root), req, "core.stage1_decode", || {
            let x_hat = model.stage1.decode(&z.scale(LATENT_SCALE), &x).detach();
            tensor_to_image(&x_hat).crop_to(w, h)
        });
        let image = finish_lane(model, dropped, &generated, rec, root, req);
        rec.record_reserved(
            root,
            None,
            req,
            "core.recover.composed",
            (start, Instant::now()),
        );
        image
    }

    /// `DcDiff::try_recover_batch`, re-composed: one cohort through
    /// `BatchedDdimSampler`, batched FMPP, control and stage-1 decode.
    fn composed_cohort(
        &mut self,
        model: &Model,
        lanes: &[&CoeffImage],
        steps: usize,
    ) -> Vec<Image> {
        let (rec, req) = (&mut *self.rec, self.request);
        let root = rec.reserve_id();
        let start = Instant::now();
        let x_imgs: Vec<Image> = lanes
            .iter()
            .map(|d| rec.timed(Some(root), req, "jpeg.pixel_decode", || d.to_image()))
            .collect();
        let (w, h) = x_imgs[0].dims();
        let x_parts: Vec<Tensor> = x_imgs.iter().map(image_to_tensor).collect();
        let x = stack(&x_parts);
        let (s, b) = rec.timed(Some(root), req, "diffusion.fmpp", || {
            let (s, b) = model.fmpp.predict(&x);
            (s.detach(), b.detach())
        });
        let control: Vec<Tensor> = rec.timed(Some(root), req, "nn.control", || {
            let cond = Stage2::condition_from(&x).detach();
            model
                .stage2
                .control_features(&cond)
                .iter()
                .map(Tensor::detach)
                .collect()
        });
        let sampler = BatchedDdimSampler::new(model.stage2.schedule().clone(), steps);
        let mut batch_lanes: Vec<BatchLane> = lanes
            .iter()
            .map(|d| BatchLane::new(seeded_rng(content_seed(d))))
            .collect();
        let shape = [1, model.config.latent_channels, h / 8, w / 8];
        let ddim = self.rec.reserve_id();
        let ddim_start = Instant::now();
        let latents: Vec<Tensor> = sampler
            .try_sample_cohort::<Infallible>(
                &shape,
                &mut batch_lanes,
                |z_t, t, active| {
                    let timesteps = vec![t; active.len()];
                    Ok(self.timed_unet_forward(model, ddim, (z_t, &timesteps), &control, (&s, &b)))
                },
                |_, _| Ok(()),
            )
            .into_iter()
            .map(|r| r.unwrap_or_else(|never| match never {}).scale(LATENT_SCALE))
            .collect();
        let (rec, req) = (&mut *self.rec, self.request);
        rec.record_reserved(
            ddim,
            Some(root),
            req,
            "diffusion.ddim_sample",
            (ddim_start, Instant::now()),
        );
        let generated: Vec<Image> = rec.timed(Some(root), req, "core.stage1_decode", || {
            let x_hat = model.stage1.decode(&stack(&latents), &x).detach();
            (0..lanes.len())
                .map(|r| tensor_to_image(&row_of(&x_hat, r)).crop_to(w, h))
                .collect()
        });
        let images = lanes
            .iter()
            .zip(&generated)
            .map(|(d, g)| finish_lane(model, d, g, rec, root, req))
            .collect();
        rec.record_reserved(
            root,
            None,
            req,
            "core.recover.composed",
            (start, Instant::now()),
        );
        images
    }
}

/// DC projection and masked-Laplacian refinement of one lane.
fn finish_lane(
    model: &Model,
    dropped: &CoeffImage,
    generated: &Image,
    rec: &mut Recorder,
    root: u64,
    req: u64,
) -> Image {
    let projected = rec.timed(Some(root), req, "core.projection", || {
        project_dc(dropped, generated)
    });
    rec.timed(Some(root), req, "core.mld_refine", || {
        let c = &model.config;
        refine_dc_offsets(
            dropped,
            &projected,
            c.mask_threshold,
            c.prior_weight,
            c.refine_sweeps,
        )
        .to_image()
    })
}

/// The diffusion stack at cohort width `width` (1 or 8), `steps` DDIM steps.
pub fn probe_diffusion(
    inputs: &[Input],
    steps: usize,
    width: usize,
    tel: &Telemetry,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let config = DcDiffConfig::default();
    let model = build_model(&config);
    let real = DcDiff::new(config.clone(), WEIGHTS_SEED);
    let options = RecoverOptions {
        ddim_steps: steps,
        ..RecoverOptions::from_config(&config)
    };
    let reps = if width == 1 {
        RECOVER_SAMPLES
    } else {
        COHORT_SAMPLES
    };
    let mut probe = Probe {
        rec,
        request: 0,
        gemm_flops: tel.counter(names::CTR_GEMM_FLOPS),
        conv_flops: tel.counter(names::CTR_CONV_FLOPS),
        forwards: Vec::new(),
    };
    let mut reproduced = true;
    no_grad(|| {
        for rep in 0..reps {
            probe.request = rep as u64;
            let lanes: Vec<&CoeffImage> = (0..width)
                .map(|l| &inputs[(rep * width + l) % inputs.len()].dropped)
                .collect();
            // Alternate which side runs first so drift cancels.
            let mut composed = Vec::new();
            let mut direct = Vec::new();
            for side in [rep % 2, 1 - rep % 2] {
                if side == 0 {
                    composed = if width == 1 {
                        vec![probe.composed_single(&model, lanes[0], steps)]
                    } else {
                        probe.composed_cohort(&model, &lanes, steps)
                    };
                } else {
                    direct = probe.rec.timed(None, rep as u64, "core.recover", || {
                        if width == 1 {
                            let opts = RecoverOptions {
                                seed: content_seed(lanes[0]),
                                ..options
                            };
                            vec![real.try_recover_with(lanes[0], &opts, None)]
                        } else {
                            let jobs: Vec<BatchRecoverJob<'_>> =
                                lanes.iter().map(|d| BatchRecoverJob::new(d)).collect();
                            real.try_recover_batch(&jobs, &options)
                        }
                    });
                }
            }
            reproduced &= composed.len() == direct.len()
                && composed
                    .iter()
                    .zip(&direct)
                    .all(|(c, d)| d.as_ref().is_ok_and(|d| same_pixels(c, d)));
        }
    });
    let forwards = std::mem::take(&mut probe.forwards);
    let rec = probe.rec;
    println!(
        "info\tre-composed diffusion probe reproduces DcDiff output bit for bit: {reproduced}"
    );

    for (metric, span) in [
        ("diffusion.fmpp_ms", "diffusion.fmpp"),
        ("nn.control_ms", "nn.control"),
        ("diffusion.ddim_sample_ms", "diffusion.ddim_sample"),
        ("core.stage1_decode_ms", "core.stage1_decode"),
        ("core.projection_ms", "core.projection"),
        ("core.mld_refine_ms", "core.mld_refine"),
    ] {
        out.set(metric, median(&rec.durations_ms(span)));
    }
    let (forward_metric, recover_metric) = if width == 1 {
        ("nn.unet_forward_ms.w1", "core.recover_ms.w1")
    } else {
        ("nn.unet_forward_ms.w8", "core.recover_ms.w8")
    };
    out.set(forward_metric, median(&rec.durations_ms("nn.unet_forward")));
    let recover = rec.durations_ms("core.recover");
    out.set(recover_metric, median(&recover));
    // Per repetition, the composed recovery's direct children (duration −
    // self time) against the real call that ran beside it; pairing them
    // keeps host speed swings between repetitions out of the ratio.
    let covered: Vec<f64> = rec
        .durations_ms("core.recover.composed")
        .iter()
        .zip(rec.self_times_ms("core.recover.composed"))
        .zip(&recover)
        .filter(|(_, real)| **real > 0.0)
        .map(|((d, s), real)| (d - s) / real)
        .collect();
    if !covered.is_empty() {
        out.set("core.unattributed_share", 1.0 - median(&covered));
    }
    let flops: Vec<f64> = forwards.iter().map(|f| f.0).collect();
    let rates: Vec<f64> = forwards
        .iter()
        .filter(|f| f.1 > 0.0)
        .map(|f| f.0 / f.1)
        .collect();
    out.set("tensor.mflop_per_forward", median(&flops) / 1e6);
    out.set("tensor.unet_gflops", median(&rates) / 1e9);
}

fn same_pixels(a: &Image, b: &Image) -> bool {
    a.dims() == b.dims()
        && a.planes().len() == b.planes().len()
        && a.planes()
            .iter()
            .zip(b.planes())
            .all(|(p, q)| p.as_slice() == q.as_slice())
}

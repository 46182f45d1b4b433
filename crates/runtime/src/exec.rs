//! Job execution: one function per [`Job`] kind, mirroring the CLI
//! sub-commands byte-for-byte, plus the per-worker [`EngineCache`] that lets
//! a micro-batch of Recover jobs reuse one constructed method object instead
//! of rebuilding state per image (the CLI's one-shot behaviour).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcdiff_baselines::{DcRecovery, Icip2022, SmartCom2019, Tip2006};
use dcdiff_core::{
    content_seed, refine_dc_offsets, BatchRecoverJob, CircuitBreaker, DcDiff, DcDiffConfig,
    EstimateError, RecoverOptions,
};
use dcdiff_image::{read_pgm, read_ppm, write_pgm, write_ppm, Image};
use dcdiff_jpeg::{
    encode_coefficients, encode_coefficients_optimized, encode_coefficients_with_restarts,
    CoeffImage, DcDropMode, JpegDecoder, JpegEncoder,
};
use dcdiff_metrics::{psnr, ssim};
use dcdiff_telemetry::names;
use dcdiff_telemetry::Telemetry;

use crate::job::{CodingOpts, Job, JobError, JobFailure, JobOutput, RecoverMethod};

/// Read a PPM or PGM image based on the file extension (CLI-compatible).
fn read_image(path: &str) -> Result<Image, JobError> {
    let loaded = if path.to_ascii_lowercase().ends_with(".pgm") {
        read_pgm(path)
    } else {
        read_ppm(path)
    };
    loaded.map_err(|e| classify_image_error(path, &e))
}

/// Write a PPM or PGM image based on the file extension (CLI-compatible).
fn write_image(path: &str, image: &Image) -> Result<(), JobError> {
    let written = if path.to_ascii_lowercase().ends_with(".pgm") {
        write_pgm(path, image)
    } else {
        write_ppm(path, image)
    };
    written.map_err(|e| classify_image_error(path, &e))
}

/// Image-crate errors render as strings; keep the path and treat them as
/// permanent unless the message clearly names a transient I/O condition.
fn classify_image_error(path: &str, err: &impl std::fmt::Display) -> JobError {
    JobError::permanent(format!("{path}: {err}"))
}

fn read_bytes(path: &str) -> Result<Vec<u8>, JobError> {
    std::fs::read(path).map_err(|e| {
        let mut err = JobError::from_io(&e);
        err.message = format!("{path}: {}", err.message);
        err
    })
}

fn write_bytes(path: &str, bytes: &[u8]) -> Result<(), JobError> {
    std::fs::write(path, bytes).map_err(|e| {
        let mut err = JobError::from_io(&e);
        err.message = format!("{path}: {}", err.message);
        err
    })
}

/// Entropy-code `coeffs` under the shared coding options.
fn code(coeffs: &CoeffImage, opts: &CodingOpts) -> Result<Vec<u8>, JobError> {
    let coded = if opts.optimize {
        encode_coefficients_optimized(coeffs)
    } else if opts.restart > 0 {
        encode_coefficients_with_restarts(coeffs, opts.restart)
    } else {
        encode_coefficients(coeffs)
    };
    coded.map_err(|e| JobError::permanent(e.to_string()))
}

/// How Recover jobs degrade when the selected method fails.
///
/// One policy is shared by every worker of a [`crate::Runtime`] (the
/// breaker is behind an `Arc`), so consecutive failures across workers
/// accumulate into one per-runtime trip decision. The default enables the
/// ladder of [`recover_guarded`] — a failing engine falls back to the
/// TIP-2006 baseline, and a panicking baseline falls back to flat DC.
/// `dcdiff batch --no-fallback`
/// selects [`RecoveryPolicy::no_fallback`] instead, surfacing the primary
/// failure as a permanent [`JobError`].
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Whether failed recoveries degrade to lower tiers (default) or fail
    /// the job.
    pub fallback: bool,
    /// Per-runtime breaker in front of the primary method; after its
    /// threshold of consecutive failures, jobs skip straight to the
    /// baseline tier until the cooldown elapses.
    pub breaker: Arc<CircuitBreaker>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            fallback: true,
            breaker: Arc::new(CircuitBreaker::new(3, Duration::from_secs(30))),
        }
    }
}

impl RecoveryPolicy {
    /// The `--no-fallback` escape hatch: primary failures fail the job.
    pub fn no_fallback() -> Self {
        RecoveryPolicy { fallback: false, ..RecoveryPolicy::default() }
    }
}

/// The paper's estimator behind [`RecoverMethod::Diffusion`]: latent DDIM
/// sampling conditioned on FMPP features, masked-Laplacian refinement, and
/// DC projection. Weights come from a fixed construction seed and each
/// recovery samples under a seed derived from the stream's own content
/// ([`content_seed`]), so results are reproducible run to run *and*
/// bit-identical whatever cohort a request shares. Per-DDIM-step spans flow
/// through the process-wide telemetry handle and carry each lane's trace
/// context.
struct DiffusionEngine {
    model: DcDiff,
    options: RecoverOptions,
}

impl DiffusionEngine {
    fn new(ddim_steps: usize) -> Self {
        let config = DcDiffConfig::default();
        let mut options = RecoverOptions::from_config(&config);
        // The DDIM sampler panics outside 1..=diffusion_steps; clamp so a
        // misconfigured job runs at a legal step count instead of unwinding
        // into the fallback ladder.
        options.ddim_steps = ddim_steps.clamp(1, config.diffusion_steps);
        DiffusionEngine { model: DcDiff::new(config, 0xdcd1ff), options }
    }
}

/// A constructed recovery method.
enum Engine {
    /// A statistical baseline (or an injected test double).
    Object(Box<dyn DcRecovery>),
    /// The diffusion estimator, whose fused path serves a whole cohort.
    Diffusion(Box<DiffusionEngine>),
    /// Masked-Laplacian refinement: a pure function of its parameters.
    Mld {
        /// Eq. 3 high-frequency mask threshold.
        threshold: f32,
        /// Number of refinement sweeps.
        sweeps: usize,
    },
}

impl Engine {
    /// Recover one image.
    fn recover(&self, dropped: &CoeffImage) -> Image {
        match self {
            Engine::Object(engine) => engine.recover(dropped),
            Engine::Diffusion(engine) => {
                let options = RecoverOptions { seed: content_seed(dropped), ..engine.options };
                engine.model.recover_with(dropped, &options)
            }
            // Neutral prior — identical constants to the CLI
            // `recover --method mld` path.
            Engine::Mld { threshold, sweeps } => {
                refine_dc_offsets(dropped, dropped, *threshold, 5e-4, (*sweeps).max(1)).to_image()
            }
        }
    }
}

/// Per-worker cache of constructed recovery objects, keyed by method config.
///
/// The statistical baselines are stateless once built, so one instance can
/// serve every image in a batch — and every later batch on the same worker.
/// Also carries the runtime's [`RecoveryPolicy`] so [`execute`] keeps its
/// signature while the degradation ladder stays configurable per runtime.
#[derive(Default)]
pub struct EngineCache {
    engines: Vec<(RecoverMethod, Engine)>,
    policy: RecoveryPolicy,
    /// Batch jobs served by an already-constructed engine.
    pub hits: u64,
    /// Engine constructions.
    pub misses: u64,
}

impl EngineCache {
    /// Fresh, empty cache with the default [`RecoveryPolicy`].
    pub fn new() -> Self {
        EngineCache::default()
    }

    /// Fresh cache executing Recover jobs under `policy`.
    pub fn with_policy(policy: RecoveryPolicy) -> Self {
        EngineCache { policy, ..EngineCache::default() }
    }

    /// The degradation policy this cache executes Recover jobs under.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Replace a method's engine (tests inject failing engines with this).
    #[cfg(test)]
    fn inject(&mut self, method: RecoverMethod, engine: Box<dyn DcRecovery>) {
        self.engines.retain(|(m, _)| !m.same_config(&method));
        self.engines.push((method, Engine::Object(engine)));
    }

    /// The engine for `method`, constructing it on first use.
    fn engine(&mut self, method: &RecoverMethod) -> &Engine {
        let i = match self.engines.iter().position(|(m, _)| m.same_config(method)) {
            Some(i) => {
                self.hits += 1;
                i
            }
            None => {
                let engine = match *method {
                    RecoverMethod::Tip2006 => Engine::Object(Box::new(Tip2006::new())),
                    RecoverMethod::SmartCom => Engine::Object(Box::new(SmartCom2019::new())),
                    RecoverMethod::Icip => Engine::Object(Box::new(Icip2022::new())),
                    RecoverMethod::Diffusion { ddim_steps } => {
                        Engine::Diffusion(Box::new(DiffusionEngine::new(ddim_steps)))
                    }
                    RecoverMethod::Mld { threshold, sweeps } => Engine::Mld { threshold, sweeps },
                };
                self.misses += 1;
                self.engines.push((*method, engine));
                self.engines.len() - 1
            }
        };
        &self.engines[i].1
    }
}

/// Execute one job, using (and warming) `engines` for Recover work.
///
/// Sub-phases (read, transform, entropy-code, write) are wrapped in `tel`
/// spans; with tracing disabled each span is a no-op.
///
/// # Errors
///
/// Returns a classified [`JobError`]; only I/O interruptions are transient.
pub fn execute(
    job: &Job,
    engines: &mut EngineCache,
    tel: &Telemetry,
) -> Result<JobOutput, JobError> {
    match job {
        Job::Encode { input, output, quality, sampling, opts } => {
            if !(1..=100).contains(quality) {
                return Err(JobError::permanent("--quality must be 1..=100"));
            }
            let read = tel.span(names::SPAN_ENCODE_READ);
            let image = read_image(input)?;
            drop(read);
            let dct = tel.span(names::SPAN_ENCODE_DCT);
            let encoder = JpegEncoder::new(*quality).with_sampling(*sampling);
            let mut coeffs = encoder.to_coefficients(&image);
            drop(dct);
            if opts.drop_dc {
                let _drop_dc = tel.span(names::SPAN_ENCODE_DROP_DC);
                coeffs = coeffs.drop_dc(DcDropMode::KeepCorners);
            }
            let entropy = tel.span(names::SPAN_ENCODE_ENTROPY);
            let bytes = code(&coeffs, opts)?;
            drop(entropy);
            let _write = tel.span(names::SPAN_ENCODE_WRITE);
            write_bytes(output, &bytes)?;
            Ok(JobOutput::Encoded { bytes: bytes.len() })
        }
        Job::Transcode { input, output, opts } => {
            let read = tel.span(names::SPAN_TRANSCODE_READ);
            let bytes = read_bytes(input)?;
            drop(read);
            let decode = tel.span(names::SPAN_TRANSCODE_ENTROPY_DECODE);
            let mut coeffs = JpegDecoder::decode_coefficients(&bytes).map_err(|e| {
                let mut err = JobError::from_jpeg(&e);
                err.message = format!("{input}: {}", err.message);
                err
            })?;
            drop(decode);
            if opts.drop_dc {
                let _drop_dc = tel.span(names::SPAN_TRANSCODE_DROP_DC);
                coeffs = coeffs.drop_dc(DcDropMode::KeepCorners);
            }
            let encode = tel.span(names::SPAN_TRANSCODE_ENTROPY_ENCODE);
            let out = code(&coeffs, opts)?;
            drop(encode);
            let _write = tel.span(names::SPAN_TRANSCODE_WRITE);
            write_bytes(output, &out)?;
            Ok(JobOutput::Transcoded { bytes_in: bytes.len(), bytes_out: out.len() })
        }
        Job::Recover { input, output, method } => {
            let dropped = decode_recover_input(input, tel)?;
            let lane = CohortLane { dropped: &dropped, deadline: None, trace: None };
            let estimate = tel.span(names::SPAN_RECOVER_ESTIMATE);
            let outcome = recover_guarded(&[lane], method, engines, tel).pop();
            drop(estimate);
            match outcome {
                Some(Ok(image)) => {
                    write_recover_output(output, &image, tel)?;
                    Ok(JobOutput::Recovered { output: output.clone() })
                }
                Some(Err(JobFailure::Error(err))) => Err(err),
                // Without a deadline no lane is evicted, and one lane in
                // gives one outcome out.
                _ => Err(JobError::permanent(format!("{input}: recovery produced no image"))),
            }
        }
        Job::Metrics { reference, test } => {
            let read = tel.span(names::SPAN_METRICS_READ);
            let reference_img = read_image(reference)?;
            let test_img = read_image(test)?;
            drop(read);
            if reference_img.dims() != test_img.dims() {
                return Err(JobError::permanent(format!(
                    "size mismatch: {}x{} vs {}x{}",
                    reference_img.width(),
                    reference_img.height(),
                    test_img.width(),
                    test_img.height()
                )));
            }
            let _compare = tel.span(names::SPAN_METRICS_COMPARE);
            Ok(JobOutput::Metrics {
                psnr: f64::from(psnr(&reference_img, &test_img)),
                ssim: f64::from(ssim(&reference_img, &test_img)),
            })
        }
    }
}

/// Read and entropy-decode one Recover input under the `recover.read` /
/// `recover.entropy_decode` spans.
///
/// # Errors
///
/// Classified [`JobError`]: truncated streams and interrupted I/O are
/// transient, everything else permanent.
pub(crate) fn decode_recover_input(input: &str, tel: &Telemetry) -> Result<CoeffImage, JobError> {
    let read = tel.span(names::SPAN_RECOVER_READ);
    let bytes = read_bytes(input)?;
    drop(read);
    let _decode = tel.span(names::SPAN_RECOVER_ENTROPY_DECODE);
    JpegDecoder::decode_coefficients(&bytes).map_err(|e| {
        let mut err = JobError::from_jpeg(&e);
        err.message = format!("{input}: {}", err.message);
        err
    })
}

/// Write one recovered image under the `recover.write` span.
///
/// # Errors
///
/// Classified [`JobError`] from the underlying image write.
pub(crate) fn write_recover_output(
    output: &str,
    image: &Image,
    tel: &Telemetry,
) -> Result<(), JobError> {
    let _write = tel.span(names::SPAN_RECOVER_WRITE);
    write_image(output, image)
}

/// One lane of a [`recover_guarded`] call: the already-decoded input plus
/// its serving metadata.
pub struct CohortLane<'a> {
    /// DC-dropped coefficients (read and entropy-decoded by the caller).
    pub dropped: &'a CoeffImage,
    /// Absolute deadline; expiry mid-flight evicts this lane only.
    pub deadline: Option<Instant>,
    /// Submitting request's trace context, re-installed for this lane's
    /// spans and log lines.
    pub trace: Option<dcdiff_telemetry::TraceCtx>,
}

/// The selected method's own estimate per lane, before any degradation:
/// one fused `DcDiff::try_recover_batch` for diffusion (per-lane content
/// seeds keep each result bit-identical at any width), one panic-guarded
/// call per lane for the baselines and the pure MLD function.
fn primary(
    lanes: &[CohortLane<'_>],
    method: &RecoverMethod,
    engines: &mut EngineCache,
) -> Vec<Result<Image, EstimateError>> {
    match engines.engine(method) {
        Engine::Diffusion(engine) => {
            let jobs: Vec<BatchRecoverJob<'_>> = lanes
                .iter()
                .map(|lane| BatchRecoverJob {
                    dropped: lane.dropped,
                    seed: content_seed(lane.dropped),
                    deadline: lane.deadline,
                    trace: lane.trace,
                })
                .collect();
            engine.model.try_recover_batch(&jobs, &engine.options)
        }
        engine => lanes
            .iter()
            .map(|lane| {
                let _trace = lane.trace.map(dcdiff_telemetry::install_trace);
                catch_unwind(AssertUnwindSafe(|| engine.recover(lane.dropped)))
                    .map_err(EstimateError::panicked)
            })
            .collect(),
    }
}

/// The degradation ladder, for every method and any number of lanes.
///
/// The primary tier (the selected method itself) runs fronted by the
/// policy's per-runtime circuit breaker. A lane the primary does not
/// resolve degrades alone — TIP-2006 baseline, then flat DC — so the
/// ladder always produces an image, with the tier recorded in telemetry
/// counters
/// (`estimator.primary_ok` / `estimator.primary_fail` /
/// `estimator.fallback_baseline` / `estimator.fallback_flat` /
/// `estimator.breaker_short_circuit`) and the `breaker.state` gauge.
///
/// A deadline-evicted lane resolves to [`JobFailure::DeadlineExceeded`]
/// rather than degrading: a blown deadline is the lane's budget running
/// out, not an engine fault, so it neither trips the breaker nor buys a
/// slower tier the caller has no time left for. With fallback disabled
/// ([`RecoveryPolicy::no_fallback`]), a primary failure resolves to a
/// permanent [`JobFailure::Error`] instead of degrading.
pub fn recover_guarded(
    lanes: &[CohortLane<'_>],
    method: &RecoverMethod,
    engines: &mut EngineCache,
    tel: &Telemetry,
) -> Vec<Result<Image, JobFailure>> {
    let policy = engines.policy.clone();
    // `None` marks a lane the open breaker kept off the primary tier.
    let attempts: Vec<Option<Result<Image, EstimateError>>> =
        if !policy.fallback || policy.breaker.allow() {
            primary(lanes, method, engines).into_iter().map(Some).collect()
        } else {
            lanes.iter().map(|_| None).collect()
        };
    let outcomes = lanes
        .iter()
        .zip(attempts)
        .map(|(lane, attempt)| {
            let _trace = lane.trace.map(dcdiff_telemetry::install_trace);
            match attempt {
                Some(Err(EstimateError::DeadlineExceeded { .. })) => {
                    return Err(JobFailure::DeadlineExceeded)
                }
                Some(Ok(image)) if !policy.fallback => return Ok(image),
                Some(Err(err)) if !policy.fallback => {
                    return Err(JobFailure::Error(JobError::permanent(format!(
                        "recovery ({}) failed with --no-fallback: {err}",
                        method.name()
                    ))))
                }
                Some(Ok(image)) => {
                    policy.breaker.record_success();
                    tel.counter(names::CTR_ESTIMATOR_PRIMARY_OK).inc();
                    return Ok(image);
                }
                Some(Err(err)) => {
                    policy.breaker.record_failure();
                    tel.counter(names::CTR_ESTIMATOR_PRIMARY_FAIL).inc();
                    tel.warn(format!(
                        "recovery ({}) failed ({err}); degrading to baseline",
                        method.name()
                    ));
                }
                None => tel.counter(names::CTR_ESTIMATOR_BREAKER_SHORT_CIRCUIT).inc(),
            }
            // Baseline tier: TIP-2006 is training-free and has no failure
            // modes of its own, but a panic here must not kill the ladder
            // either. Flat-DC tier: decode with the dropped DC left at zero;
            // the picture is degraded but structurally valid.
            let baseline = catch_unwind(AssertUnwindSafe(|| {
                engines.engine(&RecoverMethod::Tip2006).recover(lane.dropped)
            }));
            Ok(match baseline {
                Ok(image) => {
                    tel.counter(names::CTR_ESTIMATOR_FALLBACK_BASELINE).inc();
                    image
                }
                Err(_) => {
                    tel.counter(names::CTR_ESTIMATOR_FALLBACK_FLAT).inc();
                    lane.dropped.to_image()
                }
            })
        })
        .collect();
    if policy.fallback {
        tel.gauge(names::GAUGE_BREAKER_STATE).set(policy.breaker.state().as_gauge());
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_cache_reuses_per_config() {
        let mut cache = EngineCache::new();
        let mld = RecoverMethod::Mld { threshold: 10.0, sweeps: 5 };
        for method in [RecoverMethod::Tip2006, RecoverMethod::Tip2006, RecoverMethod::Icip, mld] {
            cache.engine(&method);
        }
        assert_eq!(cache.misses, 3);
        assert_eq!(cache.hits, 1);
        assert!(matches!(cache.engine(&mld), Engine::Mld { sweeps: 5, .. }));
    }

    #[test]
    fn diffusion_engine_recovers_one_image() {
        let mut cache = EngineCache::new();
        let method = RecoverMethod::Diffusion { ddim_steps: 2 };
        let dropped = dropped_coeffs();
        let image = cache.engine(&method).recover(&dropped);
        assert_eq!(image.dims(), (32, 32));
        // The cache keys on ddim_steps: same count hits, different misses.
        cache.engine(&method);
        cache.engine(&RecoverMethod::Diffusion { ddim_steps: 3 });
        assert_eq!((cache.misses, cache.hits), (2, 1));
    }

    #[test]
    fn diffusion_engine_clamps_illegal_step_counts() {
        // Zero steps would panic inside the DDIM sampler; the engine
        // clamps to a legal count instead.
        let engine = DiffusionEngine::new(0);
        assert_eq!(engine.options.ddim_steps, 1);
        let huge = DiffusionEngine::new(usize::MAX);
        assert_eq!(huge.options.ddim_steps, DcDiffConfig::default().diffusion_steps);
    }

    /// Test double standing in for a broken/mis-deployed recovery engine:
    /// panics on every call and counts how often it was even asked.
    struct PanickingRecovery(std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl DcRecovery for PanickingRecovery {
        fn name(&self) -> &'static str {
            "panicking-test-double"
        }

        fn recover(&self, dropped: &CoeffImage) -> Image {
            self.recover_coefficients(dropped).to_image()
        }

        fn recover_coefficients(&self, _dropped: &CoeffImage) -> CoeffImage {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            panic!("injected engine failure");
        }
    }

    fn dropped_coeffs() -> CoeffImage {
        dropped_coeffs_filled(100.0)
    }

    fn dropped_coeffs_filled(level: f32) -> CoeffImage {
        let image = Image::filled(32, 32, dcdiff_image::ColorSpace::Rgb, level);
        JpegEncoder::new(50).to_coefficients(&image).drop_dc(DcDropMode::KeepCorners)
    }

    /// One lane through the ladder, no deadline.
    fn guarded(
        dropped: &CoeffImage,
        method: RecoverMethod,
        cache: &mut EngineCache,
        tel: &Telemetry,
    ) -> Result<Image, JobFailure> {
        let lane = CohortLane { dropped, deadline: None, trace: None };
        recover_guarded(&[lane], &method, cache, tel).pop().expect("one lane in, one outcome out")
    }

    fn silence_panics<T>(f: impl FnOnce() -> T) -> T {
        // The injected engines panic by design; keep test output readable.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn panicking_primary_degrades_to_baseline() {
        silence_panics(|| {
            let tel = Telemetry::new();
            let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let mut cache = EngineCache::new();
            cache.inject(RecoverMethod::Icip, Box::new(PanickingRecovery(calls.clone())));
            let dropped = dropped_coeffs();
            let image = guarded(&dropped, RecoverMethod::Icip, &mut cache, &tel).unwrap();
            assert_eq!(image.dims(), (32, 32));
            assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
            assert_eq!(tel.counter("estimator.primary_fail").get(), 1);
            assert_eq!(tel.counter("estimator.fallback_baseline").get(), 1);
            assert_eq!(tel.counter("estimator.fallback_flat").get(), 0);
        });
    }

    #[test]
    fn panicking_baseline_degrades_to_flat_dc() {
        silence_panics(|| {
            let tel = Telemetry::new();
            let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let mut cache = EngineCache::new();
            // Both the selected method AND the baseline tier are broken.
            cache.inject(RecoverMethod::Tip2006, Box::new(PanickingRecovery(calls.clone())));
            let dropped = dropped_coeffs();
            let image = guarded(&dropped, RecoverMethod::Tip2006, &mut cache, &tel).unwrap();
            assert_eq!(image.dims(), (32, 32));
            assert_eq!(tel.counter("estimator.fallback_flat").get(), 1);
        });
    }

    #[test]
    fn breaker_short_circuits_after_consecutive_failures() {
        silence_panics(|| {
            let tel = Telemetry::new();
            let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let policy = RecoveryPolicy {
                fallback: true,
                breaker: Arc::new(CircuitBreaker::new(2, Duration::from_secs(3600))),
            };
            let mut cache = EngineCache::with_policy(policy);
            cache.inject(RecoverMethod::Icip, Box::new(PanickingRecovery(calls.clone())));
            let dropped = dropped_coeffs();
            for _ in 0..4 {
                guarded(&dropped, RecoverMethod::Icip, &mut cache, &tel).unwrap();
            }
            // Two failures trip the breaker; the last two jobs never touch
            // the primary engine and go straight to the baseline tier.
            assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 2);
            assert_eq!(tel.counter("estimator.breaker_short_circuit").get(), 2);
            assert_eq!(tel.counter("estimator.fallback_baseline").get(), 4);
            assert_eq!(tel.gauge("breaker.state").get(), 2, "gauge reports open");
        });
    }

    #[test]
    fn no_fallback_surfaces_a_permanent_error() {
        silence_panics(|| {
            let tel = Telemetry::new();
            let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let mut cache = EngineCache::with_policy(RecoveryPolicy::no_fallback());
            cache.inject(RecoverMethod::Icip, Box::new(PanickingRecovery(calls)));
            let dropped = dropped_coeffs();
            let outcome = guarded(&dropped, RecoverMethod::Icip, &mut cache, &tel);
            let Err(JobFailure::Error(err)) = outcome else {
                panic!("a failed primary must surface as a job error");
            };
            assert_eq!(err.class, crate::job::ErrorClass::Permanent);
            assert!(err.message.contains("--no-fallback"), "{}", err.message);
            assert!(err.message.contains("injected engine failure"), "{}", err.message);
        });
    }

    #[test]
    fn healthy_method_does_not_degrade() {
        let tel = Telemetry::new();
        let mut cache = EngineCache::new();
        let dropped = dropped_coeffs();
        let image = guarded(&dropped, RecoverMethod::Tip2006, &mut cache, &tel).unwrap();
        assert_eq!(image.dims(), (32, 32));
        assert_eq!(tel.counter("estimator.primary_ok").get(), 1);
        assert_eq!(tel.counter("estimator.fallback_baseline").get(), 0);
        assert_eq!(tel.gauge("breaker.state").get(), 0, "gauge reports closed");
    }

    #[test]
    fn cohort_lanes_match_width_one_calls_bit_exactly() {
        let tel = Telemetry::new();
        let mut cache = EngineCache::new();
        let method = RecoverMethod::Diffusion { ddim_steps: 2 };
        // The sampler publishes cohort telemetry through the process-global
        // handle; sample before/after so parallel tests only help the delta.
        let widths_before = dcdiff_telemetry::global()
            .histogram("diffusion.batch.width")
            .snapshot()
            .count;
        let inputs = [dropped_coeffs_filled(80.0), dropped_coeffs_filled(160.0)];
        let solo: Vec<Image> = inputs
            .iter()
            .map(|dropped| guarded(dropped, method, &mut cache, &Telemetry::new()).unwrap())
            .collect();
        let lanes: Vec<CohortLane<'_>> = inputs
            .iter()
            .map(|dropped| CohortLane { dropped, deadline: None, trace: None })
            .collect();
        let fused = recover_guarded(&lanes, &method, &mut cache, &tel);
        for (lane, reference) in fused.into_iter().zip(&solo) {
            let image = lane.expect("healthy lane recovers");
            assert_eq!(&image, reference, "cohort lane diverged from width-1 output");
        }
        assert_eq!(tel.counter("estimator.primary_ok").get(), 2);
        assert_eq!(tel.counter("estimator.fallback_baseline").get(), 0);
        let widths = dcdiff_telemetry::global().histogram("diffusion.batch.width").snapshot();
        assert!(widths.count > widths_before, "fused steps must observe cohort width");
        assert!(widths.max >= 2, "both lanes shared each forward");
    }

    #[test]
    fn expired_cohort_lane_is_evicted_without_aborting_batch_mates() {
        let tel = Telemetry::new();
        let mut cache = EngineCache::new();
        let method = RecoverMethod::Diffusion { ddim_steps: 2 };
        let survivor_input = dropped_coeffs_filled(120.0);
        let doomed_input = dropped_coeffs_filled(60.0);
        let reference = guarded(&survivor_input, method, &mut cache, &Telemetry::new()).unwrap();
        let lanes = [
            CohortLane { dropped: &survivor_input, deadline: None, trace: None },
            CohortLane {
                dropped: &doomed_input,
                // Already expired: evicted at the first cooperative check.
                deadline: Some(Instant::now() - Duration::from_secs(1)),
                trace: None,
            },
        ];
        let mut fused = recover_guarded(&lanes, &method, &mut cache, &tel);
        let doomed = fused.pop().unwrap();
        let survivor = fused.pop().unwrap();
        assert_eq!(doomed, Err(JobFailure::DeadlineExceeded), "expired lane must report eviction");
        assert_eq!(survivor.expect("survivor recovers"), reference);
        // Eviction is the lane's budget, not an engine fault: no breaker
        // failure, no fallback tier.
        assert_eq!(tel.counter("estimator.primary_fail").get(), 0);
        assert_eq!(tel.counter("estimator.fallback_baseline").get(), 0);
    }

    #[test]
    fn missing_input_is_permanent() {
        let mut cache = EngineCache::new();
        let job = Job::Metrics {
            reference: "/nonexistent/ref.ppm".into(),
            test: "/nonexistent/test.ppm".into(),
        };
        let err = execute(&job, &mut cache, &Telemetry::new()).unwrap_err();
        assert_eq!(err.class, crate::job::ErrorClass::Permanent);
        assert!(err.message.contains("/nonexistent/ref.ppm"), "{}", err.message);
    }
}

//! The job model: what the runtime executes, and how outcomes are reported.
//!
//! A [`Job`] describes one unit of pipeline work over files on disk. The
//! `dcdiff encode|transcode|recover|metrics` commands and manifest lines
//! are both parsed into one by [`crate::manifest::parse_job`] and run by the
//! runtime, so a manifest line and a CLI invocation mean the same thing. A
//! [`JobSpec`] adds the serving metadata — deadline and retry budget — and
//! the runtime stamps each accepted spec with a stable [`JobId`].

use std::time::Duration;

use dcdiff_jpeg::ChromaSampling;

/// Stable identifier assigned at submission, unique per runtime instance.
pub type JobId = u64;

/// DC-recovery method selection (`--method`, parsed by
/// [`crate::manifest::parse_method`]). Equal selections share an engine
/// configuration, so they can be served by one micro-batch without
/// changing results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoverMethod {
    /// Ahmed et al., TIP 2006 — gradient-based propagation.
    Tip2006,
    /// SmartCom 2019 — smoothness-driven estimation.
    SmartCom,
    /// ICIP 2022 — iterative sweep refinement.
    Icip,
    /// Masked-Laplacian refinement (the training-free DCDiff receiver core).
    Mld {
        /// Eq. 3 high-frequency mask threshold.
        threshold: f32,
        /// Number of refinement sweeps.
        sweeps: usize,
    },
    /// The diffusion estimator itself (`dcdiff_core::DcDiff`): latent DDIM
    /// sampling conditioned on FMPP features, then DC projection. The step
    /// count trades latency for fidelity and keys micro-batching — only
    /// identical step counts share a batch.
    Diffusion {
        /// DDIM steps per recovery (1..=the schedule's training steps).
        ddim_steps: usize,
    },
}

impl RecoverMethod {
    /// Manifest/CLI spelling of the method.
    pub fn name(&self) -> &'static str {
        match self {
            RecoverMethod::Tip2006 => "tip2006",
            RecoverMethod::SmartCom => "smartcom",
            RecoverMethod::Icip => "icip",
            RecoverMethod::Mld { .. } => "mld",
            RecoverMethod::Diffusion { .. } => "diffusion",
        }
    }
}

/// How [`Job::Encode`] picks its quantiser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rate {
    /// Fixed JPEG quality 1..=100 (`--quality`).
    Quality(u8),
    /// The highest quality whose stream fits in this many bytes
    /// (`--budget`, rate control by [`dcdiff_jpeg::rate::encode_to_budget`]).
    /// Coded without restart markers.
    Budget(usize),
}

/// Encoder options shared by [`Job::Encode`] and [`Job::Transcode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodingOpts {
    /// Zero DC coefficients (keeping corner anchors) before entropy coding.
    pub drop_dc: bool,
    /// Two-pass Huffman table optimisation.
    pub optimize: bool,
    /// Restart-marker interval in MCUs (0 = none). Optimised tables are
    /// coded without restart markers, so this must be 0 with `optimize`.
    pub restart: usize,
}

/// One unit of pipeline work. Inputs and outputs are file paths, exactly as
/// the CLI commands take them.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// `dcdiff encode`: PPM/PGM in, JPEG out.
    Encode {
        /// Source image path (`.ppm`/`.pgm`).
        input: String,
        /// Destination JPEG path.
        output: String,
        /// Fixed quality or byte budget.
        rate: Rate,
        /// Chroma subsampling mode.
        sampling: ChromaSampling,
        /// Entropy-coding options.
        opts: CodingOpts,
    },
    /// `dcdiff transcode`: lossless bitstream surgery, optionally DC-dropping.
    Transcode {
        /// Source JPEG path.
        input: String,
        /// Destination JPEG path.
        output: String,
        /// Entropy-coding options.
        opts: CodingOpts,
    },
    /// `dcdiff recover`: estimate dropped DC coefficients, write pixels.
    Recover {
        /// Source JPEG path (DC-dropped).
        input: String,
        /// Destination image path (`.ppm`/`.pgm`).
        output: String,
        /// Recovery method.
        method: RecoverMethod,
    },
    /// `dcdiff metrics`: compare two images.
    Metrics {
        /// Reference image path.
        reference: String,
        /// Test image path.
        test: String,
    },
}

impl Job {
    /// Short stage name used for per-stage accounting.
    pub fn stage(&self) -> Stage {
        match self {
            Job::Encode { .. } => Stage::Encode,
            Job::Transcode { .. } => Stage::Transcode,
            Job::Recover { .. } => Stage::Recover,
            Job::Metrics { .. } => Stage::Metrics,
        }
    }

    /// The recovery method when this is a [`Job::Recover`].
    pub fn recover_method(&self) -> Option<&RecoverMethod> {
        match self {
            Job::Recover { method, .. } => Some(method),
            _ => None,
        }
    }
}

/// Pipeline stage of a job, used as the per-stage counter index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// JPEG encoding.
    Encode,
    /// Bitstream transcode.
    Transcode,
    /// DC recovery.
    Recover,
    /// Quality metrics.
    Metrics,
}

impl Stage {
    /// All stages, in counter order.
    pub const ALL: [Stage; 4] = [Stage::Encode, Stage::Transcode, Stage::Recover, Stage::Metrics];

    /// Stable index into per-stage counter arrays.
    pub fn index(self) -> usize {
        match self {
            Stage::Encode => 0,
            Stage::Transcode => 1,
            Stage::Recover => 2,
            Stage::Metrics => 3,
        }
    }

    /// Lower-case stage name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Encode => "encode",
            Stage::Transcode => "transcode",
            Stage::Recover => "recover",
            Stage::Metrics => "metrics",
        }
    }
}

/// A job plus its serving contract.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The work to perform.
    pub job: Job,
    /// Relative deadline, measured from submission. A job still queued (or
    /// retried) past its deadline fails with [`JobFailure::DeadlineExceeded`]
    /// instead of executing; execution already in flight is not preempted.
    pub deadline: Option<Duration>,
    /// How many times a *transient* failure may be retried.
    pub max_retries: u32,
    /// Request-scoped trace context carried from the submitter (e.g. the
    /// serve front door's `traceparent`) across the queue to the worker
    /// thread, where it is re-installed so every span the job emits —
    /// queue wait, batch exec, recovery phases, DDIM steps — carries the
    /// request's trace id.
    pub trace: Option<dcdiff_telemetry::TraceCtx>,
}

impl JobSpec {
    /// Spec with no deadline, no retries, no trace context.
    pub fn new(job: Job) -> Self {
        JobSpec { job, deadline: None, max_retries: 0, trace: None }
    }

    /// Set the relative deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the transient-failure retry budget.
    #[must_use]
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Attach the submitting request's trace context.
    #[must_use]
    pub fn with_trace(mut self, trace: dcdiff_telemetry::TraceCtx) -> Self {
        self.trace = Some(trace);
        self
    }
}

impl From<Job> for JobSpec {
    fn from(job: Job) -> Self {
        JobSpec::new(job)
    }
}

/// Whether a failure is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Environmental hiccup (interrupted I/O, timeouts); retry may succeed.
    Transient,
    /// Deterministic failure (missing file, malformed stream, bad config);
    /// retrying cannot help.
    Permanent,
}

/// An execution error with its retry classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Retry classification.
    pub class: ErrorClass,
    /// Human-readable description.
    pub message: String,
}

impl JobError {
    /// A permanent (non-retryable) error.
    pub fn permanent(message: impl Into<String>) -> Self {
        JobError { class: ErrorClass::Permanent, message: message.into() }
    }

    /// A transient (retryable) error.
    pub fn transient(message: impl Into<String>) -> Self {
        JobError { class: ErrorClass::Transient, message: message.into() }
    }

    /// Classify a JPEG codec error by the decoder's own taxonomy:
    /// [`dcdiff_jpeg::JpegErrorKind::Truncated`] streams are transient
    /// (the sender's uplink may still deliver the missing bytes — a retry
    /// can see a complete file), while malformed, unsupported and internal
    /// errors are deterministic and therefore permanent.
    pub fn from_jpeg(err: &dcdiff_jpeg::JpegError) -> Self {
        if err.is_transient() {
            JobError::transient(err.to_string())
        } else {
            JobError::permanent(err.to_string())
        }
    }

    /// Classify a `std::io` error: interruptions and timeouts are transient,
    /// everything else (not found, permissions, ...) is permanent.
    pub fn from_io(err: &std::io::Error) -> Self {
        use std::io::ErrorKind;
        match err.kind() {
            ErrorKind::Interrupted | ErrorKind::TimedOut | ErrorKind::WouldBlock => {
                JobError::transient(err.to_string())
            }
            _ => JobError::permanent(err.to_string()),
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let class = match self.class {
            ErrorClass::Transient => "transient",
            ErrorClass::Permanent => "permanent",
        };
        write!(f, "{class}: {}", self.message)
    }
}

/// Success payload, one variant per job kind.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// Bytes written by an encode.
    Encoded {
        /// Output stream size.
        bytes: usize,
        /// JPEG quality used: the fixed one, or the one rate control picked.
        quality: u8,
    },
    /// Before/after sizes of a transcode.
    Transcoded {
        /// Input stream size.
        bytes_in: usize,
        /// Output stream size.
        bytes_out: usize,
    },
    /// Path written by a recovery.
    Recovered {
        /// Output image path.
        output: String,
    },
    /// Quality metrics of a comparison.
    Metrics {
        /// Peak signal-to-noise ratio in dB.
        psnr: f64,
        /// Structural similarity in `[-1, 1]`.
        ssim: f64,
        /// Multi-scale SSIM; `None` when either side is under 16 px.
        ms_ssim: Option<f64>,
        /// Learned-perceptual distance (LPIPS-style, lower is closer).
        lpips: f64,
    },
}

/// Terminal, non-success dispositions of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobFailure {
    /// Execution failed (after exhausting any retry budget).
    Error(JobError),
    /// The deadline passed before the job could execute.
    DeadlineExceeded,
    /// The runtime was shut down in abort mode while the job was queued.
    /// Distinct from [`JobFailure::Error`] so callers can tell load-shedding
    /// from genuine failures.
    Rejected,
}

/// Final report for one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Identifier returned at submission.
    pub id: JobId,
    /// The job as submitted.
    pub job: Job,
    /// Success payload or failure disposition.
    pub outcome: Result<JobOutput, JobFailure>,
    /// Wall-clock time from submission to completion (includes queueing).
    pub wall: Duration,
    /// Execution time of the final attempt (zero if never executed).
    pub exec: Duration,
    /// Number of execution attempts (0 = never ran, 1 = no retries).
    pub attempts: u32,
}

impl JobResult {
    /// Whether the job completed successfully.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_error_classification() {
        let interrupted = std::io::Error::new(std::io::ErrorKind::Interrupted, "sig");
        assert_eq!(JobError::from_io(&interrupted).class, ErrorClass::Transient);
        let missing = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert_eq!(JobError::from_io(&missing).class, ErrorClass::Permanent);
    }

    #[test]
    fn jpeg_error_classification_follows_the_taxonomy() {
        use dcdiff_jpeg::JpegDecoder;
        // A cut-off header is the canonical transient case...
        let truncated = JpegDecoder::decode(&[0xFF, 0xD8, 0xFF]).unwrap_err();
        assert_eq!(JobError::from_jpeg(&truncated).class, ErrorClass::Transient);
        // ...while garbage bytes are deterministically malformed.
        let malformed = JpegDecoder::decode(b"not a jpeg").unwrap_err();
        assert_eq!(JobError::from_jpeg(&malformed).class, ErrorClass::Permanent);
    }

    #[test]
    fn recover_method_config_identity() {
        let a = RecoverMethod::Mld { threshold: 10.0, sweeps: 300 };
        let b = RecoverMethod::Mld { threshold: 10.0, sweeps: 300 };
        let c = RecoverMethod::Mld { threshold: 9.0, sweeps: 300 };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, RecoverMethod::Tip2006);
        assert_eq!(a.name(), "mld");
        // Diffusion batches only with identical step counts.
        let d8 = RecoverMethod::Diffusion { ddim_steps: 8 };
        assert_eq!(d8, RecoverMethod::Diffusion { ddim_steps: 8 });
        assert_ne!(d8, RecoverMethod::Diffusion { ddim_steps: 16 });
        assert_eq!(d8.name(), "diffusion");
    }

    #[test]
    fn spec_builder() {
        let job = Job::Metrics { reference: "a".into(), test: "b".into() };
        let spec = JobSpec::new(job.clone())
            .with_deadline(Duration::from_millis(50))
            .with_retries(3);
        assert_eq!(spec.deadline, Some(Duration::from_millis(50)));
        assert_eq!(spec.max_retries, 3);
        assert_eq!(spec.job.stage(), Stage::Metrics);
        assert_eq!(spec.trace, None);
        let ctx = dcdiff_telemetry::TraceCtx::generate();
        assert_eq!(spec.with_trace(ctx).trace, Some(ctx));
        assert_eq!(JobSpec::from(job).max_retries, 0);
    }
}

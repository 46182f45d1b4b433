//! The telemetry name registry: every span, counter, gauge and histogram
//! name the production code emits, as constants.
//!
//! Dashboards, the `dcdiff report` aggregator and `runtime_bench` all key on
//! these strings; a typo in a producer silently creates a parallel series
//! that no consumer reads ("the dashboard 404s"). Keeping one registry and
//! making producers import the constants removes the failure mode at the
//! source, and `dcdiff lint` (rule `telemetry-names`) rejects any remaining
//! string literal that is not registered here — so a new name must be added
//! to this module before it can ship.
//!
//! Naming convention: `<subsystem>.<measurement>[_<unit>]`, where the
//! subsystem is one of the registered namespaces (`runtime.*`, `stage.*`,
//! `estimator.*`, `breaker.*`, `tensor.*`, `jpeg.*`, `serve.*`, `log.*`,
//! and the span families `batch.*`, `queue.*`, `job.*`, `encode.*`,
//! `recover.*`, `metrics.*`).
//! Histograms carry their unit as a suffix (`_us`, `_mflops`, `_mbps`).

// ---------------------------------------------------------------- spans --

/// CLI root span covering one `dcdiff batch` invocation end to end.
pub const SPAN_BATCH_RUN: &str = "batch.run";
/// Worker-side assembly of one micro-batch from the queue.
pub const SPAN_BATCH_ASSEMBLE: &str = "batch.assemble";
/// Execution of one assembled micro-batch on a worker.
pub const SPAN_BATCH_EXEC: &str = "batch.exec";
/// Submission-to-pop latency of one job (recorded via `record_span`).
pub const SPAN_QUEUE_WAIT: &str = "queue.wait";

/// One encode job's execution (after any ingest stall) to result.
pub const SPAN_JOB_ENCODE: &str = "job.encode";
/// One transcode job.
pub const SPAN_JOB_TRANSCODE: &str = "job.transcode";
/// One recover job.
pub const SPAN_JOB_RECOVER: &str = "job.recover";
/// One metrics job.
pub const SPAN_JOB_METRICS: &str = "job.metrics";
/// Simulated sender-uplink ingest stall before a job's execution.
pub const SPAN_JOB_INGEST: &str = "job.ingest";
/// Retry backoff sleep inside a job.
pub const SPAN_JOB_BACKOFF: &str = "job.backoff";

/// Encode stage: reading the input image.
pub const SPAN_ENCODE_READ: &str = "encode.read";
/// Encode stage: forward DCT + quantisation.
pub const SPAN_ENCODE_DCT: &str = "encode.dct";
/// Encode stage: DC-coefficient dropping.
pub const SPAN_ENCODE_DROP_DC: &str = "encode.drop_dc";
/// Encode stage: entropy coding.
pub const SPAN_ENCODE_ENTROPY: &str = "encode.entropy";
/// Encode stage: writing the output stream.
pub const SPAN_ENCODE_WRITE: &str = "encode.write";

/// Transcode stage: reading the input stream.
pub const SPAN_TRANSCODE_READ: &str = "transcode.read";
/// Transcode stage: entropy decode to coefficients.
pub const SPAN_TRANSCODE_ENTROPY_DECODE: &str = "transcode.entropy_decode";
/// Transcode stage: DC-coefficient dropping.
pub const SPAN_TRANSCODE_DROP_DC: &str = "transcode.drop_dc";
/// Transcode stage: entropy re-encode.
pub const SPAN_TRANSCODE_ENTROPY_ENCODE: &str = "transcode.entropy_encode";
/// Transcode stage: writing the output stream.
pub const SPAN_TRANSCODE_WRITE: &str = "transcode.write";

/// Recover stage: reading the input stream.
pub const SPAN_RECOVER_READ: &str = "recover.read";
/// Recover stage: entropy decode to coefficients.
pub const SPAN_RECOVER_ENTROPY_DECODE: &str = "recover.entropy_decode";
/// Recover stage: DC estimation (the whole estimator).
pub const SPAN_RECOVER_ESTIMATE: &str = "recover.estimate";
/// Recover stage: writing the recovered image.
pub const SPAN_RECOVER_WRITE: &str = "recover.write";
/// Estimator phase: FMPP feature extraction.
pub const SPAN_RECOVER_FMPP: &str = "recover.fmpp";
/// Estimator phase: DDIM sampling loop.
pub const SPAN_RECOVER_SAMPLE: &str = "recover.sample";
/// One DDIM step inside the sampling loop.
pub const SPAN_RECOVER_DDIM_STEP: &str = "recover.ddim_step";
/// Estimator phase: latent decode.
pub const SPAN_RECOVER_DECODE: &str = "recover.decode";
/// Estimator phase: DC projection onto the coefficient grid.
pub const SPAN_RECOVER_PROJECTION: &str = "recover.projection";
/// Estimator phase: masked-Laplacian refinement.
pub const SPAN_RECOVER_MLD_REFINE: &str = "recover.mld_refine";

/// JPEG decode: entropy decode of one scan (Huffman + dequantisation).
pub const SPAN_JPEG_DECODE_ENTROPY: &str = "jpeg.decode.entropy";
/// JPEG decode: coefficients to pixels (iDCT + colour conversion).
pub const SPAN_JPEG_DECODE_PIXELS: &str = "jpeg.decode.pixels";

/// Metrics stage: reading both images.
pub const SPAN_METRICS_READ: &str = "metrics.read";
/// Metrics stage: computing the quality metrics.
pub const SPAN_METRICS_COMPARE: &str = "metrics.compare";

/// One served request, accept-to-response.
pub const SPAN_SERVE_REQUEST: &str = "serve.request";
/// Reading one request head + body off the socket.
pub const SPAN_SERVE_READ: &str = "serve.read";
/// Blocking wait for the runtime to deliver a watched result.
pub const SPAN_SERVE_WAIT: &str = "serve.wait";
/// Writing one response back to the client.
pub const SPAN_SERVE_WRITE: &str = "serve.write";
/// Graceful drain: stop accepting, flush in-flight, shut the runtime down.
pub const SPAN_SERVE_DRAIN: &str = "serve.drain";

// ----------------------------------------------------------- histograms --

/// Submission-to-pop queue wait per job, microseconds.
pub const HIST_QUEUE_WAIT_US: &str = "runtime.queue_wait_us";
/// Jobs per assembled micro-batch.
pub const HIST_BATCH_SIZE: &str = "runtime.batch_size";
/// Whole-job wall latency, microseconds.
pub const HIST_JOB_WALL_US: &str = "runtime.job_wall_us";
/// Encode stage execute latency, microseconds.
pub const HIST_STAGE_ENCODE_US: &str = "stage.encode_us";
/// Transcode stage execute latency, microseconds.
pub const HIST_STAGE_TRANSCODE_US: &str = "stage.transcode_us";
/// Recover stage execute latency, microseconds.
pub const HIST_STAGE_RECOVER_US: &str = "stage.recover_us";
/// Metrics stage execute latency, microseconds.
pub const HIST_STAGE_METRICS_US: &str = "stage.metrics_us";
/// One blocked GEMM call, microseconds.
pub const HIST_GEMM_US: &str = "tensor.gemm_us";
/// Throughput of one GEMM call, MFLOP/s.
pub const HIST_GEMM_MFLOPS: &str = "tensor.gemm_mflops";
/// One batched conv2d call, microseconds.
pub const HIST_CONV_US: &str = "tensor.conv_us";
/// Throughput of one conv2d call, MFLOP/s.
pub const HIST_CONV_MFLOPS: &str = "tensor.conv_mflops";
/// One entropy-decode pass over a coded stream, microseconds.
pub const HIST_JPEG_DECODE_ENTROPY_US: &str = "jpeg.decode.entropy_us";
/// One coefficients-to-pixels pass (iDCT + colour), microseconds.
pub const HIST_JPEG_DECODE_PIXELS_US: &str = "jpeg.decode.pixels_us";
/// Entropy-decode throughput over the coded bytes, MB/s.
pub const HIST_JPEG_DECODE_MBPS: &str = "jpeg.decode.mbps";
/// Whole-request wall latency at the server, microseconds.
pub const HIST_SERVE_REQUEST_WALL_US: &str = "serve.request_wall_us";
/// Request body size, bytes.
pub const HIST_SERVE_BODY_BYTES: &str = "serve.body_bytes";
/// Active lanes sharing one batched U-Net forward (one observation per
/// shared forward; >1 means cross-request step batching engaged).
pub const HIST_DIFFUSION_BATCH_WIDTH: &str = "diffusion.batch.width";
/// Lanes per assembled diffusion cohort (one observation per cohort).
pub const HIST_DIFFUSION_BATCH_COHORT_LANES: &str = "diffusion.batch.cohort_lanes";

// ------------------------------------------------------------- counters --

/// Jobs re-enqueued after a transient failure.
pub const CTR_RETRIES: &str = "runtime.retries";
/// Recoveries where the primary (diffusion) estimator succeeded.
pub const CTR_ESTIMATOR_PRIMARY_OK: &str = "estimator.primary_ok";
/// Recoveries where the primary estimator failed.
pub const CTR_ESTIMATOR_PRIMARY_FAIL: &str = "estimator.primary_fail";
/// Recoveries that skipped the primary because the breaker was open.
pub const CTR_ESTIMATOR_BREAKER_SHORT_CIRCUIT: &str = "estimator.breaker_short_circuit";
/// Recoveries served by the TIP-2006 baseline fallback.
pub const CTR_ESTIMATOR_FALLBACK_BASELINE: &str = "estimator.fallback_baseline";
/// Recoveries served by the flat-DC fallback of last resort.
pub const CTR_ESTIMATOR_FALLBACK_FLAT: &str = "estimator.fallback_flat";
/// Cumulative coded bytes consumed by JPEG entropy decode.
pub const CTR_JPEG_DECODE_BYTES: &str = "jpeg.decode.bytes";
/// Cumulative 8x8 blocks pushed through iDCT on the decode path.
pub const CTR_JPEG_DECODE_BLOCKS: &str = "jpeg.decode.blocks";
/// Cumulative multiply-adds issued by the GEMM kernels (x2).
pub const CTR_GEMM_FLOPS: &str = "tensor.gemm_flops";
/// Cumulative multiply-adds issued by conv2d (x2).
pub const CTR_CONV_FLOPS: &str = "tensor.conv_flops";
/// Requests admitted into the runtime queue by the server.
pub const CTR_SERVE_ACCEPTED: &str = "serve.accepted";
/// Requests shed by admission control (queue too deep for the class, or
/// the server was draining).
pub const CTR_SERVE_SHED: &str = "serve.shed";
/// Requests rejected by the per-client in-flight fairness cap.
pub const CTR_SERVE_FAIRNESS_REJECT: &str = "serve.fairness_reject";
/// Requests rejected before submission: malformed HTTP, bad body,
/// oversized payload.
pub const CTR_SERVE_BAD_REQUEST: &str = "serve.bad_request";
/// Requests that completed with a recovered payload.
pub const CTR_SERVE_COMPLETED: &str = "serve.completed";
/// Requests whose job failed or timed out after admission.
pub const CTR_SERVE_FAILED: &str = "serve.failed";
/// Connections that dropped before the response was fully written.
pub const CTR_SERVE_DISCONNECTS: &str = "serve.disconnects";
/// Log lines dropped by the logger's rate limiter.
pub const CTR_LOG_SUPPRESSED: &str = "log.suppressed";
/// Diffusion cohorts executed by the step-batched sampler.
pub const CTR_DIFFUSION_BATCH_COHORTS: &str = "diffusion.batch.cohorts";
/// Shared (batched) U-Net forwards issued across all cohorts.
pub const CTR_DIFFUSION_BATCH_SHARED_FORWARDS: &str = "diffusion.batch.shared_forwards";
/// Per-lane DDIM steps executed inside shared forwards; dividing by
/// `diffusion.batch.shared_forwards` gives the realised amortisation.
pub const CTR_DIFFUSION_BATCH_LANE_STEPS: &str = "diffusion.batch.lane_steps";
/// Lanes evicted mid-cohort (deadline expiry) without aborting the cohort.
pub const CTR_DIFFUSION_BATCH_EVICTIONS: &str = "diffusion.batch.evictions";

// --------------------------------------------------------------- gauges --

/// Current queue depth (set on push and pop).
pub const GAUGE_QUEUE_DEPTH: &str = "runtime.queue_depth";
/// Circuit-breaker state: 0 closed, 1 half-open, 2 open.
pub const GAUGE_BREAKER_STATE: &str = "breaker.state";
/// Prefix of the per-worker busy-time gauges (`runtime.worker.<i>.busy_us`).
pub const GAUGE_WORKER_PREFIX: &str = "runtime.worker.";
/// Open client connections at the server.
pub const GAUGE_SERVE_CONNECTIONS: &str = "serve.connections";
/// Requests admitted and not yet responded to.
pub const GAUGE_SERVE_IN_FLIGHT: &str = "serve.in_flight";
/// 1 while the server is draining, else 0.
pub const GAUGE_SERVE_DRAINING: &str = "serve.draining";
/// Prefix of the per-deadline-class shed counters
/// (`serve.class.<name>.shed`) and admit counters
/// (`serve.class.<name>.admitted`).
pub const SERVE_CLASS_PREFIX: &str = "serve.class.";

/// Name of the per-worker cumulative busy-time gauge.
pub fn worker_busy_gauge(worker: usize) -> String {
    format!("{GAUGE_WORKER_PREFIX}{worker}.busy_us")
}

/// Name of the per-deadline-class shed counter.
pub fn class_shed_counter(class: &str) -> String {
    format!("{SERVE_CLASS_PREFIX}{class}.shed")
}

/// Name of the per-deadline-class admitted counter.
pub fn class_admitted_counter(class: &str) -> String {
    format!("{SERVE_CLASS_PREFIX}{class}.admitted")
}

// ------------------------------------------------------------- registry --

/// Every statically-named series, in one place.
pub const REGISTERED: &[&str] = &[
    SPAN_BATCH_RUN,
    SPAN_BATCH_ASSEMBLE,
    SPAN_BATCH_EXEC,
    SPAN_QUEUE_WAIT,
    SPAN_JOB_ENCODE,
    SPAN_JOB_TRANSCODE,
    SPAN_JOB_RECOVER,
    SPAN_JOB_METRICS,
    SPAN_JOB_INGEST,
    SPAN_JOB_BACKOFF,
    SPAN_ENCODE_READ,
    SPAN_ENCODE_DCT,
    SPAN_ENCODE_DROP_DC,
    SPAN_ENCODE_ENTROPY,
    SPAN_ENCODE_WRITE,
    SPAN_TRANSCODE_READ,
    SPAN_TRANSCODE_ENTROPY_DECODE,
    SPAN_TRANSCODE_DROP_DC,
    SPAN_TRANSCODE_ENTROPY_ENCODE,
    SPAN_TRANSCODE_WRITE,
    SPAN_RECOVER_READ,
    SPAN_RECOVER_ENTROPY_DECODE,
    SPAN_RECOVER_ESTIMATE,
    SPAN_RECOVER_WRITE,
    SPAN_RECOVER_FMPP,
    SPAN_RECOVER_SAMPLE,
    SPAN_RECOVER_DDIM_STEP,
    SPAN_RECOVER_DECODE,
    SPAN_RECOVER_PROJECTION,
    SPAN_RECOVER_MLD_REFINE,
    SPAN_JPEG_DECODE_ENTROPY,
    SPAN_JPEG_DECODE_PIXELS,
    SPAN_METRICS_READ,
    SPAN_METRICS_COMPARE,
    SPAN_SERVE_REQUEST,
    SPAN_SERVE_READ,
    SPAN_SERVE_WAIT,
    SPAN_SERVE_WRITE,
    SPAN_SERVE_DRAIN,
    HIST_QUEUE_WAIT_US,
    HIST_BATCH_SIZE,
    HIST_JOB_WALL_US,
    HIST_STAGE_ENCODE_US,
    HIST_STAGE_TRANSCODE_US,
    HIST_STAGE_RECOVER_US,
    HIST_STAGE_METRICS_US,
    HIST_GEMM_US,
    HIST_GEMM_MFLOPS,
    HIST_CONV_US,
    HIST_CONV_MFLOPS,
    HIST_JPEG_DECODE_ENTROPY_US,
    HIST_JPEG_DECODE_PIXELS_US,
    HIST_JPEG_DECODE_MBPS,
    HIST_SERVE_REQUEST_WALL_US,
    HIST_SERVE_BODY_BYTES,
    HIST_DIFFUSION_BATCH_WIDTH,
    HIST_DIFFUSION_BATCH_COHORT_LANES,
    CTR_RETRIES,
    CTR_ESTIMATOR_PRIMARY_OK,
    CTR_ESTIMATOR_PRIMARY_FAIL,
    CTR_ESTIMATOR_BREAKER_SHORT_CIRCUIT,
    CTR_ESTIMATOR_FALLBACK_BASELINE,
    CTR_ESTIMATOR_FALLBACK_FLAT,
    CTR_JPEG_DECODE_BYTES,
    CTR_JPEG_DECODE_BLOCKS,
    CTR_GEMM_FLOPS,
    CTR_CONV_FLOPS,
    CTR_SERVE_ACCEPTED,
    CTR_SERVE_SHED,
    CTR_SERVE_FAIRNESS_REJECT,
    CTR_SERVE_BAD_REQUEST,
    CTR_SERVE_COMPLETED,
    CTR_SERVE_FAILED,
    CTR_SERVE_DISCONNECTS,
    CTR_LOG_SUPPRESSED,
    CTR_DIFFUSION_BATCH_COHORTS,
    CTR_DIFFUSION_BATCH_SHARED_FORWARDS,
    CTR_DIFFUSION_BATCH_LANE_STEPS,
    CTR_DIFFUSION_BATCH_EVICTIONS,
    GAUGE_QUEUE_DEPTH,
    GAUGE_BREAKER_STATE,
    GAUGE_SERVE_CONNECTIONS,
    GAUGE_SERVE_IN_FLIGHT,
    GAUGE_SERVE_DRAINING,
];

/// Prefixes under which names are built at runtime (one series per worker);
/// a name matching one of these is registered even though it cannot appear
/// in [`REGISTERED`] verbatim.
pub const DYNAMIC_PREFIXES: &[&str] = &[GAUGE_WORKER_PREFIX, SERVE_CLASS_PREFIX];

/// Whether `name` is a registered series: either listed in [`REGISTERED`]
/// or under one of the [`DYNAMIC_PREFIXES`].
pub fn is_registered(name: &str) -> bool {
    REGISTERED.contains(&name) || DYNAMIC_PREFIXES.iter().any(|p| name.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_no_duplicates() {
        let mut seen = std::collections::BTreeSet::new();
        for name in REGISTERED {
            assert!(seen.insert(*name), "duplicate registered name {name}");
        }
    }

    #[test]
    fn dynamic_worker_gauges_are_registered() {
        assert!(is_registered(&worker_busy_gauge(0)));
        assert!(is_registered(&worker_busy_gauge(31)));
        assert!(!is_registered("runtime.worker_typo.0.busy_us"));
    }

    #[test]
    fn dynamic_class_series_are_registered() {
        assert!(is_registered(&class_shed_counter("interactive")));
        assert!(is_registered(&class_admitted_counter("bulk")));
        assert!(!is_registered("serve.klass.interactive.shed"));
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(!is_registered("runtime.job_wall_ms")); // wrong unit suffix
        assert!(!is_registered("recover.ddimstep")); // typo'd span
        assert!(!is_registered(""));
    }

    #[test]
    fn diffusion_batch_series_are_registered() {
        assert!(is_registered(HIST_DIFFUSION_BATCH_WIDTH));
        assert!(is_registered(CTR_DIFFUSION_BATCH_COHORTS));
        assert!(is_registered(CTR_DIFFUSION_BATCH_SHARED_FORWARDS));
        assert!(is_registered(CTR_DIFFUSION_BATCH_LANE_STEPS));
        assert!(is_registered(CTR_DIFFUSION_BATCH_EVICTIONS));
        assert!(!is_registered("diffusion.batch.widths")); // near-miss typo
    }

    #[test]
    fn jpeg_decode_series_are_registered() {
        assert!(is_registered(SPAN_JPEG_DECODE_ENTROPY));
        assert!(is_registered(SPAN_JPEG_DECODE_PIXELS));
        assert!(is_registered(HIST_JPEG_DECODE_ENTROPY_US));
        assert!(is_registered(HIST_JPEG_DECODE_PIXELS_US));
        assert!(is_registered(HIST_JPEG_DECODE_MBPS));
        assert!(is_registered(CTR_JPEG_DECODE_BYTES));
        assert!(is_registered(CTR_JPEG_DECODE_BLOCKS));
        assert!(!is_registered("jpeg.decode.mb_per_s")); // near-miss typo
    }

    #[test]
    fn every_name_follows_the_dotted_convention() {
        for name in REGISTERED {
            assert!(
                name.contains('.') && !name.starts_with('.') && !name.ends_with('.'),
                "{name} must be <subsystem>.<measurement>"
            );
        }
    }
}
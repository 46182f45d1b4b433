//! The batch-serving execution engine: a fixed worker pool pulling from a
//! bounded queue, with micro-batching of Recover jobs, deadline enforcement,
//! bounded retry with exponential backoff, and drain/abort shutdown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dcdiff_telemetry::{Counter, Gauge, Histogram, Telemetry};
use dcdiff_telemetry::names;

use dcdiff_jpeg::CoeffImage;

use crate::exec::{
    decode_recover_input, execute, recover_guarded, write_recover_output, CohortLane, EngineCache,
    RecoveryPolicy,
};
use crate::job::{
    ErrorClass, Job, JobError, JobFailure, JobId, JobOutput, JobResult, JobSpec, RecoverMethod,
    Stage,
};
use crate::queue::{BoundedQueue, PushError};
use crate::stats::{RuntimeStats, StatsSnapshot};

/// Tunables for a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker thread count (at least 1). Defaults to the machine's
    /// available parallelism so batch serving uses every core out of the
    /// box; override for deterministic single-threaded runs.
    pub workers: usize,
    /// Bounded queue capacity — the backpressure point.
    pub queue_cap: usize,
    /// Default transient-failure retry budget for [`Runtime::submit`] with a
    /// bare [`Job`] (specs carry their own budget).
    pub default_retries: u32,
    /// First retry backoff; attempt `n` waits `backoff_base * 2^(n-1)`.
    pub backoff_base: Duration,
    /// Largest micro-batch a worker may gather (`dcdiff batch`/`serve`
    /// `--batch`; 1 disables batching). Queued Recover jobs sharing the
    /// leader's method config join its batch. A diffusion batch is one
    /// cross-request DDIM cohort: its lanes are stacked along the batch
    /// dimension, so one U-Net forward per DDIM step serves them all, and
    /// per-lane content seeding keeps each result bit-identical to a
    /// width-1 run. A partial batch runs immediately rather than waiting
    /// for more traffic.
    pub batch_max: usize,
    /// Observability handle: span tracing (when enabled), latency
    /// histograms, the `runtime.queue_depth` gauge and the rate-limited
    /// logger. The default is a metrics-only handle, so leaving this alone
    /// adds no tracing overhead.
    pub telemetry: Telemetry,
    /// Degradation policy for Recover jobs: the ladder (method → TIP-2006
    /// baseline → flat DC) and the per-runtime circuit breaker in front of
    /// the primary method. The breaker's `Arc` is shared by every worker,
    /// so consecutive failures accumulate runtime-wide.
    /// [`RecoveryPolicy::no_fallback`] (`dcdiff batch --no-fallback`) fails
    /// jobs instead of degrading them.
    pub recovery: RecoveryPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            queue_cap: 64,
            default_retries: 0,
            backoff_base: Duration::from_millis(10),
            batch_max: 8,
            telemetry: Telemetry::new(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl RuntimeConfig {
    /// Config with `workers` threads and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        RuntimeConfig { workers: workers.max(1), ..RuntimeConfig::default() }
    }
}

/// Pre-resolved metric handles for the runtime's hot paths. Registry lookups
/// take a lock; resolving once at startup keeps submit/pop/execute paths on
/// lock-free atomics only.
#[derive(Clone)]
struct RtMetrics {
    queue_depth: Gauge,
    queue_wait: Histogram,
    batch_size: Histogram,
    job_wall: Histogram,
    retries: Counter,
    /// Per-stage execute latency, indexed by [`Stage::index`].
    stage: [Histogram; 4],
}

impl RtMetrics {
    fn new(tel: &Telemetry) -> Self {
        RtMetrics {
            queue_depth: tel.gauge(names::GAUGE_QUEUE_DEPTH),
            queue_wait: tel.histogram(names::HIST_QUEUE_WAIT_US),
            batch_size: tel.histogram(names::HIST_BATCH_SIZE),
            job_wall: tel.histogram(names::HIST_JOB_WALL_US),
            retries: tel.counter(names::CTR_RETRIES),
            stage: [
                tel.histogram(names::HIST_STAGE_ENCODE_US),
                tel.histogram(names::HIST_STAGE_TRANSCODE_US),
                tel.histogram(names::HIST_STAGE_RECOVER_US),
                tel.histogram(names::HIST_STAGE_METRICS_US),
            ],
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Fail-fast submit against a full queue (load shedding).
    QueueFull,
    /// The runtime is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "queue full"),
            SubmitError::ShuttingDown => write!(f, "runtime shutting down"),
        }
    }
}

/// How [`Runtime::shutdown`] treats queued jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Complete every accepted job, then stop.
    Drain,
    /// Finish only in-flight work; queued jobs are rejected with
    /// [`JobFailure::Rejected`].
    Abort,
}

/// Internal queue entry.
struct Queued {
    id: JobId,
    job: Job,
    submitted: Instant,
    deadline: Option<Instant>,
    max_retries: u32,
    ingest: Option<Duration>,
    /// Trace context carried across the queue so worker-side spans join the
    /// submitter's causal chain (see [`JobSpec::with_trace`]).
    trace: Option<dcdiff_telemetry::TraceCtx>,
    /// Watched submissions deliver their result here instead of the
    /// shutdown report (see [`Runtime::submit_watched`]).
    notify: Option<ResultHandle>,
}

#[derive(Debug, Default)]
struct SlotInner {
    result: Mutex<Option<JobResult>>,
    ready: Condvar,
}

/// Waitable handle to one watched job's eventual [`JobResult`].
///
/// Returned by [`Runtime::submit_watched`]. The result is delivered exactly
/// once — on completion, on deadline miss, or as [`JobFailure::Rejected`]
/// when an abort shutdown sheds the job while queued — and is *taken* by the
/// first waiter that sees it. Watched results never appear in the
/// [`RuntimeReport`], which keeps a long-lived server's memory flat instead
/// of accumulating every response it ever sent.
#[derive(Debug, Clone, Default)]
pub struct ResultHandle {
    slot: Arc<SlotInner>,
}

impl ResultHandle {
    fn fulfill(&self, result: JobResult) {
        let mut slot = self
            .slot
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Some(result);
        drop(slot);
        self.slot.ready.notify_all();
    }

    /// Take the result if it has already been delivered.
    pub fn try_take(&self) -> Option<JobResult> {
        self.slot
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }

    /// Block until the result arrives or `timeout` elapses; `None` on
    /// timeout (the job is still owned by the runtime and will deliver
    /// later — a subsequent wait can still take it).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        let deadline = Instant::now() + timeout;
        let mut slot = self
            .slot
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while slot.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            slot = self
                .slot
                .ready
                .wait_timeout(slot, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
        slot.take()
    }
}

/// Final report of a runtime's lifetime.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Per-job results, in completion order.
    pub results: Vec<JobResult>,
    /// Counter snapshot at shutdown.
    pub stats: StatsSnapshot,
}

impl RuntimeReport {
    /// Result for a given job id, if it was accepted.
    pub fn result(&self, id: JobId) -> Option<&JobResult> {
        self.results.iter().find(|r| r.id == id)
    }
}

/// Multi-threaded batch-serving runtime for DCDiff pipelines.
///
/// ```
/// use dcdiff_runtime::{Job, Runtime, RuntimeConfig, ShutdownMode};
///
/// let runtime = Runtime::start(RuntimeConfig::with_workers(2));
/// // Submissions fail cleanly on missing files rather than panicking.
/// let id = runtime
///     .submit_blocking(Job::Metrics { reference: "missing-a.ppm".into(), test: "missing-b.ppm".into() })
///     .unwrap();
/// let report = runtime.shutdown(ShutdownMode::Drain);
/// assert!(report.result(id).unwrap().outcome.is_err());
/// assert_eq!(report.stats.submitted, 1);
/// ```
pub struct Runtime {
    queue: Arc<BoundedQueue<Queued>>,
    stats: Arc<RuntimeStats>,
    results: Arc<Mutex<Vec<JobResult>>>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    config: RuntimeConfig,
    rt: RtMetrics,
}

impl Runtime {
    /// Start `config.workers` worker threads.
    pub fn start(config: RuntimeConfig) -> Self {
        let queue = Arc::new(BoundedQueue::new(config.queue_cap));
        let stats = Arc::new(RuntimeStats::new());
        let results = Arc::new(Mutex::new(Vec::new()));
        let rt = RtMetrics::new(&config.telemetry);
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                let results = Arc::clone(&results);
                let config = config.clone();
                let rt = rt.clone();
                std::thread::Builder::new()
                    .name(format!("dcdiff-worker-{i}"))
                    .spawn(move || worker_loop(i, &queue, &stats, &results, &config, &rt))
                    // analysis: allow(no-panic) — one-time startup: failing to create worker threads is unrecoverable resource exhaustion, not a job-path error
                    .expect("spawn worker thread")
            })
            .collect();
        Runtime {
            queue,
            stats,
            results,
            workers,
            next_id: AtomicU64::new(1),
            config,
            rt,
        }
    }

    /// Shared counter block (live; see [`RuntimeStats::snapshot`]).
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// The configuration this runtime started with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    fn enqueue(
        &self,
        spec: JobSpec,
        notify: Option<ResultHandle>,
        push: impl FnOnce(&BoundedQueue<Queued>, Queued) -> Result<(), PushError>,
    ) -> Result<JobId, SubmitError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let entry = Queued {
            id,
            job: spec.job,
            submitted: now,
            deadline: spec.deadline.map(|d| now + d),
            max_retries: spec.max_retries,
            ingest: spec.ingest,
            trace: spec.trace,
            notify,
        };
        match push(&self.queue, entry) {
            Ok(()) => {
                self.stats.bump(&self.stats.submitted);
                let depth = self.queue.len() as u64;
                self.stats.observe_queue_depth(depth);
                self.rt.queue_depth.set(depth as i64);
                Ok(id)
            }
            Err(PushError::Full) => {
                self.stats.bump(&self.stats.rejected);
                self.config.telemetry.warn(format!("job {id} rejected: queue full"));
                Err(SubmitError::QueueFull)
            }
            Err(PushError::Closed) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Fail-fast submission: rejects immediately when the queue is full.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, spec: impl Into<JobSpec>) -> Result<JobId, SubmitError> {
        let mut spec = spec.into();
        if spec.max_retries == 0 {
            spec.max_retries = self.config.default_retries;
        }
        self.enqueue(spec, None, BoundedQueue::try_push)
    }

    /// Blocking submission: waits for queue space.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit_blocking(&self, spec: impl Into<JobSpec>) -> Result<JobId, SubmitError> {
        let mut spec = spec.into();
        if spec.max_retries == 0 {
            spec.max_retries = self.config.default_retries;
        }
        self.enqueue(spec, None, BoundedQueue::push_blocking)
    }

    /// Fail-fast *watched* submission for long-lived callers (the serve
    /// front door): the job's result is delivered to the returned
    /// [`ResultHandle`] the moment it completes instead of accumulating in
    /// the shutdown report. Every accepted watched job is guaranteed exactly
    /// one delivery: completion, deadline miss, or [`JobFailure::Rejected`]
    /// under an abort shutdown.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit_watched(
        &self,
        spec: impl Into<JobSpec>,
    ) -> Result<(JobId, ResultHandle), SubmitError> {
        let mut spec = spec.into();
        if spec.max_retries == 0 {
            spec.max_retries = self.config.default_retries;
        }
        let handle = ResultHandle::default();
        let id = self.enqueue(spec, Some(handle.clone()), BoundedQueue::try_push)?;
        Ok((id, handle))
    }

    /// Current queue depth (jobs accepted but not yet popped by a worker).
    /// Admission-control input for the serve front door.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The bounded queue's capacity — the backpressure point.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Stop the runtime and collect every result.
    ///
    /// [`ShutdownMode::Drain`] completes all accepted jobs;
    /// [`ShutdownMode::Abort`] finishes only in-flight work and records
    /// queued jobs as [`JobFailure::Rejected`].
    pub fn shutdown(self, mode: ShutdownMode) -> RuntimeReport {
        match mode {
            ShutdownMode::Drain => {
                self.queue.close();
            }
            ShutdownMode::Abort => {
                let shed = self.queue.close_and_take();
                let now = Instant::now();
                for entry in shed {
                    self.stats.bump(&self.stats.rejected);
                    let result = JobResult {
                        id: entry.id,
                        job: entry.job,
                        outcome: Err(JobFailure::Rejected),
                        wall: now.duration_since(entry.submitted),
                        exec: Duration::ZERO,
                        attempts: 0,
                    };
                    match entry.notify {
                        Some(handle) => handle.fulfill(result),
                        None => lock_results(&self.results).push(result),
                    }
                }
                self.rt.queue_depth.set(0);
            }
        }
        for worker in self.workers {
            // Workers never panic on job errors; a panic here is a runtime
            // bug. Log it loudly instead of re-panicking so the results
            // the other workers completed still reach the caller.
            if worker.join().is_err() {
                self.config
                    .telemetry
                    .error("worker thread panicked; returning completed results");
            }
        }
        let results = std::mem::take(&mut *lock_results(&self.results));
        RuntimeReport { results, stats: self.stats.snapshot() }
    }
}

fn lock_results<'a>(
    results: &'a Mutex<Vec<JobResult>>,
) -> std::sync::MutexGuard<'a, Vec<JobResult>> {
    results.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Body of one worker thread.
fn worker_loop(
    worker: usize,
    queue: &BoundedQueue<Queued>,
    stats: &RuntimeStats,
    results: &Mutex<Vec<JobResult>>,
    config: &RuntimeConfig,
    rt: &RtMetrics,
) {
    let tel = &config.telemetry;
    // Per-worker utilisation: cumulative busy time (pop to batch done).
    let busy_us = tel.gauge(&names::worker_busy_gauge(worker));
    let mut engines = EngineCache::with_policy(config.recovery.clone());
    while let Some(first) = queue.pop() {
        let popped = Instant::now();
        // Depth as this worker saw it: the remaining queue plus the entry
        // just taken, so a lone job still registers depth 1.
        let depth = queue.len() as u64 + 1;
        stats.observe_queue_depth(depth);
        rt.queue_depth.set(queue.len() as i64);
        let mut batch = vec![first];
        // Micro-batch: pull queued Recover jobs that share the leader's
        // method config, so one engine serves the whole batch.
        if config.batch_max > 1 {
            if let Some(method) = batch[0].job.recover_method().copied() {
                let assemble = tel.span(names::SPAN_BATCH_ASSEMBLE);
                let extras = queue.take_matching(config.batch_max - 1, |q| {
                    q.job
                        .recover_method()
                        .is_some_and(|m| m.same_config(&method))
                });
                drop(assemble);
                batch.extend(extras);
                // Batch assembly removed entries without going through pop,
                // so republish the true remaining depth.
                rt.queue_depth.set(queue.len() as i64);
            }
        }
        // Queue wait spans cross threads (begun on the submitter, finished
        // here), so they are emitted as single complete events. Each entry's
        // trace context is installed for its own event so batched requests
        // from different callers keep distinct causal chains.
        for entry in &batch {
            let waited = popped.saturating_duration_since(entry.submitted);
            rt.queue_wait.record_duration(waited);
            let _trace = entry.trace.map(dcdiff_telemetry::install_trace);
            tel.record_span(names::SPAN_QUEUE_WAIT, entry.submitted, popped);
        }
        rt.batch_size.record(batch.len() as u64);
        stats.bump(&stats.batches);
        if batch.len() > 1 {
            stats
                .batched_jobs
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
        let exec_span = tel.span(names::SPAN_BATCH_EXEC);
        // A diffusion micro-batch runs as one fused DDIM cohort: one U-Net
        // forward per step serves every lane. Every other job is a one-lane
        // cohort, so each is written and delivered before its batch-mate
        // starts.
        if matches!(batch[0].job.recover_method(), Some(RecoverMethod::Diffusion { .. })) {
            run_lanes(batch, stats, results, config, rt, &mut engines);
        } else {
            for entry in batch {
                run_lanes(vec![entry], stats, results, config, rt, &mut engines);
            }
        }
        drop(exec_span);
        // Republish the depth after the batch completes so the gauge decays
        // to zero when the runtime drains to idle between bursts, instead of
        // freezing at the last pre-pop observation.
        rt.queue_depth.set(queue.len() as i64);
        busy_us.add(popped.elapsed().as_micros() as i64);
    }
}

/// Deliver one terminal [`JobResult`]: bump completion counters, then either
/// fulfill the watched handle or append to the shutdown report.
fn finish(
    result: JobResult,
    notify: Option<ResultHandle>,
    stats: &RuntimeStats,
    results: &Mutex<Vec<JobResult>>,
) {
    if result.is_ok() {
        stats.bump(&stats.completed);
    } else {
        stats.bump(&stats.failed);
    }
    match notify {
        Some(handle) => handle.fulfill(result),
        None => lock_results(results).push(result),
    }
}

/// A Recover lane that survived pre-flight and awaits the ladder.
struct Lane {
    entry: Queued,
    output: String,
    method: RecoverMethod,
    dropped: CoeffImage,
    /// Start of the final read attempt, where the lane's `exec` clock
    /// starts.
    start: Instant,
    attempts: u32,
}

/// The job lifecycle, over a cohort of K ≥ 1 queue entries (K > 1 only for
/// a diffusion micro-batch, whose lanes are same-config Recover jobs):
///
/// 1. deadline gate;
/// 2. ingest stall, outside the `exec` clock;
/// 3. read and entropy decode under [`with_retries`] — or, for a
///    non-Recover job, its whole [`execute`];
/// 4. one [`recover_guarded`] ladder call over every surviving lane;
/// 5. per-lane write and accounting.
///
/// Steps 1–3 run per lane in arrival order. A lane whose deadline expires
/// during the estimate is evicted without aborting its batch-mates.
fn run_lanes(
    cohort: Vec<Queued>,
    stats: &RuntimeStats,
    results: &Mutex<Vec<JobResult>>,
    config: &RuntimeConfig,
    rt: &RtMetrics,
    engines: &mut EngineCache,
) {
    let tel = &config.telemetry;
    let mut lanes: Vec<Lane> = Vec::with_capacity(cohort.len());
    for entry in cohort {
        // Re-install the submitter's trace for the spans and log lines this
        // lane emits on the worker thread.
        let _trace = entry.trace.map(dcdiff_telemetry::install_trace);
        if entry.deadline.is_some_and(|d| Instant::now() > d) {
            stats.bump(&stats.deadline_missed);
            tel.warn(format!("job {} missed its deadline before starting", entry.id));
            let result = JobResult {
                id: entry.id,
                job: entry.job,
                outcome: Err(JobFailure::DeadlineExceeded),
                wall: entry.submitted.elapsed(),
                exec: Duration::ZERO,
                attempts: 0,
            };
            finish(result, entry.notify, stats, results);
            continue;
        }
        if let Some(stall) = entry.ingest {
            // Simulated sender-uplink wait (see `JobSpec::ingest`). It counts
            // against the wall clock but not `exec`; like execution itself it
            // is not preempted by the deadline once started.
            let _ingest = tel.span(names::SPAN_JOB_INGEST);
            std::thread::sleep(stall);
        }
        if let Job::Recover { input, output, method } = &entry.job {
            let (output, method) = (output.clone(), *method);
            let (decoded, attempts, start) =
                with_retries(&entry, config, stats, rt, || decode_recover_input(input, tel));
            match decoded {
                Ok(dropped) => lanes.push(Lane { entry, output, method, dropped, start, attempts }),
                Err(err) => {
                    let outcome = Err(JobFailure::Error(err));
                    complete(entry, outcome, (start, attempts), stats, results, tel, rt);
                }
            }
        } else {
            let (outcome, attempts, start) =
                with_retries(&entry, config, stats, rt, || execute(&entry.job, engines, tel));
            let outcome = outcome.map_err(JobFailure::Error);
            complete(entry, outcome, (start, attempts), stats, results, tel, rt);
        }
    }

    let Some(method) = lanes.first().map(|lane| lane.method) else {
        return;
    };
    let cohort_lanes: Vec<CohortLane<'_>> = lanes
        .iter()
        .map(|lane| CohortLane {
            dropped: &lane.dropped,
            deadline: lane.entry.deadline,
            trace: lane.entry.trace,
        })
        .collect();
    let estimate_start = Instant::now();
    let outcomes = recover_guarded(&cohort_lanes, &method, engines, tel);
    let estimate_end = Instant::now();
    drop(cohort_lanes);

    for (lane, outcome) in lanes.into_iter().zip(outcomes) {
        let _trace = lane.entry.trace.map(dcdiff_telemetry::install_trace);
        // The estimate is physically shared by the cohort; every lane's
        // causal chain still shows the phase.
        tel.record_span(names::SPAN_RECOVER_ESTIMATE, estimate_start, estimate_end);
        let outcome = match outcome {
            Ok(image) => write_recover_output(&lane.output, &image, tel)
                .map(|()| JobOutput::Recovered { output: lane.output })
                .map_err(JobFailure::Error),
            Err(JobFailure::DeadlineExceeded) => {
                stats.bump(&stats.deadline_missed);
                tel.warn(format!(
                    "job {} evicted: deadline exceeded during recovery",
                    lane.entry.id
                ));
                Err(JobFailure::DeadlineExceeded)
            }
            Err(failure) => Err(failure),
        };
        complete(lane.entry, outcome, (lane.start, lane.attempts), stats, results, tel, rt);
    }
}

/// Run `attempt` under the entry's transient-failure retry budget with
/// exponential backoff. Returns the final outcome, the attempt count and
/// the start of the final attempt.
fn with_retries<T>(
    entry: &Queued,
    config: &RuntimeConfig,
    stats: &RuntimeStats,
    rt: &RtMetrics,
    mut attempt: impl FnMut() -> Result<T, JobError>,
) -> (Result<T, JobError>, u32, Instant) {
    let tel = &config.telemetry;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let start = Instant::now();
        match attempt() {
            Err(err)
                if err.class == ErrorClass::Transient
                    && attempts <= entry.max_retries
                    && entry.deadline.is_none_or(|d| Instant::now() <= d) =>
            {
                stats.bump(&stats.retried);
                rt.retries.inc();
                tel.warn(format!(
                    "job {} attempt {attempts} failed transiently ({}), retrying",
                    entry.id, err.message
                ));
                // Exponential backoff: base * 2^(attempt-1), capped at 2^10
                // to keep the worst sleep bounded.
                let exp = (attempts - 1).min(10);
                let _backoff = tel.span(names::SPAN_JOB_BACKOFF);
                std::thread::sleep(config.backoff_base * 2u32.pow(exp));
            }
            outcome => return (outcome, attempts, start),
        }
    }
}

/// Account for and deliver a job that ran: `exec` is measured from the
/// start of its final attempt, after any ingest stall.
fn complete(
    entry: Queued,
    outcome: Result<JobOutput, JobFailure>,
    (start, attempts): (Instant, u32),
    stats: &RuntimeStats,
    results: &Mutex<Vec<JobResult>>,
    tel: &Telemetry,
    rt: &RtMetrics,
) {
    let exec = start.elapsed();
    let stage = entry.job.stage();
    stats.record_stage(stage, exec);
    rt.stage[stage.index()].record_duration(exec);
    rt.job_wall.record_duration(entry.submitted.elapsed());
    tel.record_span(stage_span_name(stage), start, Instant::now());
    if let Err(JobFailure::Error(err)) = &outcome {
        tel.error(format!(
            "job {} failed after {attempts} attempt(s): {}",
            entry.id, err.message
        ));
    }
    let result = JobResult {
        id: entry.id,
        job: entry.job,
        outcome,
        wall: entry.submitted.elapsed(),
        exec,
        attempts,
    };
    finish(result, entry.notify, stats, results);
}

/// Trace span name for a job of the given stage.
fn stage_span_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Encode => names::SPAN_JOB_ENCODE,
        Stage::Transcode => names::SPAN_JOB_TRANSCODE,
        Stage::Recover => names::SPAN_JOB_RECOVER,
        Stage::Metrics => names::SPAN_JOB_METRICS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobFailure, JobSpec, RecoverMethod};

    fn metrics_job(tag: &str) -> Job {
        // Nonexistent inputs: executes quickly and fails permanently, which
        // is exactly what scheduler-level tests need.
        Job::Metrics {
            reference: format!("/nonexistent/{tag}-ref.ppm"),
            test: format!("/nonexistent/{tag}-test.ppm"),
        }
    }

    #[test]
    fn drain_completes_all_accepted_jobs() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 3,
            queue_cap: 32,
            ..RuntimeConfig::default()
        });
        let ids: Vec<_> = (0..10)
            .map(|i| runtime.submit_blocking(metrics_job(&format!("d{i}"))).unwrap())
            .collect();
        let report = runtime.shutdown(ShutdownMode::Drain);
        assert_eq!(report.results.len(), 10);
        for id in ids {
            let result = report.result(id).expect("result recorded");
            // Permanent error, never retried, exactly one attempt.
            assert_eq!(result.attempts, 1);
            assert!(matches!(result.outcome, Err(JobFailure::Error(_))));
        }
        assert_eq!(report.stats.submitted, 10);
        assert_eq!(report.stats.failed, 10);
        assert_eq!(report.stats.rejected, 0);
    }

    #[test]
    fn fail_fast_submit_sheds_load() {
        // Zero workers is clamped to one; stall it with a deliberately slow
        // first job? Simpler: tiny queue and no workers started yet is not
        // possible, so rely on capacity 1 + many instant submits racing the
        // single worker. At least one must be rejected when all are submitted
        // before the worker can drain them — guarantee it by filling the
        // queue while the worker chews on the first job.
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 1,
            ..RuntimeConfig::default()
        });
        let mut accepted = 0u32;
        let mut rejected = 0u32;
        for i in 0..200 {
            match runtime.submit(metrics_job(&format!("f{i}"))) {
                Ok(_) => accepted += 1,
                Err(SubmitError::QueueFull) => rejected += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(rejected > 0, "capacity-1 queue must shed under a 200-job burst");
        let report = runtime.shutdown(ShutdownMode::Drain);
        assert_eq!(report.results.len() as u32, accepted);
        assert_eq!(report.stats.rejected as u32, rejected);
    }

    #[test]
    fn abort_rejects_queued_jobs_with_distinct_error() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 64,
            ..RuntimeConfig::default()
        });
        for i in 0..40 {
            runtime.submit_blocking(metrics_job(&format!("a{i}"))).unwrap();
        }
        let report = runtime.shutdown(ShutdownMode::Abort);
        assert_eq!(report.results.len(), 40, "every accepted job gets a result");
        let rejected = report
            .results
            .iter()
            .filter(|r| matches!(r.outcome, Err(JobFailure::Rejected)))
            .count();
        let executed = report.results.len() - rejected;
        assert_eq!(report.stats.rejected as usize, rejected);
        assert_eq!(
            (report.stats.completed + report.stats.failed) as usize,
            executed
        );
        // Rejected jobs never ran.
        assert!(report
            .results
            .iter()
            .filter(|r| matches!(r.outcome, Err(JobFailure::Rejected)))
            .all(|r| r.attempts == 0));
    }

    #[test]
    fn expired_deadline_fails_without_executing() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 8,
            ..RuntimeConfig::default()
        });
        let spec = JobSpec::new(metrics_job("dl")).with_deadline(Duration::ZERO);
        let id = runtime.submit_blocking(spec).unwrap();
        // The zero deadline has passed by the time any worker can look.
        let report = runtime.shutdown(ShutdownMode::Drain);
        let result = report.result(id).unwrap();
        assert_eq!(result.outcome, Err(JobFailure::DeadlineExceeded));
        assert_eq!(result.attempts, 0);
        assert_eq!(report.stats.deadline_missed, 1);
    }

    #[test]
    fn telemetry_observes_queue_wait_depth_and_stage_latency() {
        let tel = Telemetry::new();
        let runtime = Runtime::start(RuntimeConfig {
            workers: 2,
            queue_cap: 32,
            telemetry: tel.clone(),
            ..RuntimeConfig::default()
        });
        for i in 0..12 {
            runtime.submit_blocking(metrics_job(&format!("t{i}"))).unwrap();
        }
        let report = runtime.shutdown(ShutdownMode::Drain);
        assert_eq!(report.results.len(), 12);

        // Every executed job waited in the queue exactly once.
        assert_eq!(tel.histogram("runtime.queue_wait_us").snapshot().count, 12);
        assert_eq!(tel.histogram("runtime.job_wall_us").snapshot().count, 12);
        // Metrics jobs never batch, so batch count == job count here.
        let batches = tel.histogram("runtime.batch_size").snapshot();
        assert_eq!(batches.count, 12);
        assert_eq!(batches.max, 1);
        // Stage latency flows into the shared registry (Metrics = index 3).
        assert_eq!(tel.histogram("stage.metrics_us").snapshot().count, 12);
        // The gauge exists and ended at zero: the drain emptied the queue.
        assert_eq!(tel.gauge("runtime.queue_depth").get(), 0);
        // Worker pops observe depth too, so the high-water mark is at least
        // one even if every submit raced an idle worker.
        assert!(report.stats.queue_high_water >= 1);
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let runtime = Runtime::start(RuntimeConfig::default());
        let queue = Arc::clone(&runtime.queue);
        let report = runtime.shutdown(ShutdownMode::Drain);
        assert!(report.results.is_empty());
        // The queue is closed; a late producer sees Closed, which submit maps
        // to ShuttingDown.
        assert!(matches!(
            queue.try_push(Queued {
                id: 99,
                job: Job::Metrics { reference: "a".into(), test: "b".into() },
                submitted: Instant::now(),
                deadline: None,
                max_retries: 0,
                ingest: None,
                trace: None,
                notify: None,
            }),
            Err(PushError::Closed)
        ));
    }

    #[test]
    fn watched_submission_delivers_result_while_running() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 8,
            ..RuntimeConfig::default()
        });
        let (id, handle) = runtime.submit_watched(metrics_job("w0")).unwrap();
        let result = handle
            .wait_timeout(Duration::from_secs(10))
            .expect("watched result arrives while the runtime keeps serving");
        assert_eq!(result.id, id);
        assert!(matches!(result.outcome, Err(JobFailure::Error(_))));
        // Delivered exactly once: the slot is now empty.
        assert!(handle.try_take().is_none());
        // Watched results never reach the shutdown report.
        let report = runtime.shutdown(ShutdownMode::Drain);
        assert!(report.results.is_empty());
        assert_eq!(report.stats.submitted, 1);
        assert_eq!(report.stats.failed, 1);
    }

    #[test]
    fn abort_shutdown_fulfills_queued_watched_jobs_as_rejected() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 64,
            ..RuntimeConfig::default()
        });
        let handles: Vec<_> = (0..20)
            .map(|i| runtime.submit_watched(metrics_job(&format!("wa{i}"))).unwrap().1)
            .collect();
        let report = runtime.shutdown(ShutdownMode::Abort);
        assert!(report.results.is_empty(), "watched jobs stay out of the report");
        // Every handle got a terminal delivery: executed or rejected.
        let mut rejected = 0;
        for handle in handles {
            let result = handle.try_take().expect("abort delivers every watched result");
            if result.outcome == Err(JobFailure::Rejected) {
                rejected += 1;
                assert_eq!(result.attempts, 0);
            }
        }
        assert_eq!(report.stats.rejected, rejected);
    }

    #[test]
    fn queue_depth_gauge_decays_to_zero_between_bursts() {
        // Regression test: the gauge used to be set only on submit and on
        // worker pop, so a micro-batch that emptied the queue via
        // take_matching left the pre-pop depth frozen in the metrics while
        // the runtime sat idle.
        let tel = Telemetry::new();
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 16,
            batch_max: 8,
            telemetry: tel.clone(),
            ..RuntimeConfig::default()
        });
        let recover = |tag: &str| Job::Recover {
            input: format!("/nonexistent/{tag}.jpg"),
            output: format!("/nonexistent/{tag}.ppm"),
            method: RecoverMethod::Tip2006,
        };
        // The leader stalls in ingest long enough for the burst behind it to
        // queue up; the worker then assembles the rest into one batch.
        let (_, first) = runtime
            .submit_watched(
                JobSpec::new(recover("qd0")).with_ingest(Duration::from_millis(150)),
            )
            .unwrap();
        let handles: Vec<_> = (1..6)
            .map(|i| runtime.submit_watched(recover(&format!("qd{i}"))).unwrap().1)
            .collect();
        first.wait_timeout(Duration::from_secs(10)).expect("leader completes");
        for handle in handles {
            handle.wait_timeout(Duration::from_secs(10)).expect("burst job completes");
        }
        // All jobs are done and the runtime is idle (but still running): the
        // gauge must read the true depth, zero.
        assert_eq!(tel.gauge("runtime.queue_depth").get(), 0);
        runtime.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn watched_wait_timeout_expires_then_delivers_later() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 8,
            ..RuntimeConfig::default()
        });
        let spec = JobSpec::new(metrics_job("wt")).with_ingest(Duration::from_millis(120));
        let (_, handle) = runtime.submit_watched(spec).unwrap();
        // The ingest stall outlasts this first wait.
        assert!(handle.wait_timeout(Duration::from_millis(5)).is_none());
        let result = handle.wait_timeout(Duration::from_secs(10));
        assert!(result.is_some(), "a later wait still takes the delivery");
        runtime.shutdown(ShutdownMode::Drain);
    }
}

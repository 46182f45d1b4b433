//! # dcdiff-telemetry — structured tracing, metrics and logging
//!
//! The observability layer of the DCDiff serving system, std-only like the
//! rest of the workspace (the build environment is offline, which is also
//! why the shims under `vendor/` exist). One cloneable [`Telemetry`]
//! handle bundles three facilities:
//!
//! * **Span tracing** — [`Telemetry::span`] returns an RAII guard that
//!   records hierarchical begin/end events (thread id, monotonic
//!   microsecond timestamps, parent span via a thread-local) as one JSON
//!   object per line; [`Telemetry::record_span`] emits complete spans for
//!   intervals that start on another thread (queue wait). Disabled tracing
//!   costs one branch per span.
//! * **Metrics** — a [`Registry`] of named [`Counter`]s, [`Gauge`]s and
//!   log₂-bucketed [`Histogram`]s with p50/p90/p99 [`Histogram::quantile`]
//!   and JSON export ([`Telemetry::metrics_json`]). Always on: recording is
//!   a couple of relaxed atomics.
//! * **Logging** — a leveled, rate-limited stderr [`Logger`]
//!   ([`Telemetry::error`] … [`Telemetry::debug`]) replacing ad-hoc
//!   `eprintln!`.
//!
//! Handles are threaded explicitly where practical (`RuntimeConfig`,
//! benches); deep library code (per-DDIM-step spans in `dcdiff-diffusion`,
//! recovery phases in `dcdiff-core`) uses the process-wide default set by
//! [`install`], so instrumentation needs no API churn. `dcdiff batch
//! --trace t.jsonl` installs its handle globally, which is how sampler steps
//! land in the same trace as the runtime's queue spans.
//!
//! Every span and series is named by a [`Name`] from the [`names`]
//! registry; only this crate can construct one, so an unregistered name
//! is a compile error rather than a parallel series no dashboard reads.
//!
//! The crate also hosts [`sync`], the ranked locks every crate uses:
//! telemetry is the one crate every locking crate already depends on, so
//! its [`sync::Rank`] enum can list the whole workspace's lock hierarchy
//! in one place, the way [`names`] lists every series.
//!
//! ## Example
//!
//! ```
//! use dcdiff_telemetry::{names, Telemetry};
//!
//! let tel = Telemetry::builder().trace_to_vec().build();
//! {
//!     let _outer = tel.span(names::SPAN_BATCH_EXEC);
//!     let _inner = tel.span(names::SPAN_JOB_RECOVER);
//!     tel.histogram(names::HIST_STAGE_RECOVER_US).record(1500);
//! }
//! tel.counter(names::CTR_RETRIES).inc();
//! let trace = tel.take_trace_vec().unwrap();
//! assert_eq!(trace.lines().count(), 4); // two B + two E events
//! assert!(tel.metrics_json().contains("runtime.retries"));
//! ```

pub mod json;
pub mod log;
pub mod metrics;
pub mod names;
pub mod prometheus;
pub mod report;
pub mod sync;
pub mod trace;
pub mod windows;

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

pub use crate::log::{Level, Logger};
pub use crate::metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot,
};
pub use crate::names::Name;
pub use crate::report::TraceReport;
pub use crate::windows::{WindowView, WindowedMetrics};
pub use crate::trace::{
    current_trace, install_trace, EventKind, Span, TraceCtx, TraceEvent, TraceGuard,
};

use crate::sync::{Mutex, Rank, RwLock};
use crate::trace::{SpanActive, TraceSink};

/// Shared in-memory trace buffer used by [`TelemetryBuilder::trace_to_vec`].
type SharedVec = Arc<Mutex<Vec<u8>>>;

struct SharedVecWriter(SharedVec);

impl Write for SharedVecWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    trace: Option<TraceSink>,
    trace_buffer: Option<SharedVec>,
    registry: Registry,
    logger: Logger,
}

/// The observability handle: tracing + metrics + logging. Cheap to clone
/// (one `Arc`); all clones share the same sinks and registry.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("tracing", &self.tracing_enabled())
            .field("log_level", &self.inner.logger.level())
            .finish()
    }
}

impl Default for Telemetry {
    /// Metrics-only handle: tracing off, info-level logging.
    fn default() -> Self {
        Telemetry::builder().build()
    }
}

/// Configures and builds a [`Telemetry`] handle.
pub struct TelemetryBuilder {
    trace: Option<Box<dyn Write + Send>>,
    trace_buffer: Option<SharedVec>,
    log_level: Level,
    log_rate: u32,
}

impl TelemetryBuilder {
    /// Write trace events to `path` (buffered, flushed by
    /// [`Telemetry::flush`] and on drop).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn trace_to_path(mut self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        self.trace = Some(Box::new(std::io::BufWriter::new(file)));
        self.trace_buffer = None;
        Ok(self)
    }

    /// Write trace events to an in-memory buffer readable via
    /// [`Telemetry::take_trace_vec`] (tests).
    pub fn trace_to_vec(mut self) -> Self {
        let buffer: SharedVec = Arc::new(Mutex::new(Rank::TraceBuffer, Vec::new()));
        self.trace = Some(Box::new(SharedVecWriter(Arc::clone(&buffer))));
        self.trace_buffer = Some(buffer);
        self
    }

    /// Set the log level (default [`Level::Info`]).
    #[must_use]
    pub fn log_level(mut self, level: Level) -> Self {
        self.log_level = level;
        self
    }

    /// Set the logger's per-second emission cap (default 64).
    #[must_use]
    pub fn log_rate(mut self, max_per_sec: u32) -> Self {
        self.log_rate = max_per_sec;
        self
    }

    /// Build the handle.
    pub fn build(self) -> Telemetry {
        let registry = Registry::new();
        let logger = Logger::new(self.log_level, self.log_rate)
            .with_suppressed_counter(registry.counter(&names::CTR_LOG_SUPPRESSED));
        Telemetry {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                trace: self.trace.map(TraceSink::new),
                trace_buffer: self.trace_buffer,
                registry,
                logger,
            }),
        }
    }
}

impl Telemetry {
    /// Start configuring a handle.
    pub fn builder() -> TelemetryBuilder {
        TelemetryBuilder {
            trace: None,
            trace_buffer: None,
            log_level: Level::Info,
            log_rate: 64,
        }
    }

    /// Metrics-only handle (tracing off, info logging) — the default for
    /// runtimes constructed without explicit observability flags.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Whether span tracing is enabled (a trace sink was configured).
    pub fn tracing_enabled(&self) -> bool {
        self.inner.trace.is_some()
    }

    /// Whether two handles share the same underlying sinks and registry.
    /// Lets hot paths cache metric handles and cheaply detect a re-[`install`].
    pub fn ptr_eq(&self, other: &Telemetry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The monotonic instant all trace timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.inner.epoch
    }

    fn t_us(&self, at: Instant) -> u64 {
        u64::try_from(
            at.saturating_duration_since(self.inner.epoch)
                .as_micros(),
        )
        .unwrap_or(u64::MAX)
    }

    /// Open a span named `name`. The returned guard writes a begin event
    /// now and an end event (with duration) when dropped; spans opened while
    /// it is alive on the same thread become its children. Inert when
    /// tracing is disabled.
    pub fn span(&self, name: Name) -> Span {
        let Some(sink) = &self.inner.trace else {
            return Span { active: None };
        };
        let id = sink.alloc_span();
        let parent = trace::current_span();
        let start = Instant::now();
        sink.write_line(&trace::begin_line(
            &name,
            id,
            parent,
            trace::thread_index(),
            self.t_us(start),
        ));
        trace::set_current_span(id);
        Span {
            active: Some(SpanActive {
                tel: self.clone(),
                name,
                id,
                parent,
                start,
            }),
        }
    }

    pub(crate) fn end_span(&self, active: &SpanActive) {
        let end = Instant::now();
        let dur = end.duration_since(active.start);
        if let Some(sink) = &self.inner.trace {
            sink.write_line(&trace::end_line(
                &active.name,
                active.id,
                self.t_us(end),
                u64::try_from(dur.as_micros()).unwrap_or(u64::MAX),
            ));
        }
        trace::set_current_span(active.parent);
        self.histogram_for_span(&active.name).record_duration(dur);
    }

    /// Record a complete span measured externally (e.g. queue wait, whose
    /// start happened on the submitting thread). The current thread's open
    /// span becomes its parent. No-op when tracing is disabled (the caller
    /// keeps its own histogram if the measurement must survive without
    /// tracing).
    pub fn record_span(&self, name: Name, start: Instant, end: Instant) {
        let Some(sink) = &self.inner.trace else {
            return;
        };
        let dur = end.saturating_duration_since(start);
        sink.write_line(&trace::complete_line(
            &name,
            sink.alloc_span(),
            trace::current_span(),
            trace::thread_index(),
            self.t_us(start),
            u64::try_from(dur.as_micros()).unwrap_or(u64::MAX),
        ));
        self.histogram_for_span(&name).record_duration(dur);
    }

    /// Span durations double as registry histograms, prefixed to keep them
    /// apart from explicitly recorded metrics.
    fn histogram_for_span(&self, name: &str) -> Histogram {
        self.inner.registry.histogram(&format!("span.{name}_us"))
    }

    /// The counter registered under `name` (get-or-create).
    pub fn counter(&self, name: Name) -> Counter {
        self.inner.registry.counter(&name)
    }

    /// The gauge registered under `name` (get-or-create).
    pub fn gauge(&self, name: Name) -> Gauge {
        self.inner.registry.gauge(&name)
    }

    /// The histogram registered under `name` (get-or-create).
    pub fn histogram(&self, name: Name) -> Histogram {
        self.inner.registry.histogram(&name)
    }

    /// The underlying metrics registry: read-only from outside this crate
    /// (series are created through the [`Name`]-typed methods above).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// JSON export of every registered metric (see [`Registry::to_json`]).
    pub fn metrics_json(&self) -> String {
        self.inner.registry.to_json()
    }

    /// The underlying logger.
    pub fn logger(&self) -> &Logger {
        &self.inner.logger
    }

    /// Log at [`Level::Error`].
    pub fn error(&self, msg: impl AsRef<str>) {
        self.inner.logger.log(Level::Error, msg.as_ref());
    }

    /// Log at [`Level::Warn`].
    pub fn warn(&self, msg: impl AsRef<str>) {
        self.inner.logger.log(Level::Warn, msg.as_ref());
    }

    /// Log at [`Level::Info`].
    pub fn info(&self, msg: impl AsRef<str>) {
        self.inner.logger.log(Level::Info, msg.as_ref());
    }

    /// Log at [`Level::Debug`].
    pub fn debug(&self, msg: impl AsRef<str>) {
        self.inner.logger.log(Level::Debug, msg.as_ref());
    }

    /// Flush the trace sink (no-op when tracing is disabled) and any
    /// pending log-suppression summary.
    pub fn flush(&self) {
        if let Some(sink) = &self.inner.trace {
            sink.flush();
        }
        self.inner.logger.flush_suppressed();
    }

    /// Drain the in-memory trace buffer as UTF-8 (handles built with
    /// [`TelemetryBuilder::trace_to_vec`] only).
    pub fn take_trace_vec(&self) -> Option<String> {
        let buffer = self.inner.trace_buffer.as_ref()?;
        let bytes = std::mem::take(&mut *buffer.lock());
        Some(String::from_utf8_lossy(&bytes).into_owned())
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(sink) = &self.trace {
            sink.flush();
        }
        self.logger.flush_suppressed();
    }
}

static GLOBAL: RwLock<Option<Telemetry>> = RwLock::new(Rank::TelemetryGlobal, None);

/// Install `tel` as the process-wide default returned by [`global`].
/// Replaces any previous default (later `dcdiff batch` invocations in one
/// process re-install cleanly).
pub fn install(tel: Telemetry) {
    let previous = GLOBAL.write().replace(tel);
    // Dropping the last clone of the old handle flushes its trace writer:
    // do it after the write guard is gone, not under it.
    drop(previous);
}

/// The process-wide default handle: the last [`install`]ed one, or a shared
/// metrics-only fallback (tracing off, info logging) before any install.
pub fn global() -> Telemetry {
    if let Some(tel) = GLOBAL.read().as_ref() {
        return tel.clone();
    }
    static FALLBACK: OnceLock<Telemetry> = OnceLock::new();
    FALLBACK.get_or_init(Telemetry::new).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracing_produces_inert_spans() {
        let tel = Telemetry::new();
        assert!(!tel.tracing_enabled());
        let span = tel.span(names::SPAN_BATCH_EXEC);
        assert_eq!(span.id(), 0);
        drop(span);
        // No span histogram is created when tracing is off.
        let spans = tel.registry().snapshot();
        assert!(!spans.histograms.contains_key("span.batch.exec_us"));
    }

    #[test]
    fn span_events_nest_via_thread_local_parent() {
        let tel = Telemetry::builder().trace_to_vec().build();
        {
            let outer = tel.span(names::SPAN_BATCH_EXEC);
            assert!(outer.id() > 0);
            let inner = tel.span(names::SPAN_JOB_RECOVER);
            drop(inner);
            drop(outer);
        }
        let text = tel.take_trace_vec().unwrap();
        let events: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::parse_line(l).unwrap())
            .collect();
        assert_eq!(events.len(), 4);
        let outer_b = &events[0];
        let inner_b = &events[1];
        assert_eq!(outer_b.parent, 0);
        assert_eq!(inner_b.parent, outer_b.id);
        assert_eq!(events[2].kind, EventKind::End); // inner closes first
        assert_eq!(events[2].id, inner_b.id);
        assert_eq!(events[3].id, outer_b.id);
    }

    #[test]
    fn record_span_emits_complete_event_and_histogram() {
        let tel = Telemetry::builder().trace_to_vec().build();
        let start = Instant::now();
        let end = start + std::time::Duration::from_millis(2);
        tel.record_span(names::SPAN_QUEUE_WAIT, start, end);
        let text = tel.take_trace_vec().unwrap();
        let ev = TraceEvent::parse_line(text.trim()).unwrap();
        assert_eq!(ev.kind, EventKind::Complete);
        assert_eq!(ev.name, "queue.wait");
        assert!(ev.dur_us >= 2000);
        let spans = tel.registry().snapshot();
        assert_eq!(spans.histogram("span.queue.wait_us").count, 1);
    }

    #[test]
    fn global_falls_back_then_follows_install() {
        // The fallback is metrics-only.
        assert!(!global().tracing_enabled());
        let tel = Telemetry::builder().trace_to_vec().build();
        install(tel.clone());
        assert!(global().tracing_enabled());
        install(Telemetry::new());
        assert!(!global().tracing_enabled());
    }
}

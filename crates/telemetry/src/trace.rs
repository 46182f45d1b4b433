//! Span-scoped structured tracing, exported as one JSON object per line.
//!
//! A [`crate::Telemetry::span`] guard writes a `B` (begin) event when opened
//! and an `E` (end) event when dropped; [`crate::Telemetry::record_span`]
//! writes a single complete `X` event for intervals measured after the fact
//! (e.g. queue wait, whose start happened on another thread). Every event
//! carries:
//!
//! * `id` — span id, unique within one trace;
//! * `parent` — enclosing span id on the same thread (0 = root), maintained
//!   through a thread-local so nesting needs no plumbing;
//! * `thread` — a small process-wide thread index (assigned on first event);
//! * `t_us` — microseconds since the telemetry handle's epoch (monotonic,
//!   from [`Instant`]);
//! * `dur_us` — span duration (on `E` and `X` events).
//!
//! The format is parsed back by [`crate::report`] and `dcdiff report`.

use std::cell::Cell;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::json::{self, escape_into, Value};
use crate::sync::{Mutex, Rank};

thread_local! {
    /// Innermost open span id on this thread (0 = none).
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

thread_local! {
    /// Request-scoped trace context installed on this thread (None = no
    /// request identity; events carry no `trace` field).
    static CURRENT_TRACE: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// Monotonic per-process sequence mixed into generated trace ids so two
/// requests arriving in the same nanosecond still differ.
static NEXT_TRACE_SEQ: AtomicU64 = AtomicU64::new(1);

/// SplitMix64 finalizer — the workspace's standard std-only bit mixer.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Request-scoped trace identity in the W3C `traceparent` model: a 128-bit
/// trace id naming the whole causal chain and a 64-bit span id naming the
/// caller's active span. Propagated across the serve → queue → worker thread
/// hop by value and re-installed with [`install_trace`], so every trace event
/// emitted while the guard is alive carries the request's `trace` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// 128-bit trace id (never 0; 0 is invalid per the traceparent grammar).
    pub trace_id: u128,
    /// 64-bit id of the caller's span within the trace.
    pub span_id: u64,
}

impl TraceCtx {
    /// Generate a fresh context from wall-clock nanoseconds, the thread
    /// index and a process-wide sequence, mixed through SplitMix64.
    pub fn generate() -> TraceCtx {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        let seq = NEXT_TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
        let hi = splitmix64(nanos ^ seq.rotate_left(32));
        let lo = splitmix64(hi ^ thread_index());
        let trace_id = (u128::from(hi) << 64) | u128::from(lo);
        TraceCtx {
            trace_id: if trace_id == 0 { 1 } else { trace_id },
            span_id: splitmix64(lo ^ seq) | 1,
        }
    }

    /// Parse a `traceparent`-style header:
    /// `<2 hex version>-<32 hex trace id>-<16 hex span id>-<2 hex flags>`.
    /// Returns `None` for anything malformed or an all-zero trace id.
    pub fn parse_traceparent(header: &str) -> Option<TraceCtx> {
        let mut parts = header.trim().split('-');
        let version = parts.next()?;
        let trace_hex = parts.next()?;
        let span_hex = parts.next()?;
        let flags = parts.next()?;
        if parts.next().is_some()
            || version.len() != 2
            || trace_hex.len() != 32
            || span_hex.len() != 16
            || flags.len() != 2
        {
            return None;
        }
        u8::from_str_radix(version, 16).ok()?;
        u8::from_str_radix(flags, 16).ok()?;
        let trace_id = u128::from_str_radix(trace_hex, 16).ok()?;
        let span_id = u64::from_str_radix(span_hex, 16).ok()?;
        if trace_id == 0 {
            return None;
        }
        Some(TraceCtx { trace_id, span_id })
    }

    /// Render as a `traceparent` header value (version 00, sampled flag).
    pub fn traceparent(&self) -> String {
        format!("00-{:032x}-{:016x}-01", self.trace_id, self.span_id)
    }

    /// The 32-hex-digit trace id, as written in event `trace` fields and
    /// the `x-dcdiff-trace-id` response header.
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }
}

/// The calling thread's installed trace context, if any.
pub fn current_trace() -> Option<TraceCtx> {
    CURRENT_TRACE.with(Cell::get)
}

/// Install `ctx` as the calling thread's trace context. Events written while
/// the returned guard is alive carry a `trace` field with the 32-hex trace
/// id; dropping the guard restores whatever was installed before (contexts
/// nest, so a worker processing batched entries from different requests can
/// switch per entry).
#[must_use = "dropping the guard immediately uninstalls the trace context"]
pub fn install_trace(ctx: TraceCtx) -> TraceGuard {
    TraceGuard {
        previous: CURRENT_TRACE.with(|c| c.replace(Some(ctx))),
    }
}

/// RAII guard from [`install_trace`]; restores the previous context on drop.
pub struct TraceGuard {
    previous: Option<TraceCtx>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| c.set(self.previous));
    }
}

static NEXT_THREAD_INDEX: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small stable per-thread index (process-wide, first-use order).
    static THREAD_INDEX: u64 = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
}

/// Destination for trace events.
pub(crate) struct TraceSink {
    writer: Mutex<Box<dyn Write + Send>>,
    next_span: AtomicU64,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink").finish_non_exhaustive()
    }
}

impl TraceSink {
    pub(crate) fn new(writer: Box<dyn Write + Send>) -> Self {
        TraceSink {
            writer: Mutex::new(Rank::TraceWriter, writer),
            next_span: AtomicU64::new(1),
        }
    }

    pub(crate) fn alloc_span(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn write_line(&self, line: &str) {
        let mut writer = self.writer.lock();
        // Trace I/O must never take down the serving path; a full disk loses
        // trace lines, not jobs.
        let _ = writer.write_all(line.as_bytes());
        let _ = writer.write_all(b"\n");
    }

    pub(crate) fn flush(&self) {
        let _ = self.writer.lock().flush();
    }
}

/// The thread index of the calling thread.
pub(crate) fn thread_index() -> u64 {
    THREAD_INDEX.with(|i| *i)
}

/// The calling thread's innermost open span id (0 = none).
pub(crate) fn current_span() -> u64 {
    CURRENT_SPAN.with(Cell::get)
}

pub(crate) fn set_current_span(id: u64) {
    CURRENT_SPAN.with(|c| c.set(id));
}

/// Append `,"trace":"<32hex>"` when the calling thread has a trace context
/// installed. Centralised here so every event builder — and therefore every
/// existing call site — picks up request identity with no signature change.
fn push_trace_field(line: &mut String) {
    if let Some(ctx) = current_trace() {
        let _ = write!(line, ",\"trace\":\"{:032x}\"", ctx.trace_id);
    }
}

/// Build a `B` event line.
pub(crate) fn begin_line(name: &str, id: u64, parent: u64, thread: u64, t_us: u64) -> String {
    let mut line = String::with_capacity(96);
    let _ = write!(line, "{{\"ev\":\"B\",\"id\":{id},\"parent\":{parent},\"name\":");
    escape_into(&mut line, name);
    let _ = write!(line, ",\"thread\":{thread},\"t_us\":{t_us}");
    push_trace_field(&mut line);
    line.push('}');
    line
}

/// Build an `E` event line (name repeated so lines aggregate standalone).
pub(crate) fn end_line(name: &str, id: u64, t_us: u64, dur_us: u64) -> String {
    let mut line = String::with_capacity(96);
    let _ = write!(line, "{{\"ev\":\"E\",\"id\":{id},\"name\":");
    escape_into(&mut line, name);
    let _ = write!(line, ",\"t_us\":{t_us},\"dur_us\":{dur_us}");
    push_trace_field(&mut line);
    line.push('}');
    line
}

/// Build an `X` (complete-span) event line.
pub(crate) fn complete_line(
    name: &str,
    id: u64,
    parent: u64,
    thread: u64,
    t_us: u64,
    dur_us: u64,
) -> String {
    let mut line = String::with_capacity(96);
    let _ = write!(line, "{{\"ev\":\"X\",\"id\":{id},\"parent\":{parent},\"name\":");
    escape_into(&mut line, name);
    let _ = write!(line, ",\"thread\":{thread},\"t_us\":{t_us},\"dur_us\":{dur_us}");
    push_trace_field(&mut line);
    line.push('}');
    line
}

/// RAII span guard returned by [`crate::Telemetry::span`]. Dropping it writes
/// the `E` event and restores the parent span as the thread's current span.
/// Inert (zero work) when tracing is disabled.
pub struct Span {
    /// `None` when tracing is disabled.
    pub(crate) active: Option<SpanActive>,
}

pub(crate) struct SpanActive {
    pub(crate) tel: crate::Telemetry,
    pub(crate) name: crate::Name,
    pub(crate) id: u64,
    pub(crate) parent: u64,
    pub(crate) start: Instant,
}

impl Span {
    /// This span's id (0 when tracing is disabled).
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            active.tel.end_span(&active);
        }
    }
}

/// One parsed trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event kind: begin, end, or complete.
    pub kind: EventKind,
    /// Span id.
    pub id: u64,
    /// Parent span id (begin/complete events; 0 = root).
    pub parent: u64,
    /// Span name (empty on legacy end events without one).
    pub name: String,
    /// Thread index (begin/complete events).
    pub thread: u64,
    /// Microseconds since the trace epoch.
    pub t_us: u64,
    /// Duration in microseconds (end/complete events).
    pub dur_us: u64,
    /// 32-hex-digit request trace id, when the span ran under an installed
    /// [`TraceCtx`] (absent on events from untraced work and legacy traces).
    pub trace: Option<String>,
}

/// Trace event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened.
    Begin,
    /// Span closed.
    End,
    /// Complete span recorded in one event.
    Complete,
}

impl TraceEvent {
    /// Parse one JSONL trace line.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed, missing or mistyped field:
    /// a field the reader reads must hold its type when present.
    pub fn parse_line(line: &str) -> Result<TraceEvent, String> {
        let event = json::parse(line)?;
        if !matches!(event, Value::Object(_)) {
            return Err("expected a JSON object".to_string());
        }
        let kind = match str_field(&event, "ev")? {
            Some("B") => EventKind::Begin,
            Some("E") => EventKind::End,
            Some("X") => EventKind::Complete,
            other => return Err(format!("bad event kind {other:?}")),
        };
        let name = str_field(&event, "name")?.unwrap_or_default().to_string();
        if name.is_empty() && kind != EventKind::End {
            return Err("missing span name".to_string());
        }
        Ok(TraceEvent {
            kind,
            id: int_field(&event, "id")?.ok_or("missing id")?,
            parent: int_field(&event, "parent")?.unwrap_or(0),
            name,
            thread: int_field(&event, "thread")?.unwrap_or(0),
            t_us: int_field(&event, "t_us")?.ok_or("missing t_us")?,
            dur_us: int_field(&event, "dur_us")?.unwrap_or(0),
            trace: str_field(&event, "trace")?.map(str::to_string),
        })
    }
}

/// Field `key` of a trace event as an unsigned integer (`None` if absent).
fn int_field(event: &Value, key: &str) -> Result<Option<u64>, String> {
    event
        .get(key)
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("{key} is not an unsigned integer"))
        })
        .transpose()
}

/// Field `key` of a trace event as a string (`None` if absent).
fn str_field<'a>(event: &'a Value, key: &str) -> Result<Option<&'a str>, String> {
    event
        .get(key)
        .map(|v| v.as_str().ok_or_else(|| format!("{key} is not a string")))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_lines_round_trip() {
        let b = begin_line("batch.exec", 3, 1, 2, 120);
        let ev = TraceEvent::parse_line(&b).unwrap();
        assert_eq!(ev.kind, EventKind::Begin);
        assert_eq!((ev.id, ev.parent, ev.thread, ev.t_us), (3, 1, 2, 120));
        assert_eq!(ev.name, "batch.exec");

        let e = end_line("batch.exec", 3, 200, 80);
        let ev = TraceEvent::parse_line(&e).unwrap();
        assert_eq!(ev.kind, EventKind::End);
        assert_eq!(ev.dur_us, 80);

        let x = complete_line("queue.wait", 9, 0, 1, 50, 70);
        let ev = TraceEvent::parse_line(&x).unwrap();
        assert_eq!(ev.kind, EventKind::Complete);
        assert_eq!((ev.t_us, ev.dur_us), (50, 70));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(TraceEvent::parse_line("not json").is_err());
        assert!(TraceEvent::parse_line(r#"{"ev":"Z","id":1,"t_us":0}"#).is_err());
        assert!(TraceEvent::parse_line(r#"{"ev":"B","t_us":0,"name":"x"}"#).is_err());
        assert!(TraceEvent::parse_line(r#"{"id":1,"t_us":0,"name":"x"}"#).is_err());
        assert!(TraceEvent::parse_line(r#"{"ev":"B","id":1,"name":"x"}"#).is_err());
        assert!(TraceEvent::parse_line(r#"["ev","B","id",1,"t_us",0]"#).is_err());
        assert!(TraceEvent::parse_line(r#"{"ev":"B","id":"1","name":"x","t_us":0}"#).is_err());
        assert!(TraceEvent::parse_line(r#"{"ev":"B","id":1,"name":7,"t_us":0}"#).is_err());
    }

    #[test]
    fn integer_fields_read_back_up_to_u64_max() {
        let max = u64::MAX;
        let line = format!(
            r#"{{"ev":"X","id":{max},"parent":{max},"name":"a","thread":{max},"t_us":{max},"dur_us":{max}}}"#
        );
        let ev = TraceEvent::parse_line(&line).unwrap();
        assert_eq!(
            (ev.id, ev.parent, ev.thread, ev.t_us, ev.dur_us),
            (max, max, max, max, max)
        );
        let over = line.replace(
            "\"t_us\":18446744073709551615",
            "\"t_us\":18446744073709551616",
        );
        assert!(TraceEvent::parse_line(&over).is_err());
    }

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceCtx::generate();
        assert_ne!(ctx.trace_id, 0);
        let header = ctx.traceparent();
        assert_eq!(TraceCtx::parse_traceparent(&header), Some(ctx));
        assert_eq!(ctx.trace_id_hex().len(), 32);
        assert!(header.starts_with("00-"));

        let parsed = TraceCtx::parse_traceparent(
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
        )
        .unwrap();
        assert_eq!(parsed.trace_id, 0x0af7_6519_16cd_43dd_8448_eb21_1c80_319c);
        assert_eq!(parsed.span_id, 0xb7ad_6b71_6920_3331);
    }

    #[test]
    fn traceparent_rejects_malformed_headers() {
        for bad in [
            "",
            "00-short-b7ad6b7169203331-01",
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331", // missing flags
            "00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
            "zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // bad version
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333x-01", // bad span hex
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra",
        ] {
            assert_eq!(TraceCtx::parse_traceparent(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn generated_contexts_differ() {
        let a = TraceCtx::generate();
        let b = TraceCtx::generate();
        assert_ne!(a.trace_id, b.trace_id);
    }

    #[test]
    fn install_trace_stamps_events_and_nests() {
        assert_eq!(current_trace(), None);
        let outer = TraceCtx { trace_id: 0xabc, span_id: 7 };
        let guard = install_trace(outer);
        let line = begin_line("serve.request", 1, 0, 1, 10);
        let ev = TraceEvent::parse_line(&line).unwrap();
        assert_eq!(ev.trace.as_deref(), Some(outer.trace_id_hex().as_str()));
        {
            let inner = TraceCtx { trace_id: 0xdef, span_id: 9 };
            let _inner_guard = install_trace(inner);
            assert_eq!(current_trace(), Some(inner));
        }
        assert_eq!(current_trace(), Some(outer));
        drop(guard);
        assert_eq!(current_trace(), None);
        let ev = TraceEvent::parse_line(&begin_line("serve.request", 2, 0, 1, 10)).unwrap();
        assert_eq!(ev.trace, None);
    }
}

//! The serving loop: acceptor, per-connection handlers, admission control,
//! and graceful drain.
//!
//! ## Request lifecycle
//!
//! ```text
//! accept → read head/body → validate (400/404/411/413/422)
//!        → admission: draining? class admit_below? fairness cap? (503/429)
//!        → spool body → submit_watched(deadline by class)
//!        → wait (504 on budget exhaustion)
//!        → read recovered image → respond (PPM, or DC-plane PGM by Accept)
//! ```
//!
//! ## Shed/drain state machine
//!
//! ```text
//!            queue_depth < admit_below·cap        SIGTERM / POST /admin/drain
//!  ACCEPTING ───────────────────────────▶ admit      │
//!      │ otherwise                                   ▼
//!      └────────────────────────────────▶ shed    DRAINING ── in-flight → 0 ──▶ STOPPED
//!                                                    │ new requests → 503        (runtime
//!                                                    └ idle keep-alives close     drained)
//! ```
//!
//! Watched submissions ([`Runtime::submit_watched`]) keep the server's
//! memory flat: results are delivered to the waiting handler thread and
//! never accumulate in the runtime's shutdown report.

use std::collections::HashMap;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dcdiff_image::{read_ppm, Image, Plane};
use dcdiff_runtime::{
    Job, JobFailure, JobOutput, JobSpec, Runtime, ShutdownMode, StatsSnapshot, SubmitError,
};
use dcdiff_telemetry::sync::{Mutex, Rank};
use dcdiff_telemetry::{names, prometheus, Gauge, Telemetry, TraceCtx, WindowedMetrics};

use crate::config::{DeadlineClass, ServeConfig};
use crate::http::{
    self, parse_request_line, read_message, write_response, HttpError, Message,
};
use crate::signal;

/// JPEG SOI marker — the only payload sniffing the front door does; real
/// validation happens in the decoder behind the runtime.
const SOI: [u8; 2] = [0xFF, 0xD8];

/// State shared by the acceptor, every connection handler, and the drain.
struct Shared {
    cfg: ServeConfig,
    tel: Telemetry,
    /// `None` once the drain has taken the runtime down.
    runtime: Mutex<Option<Runtime>>,
    queue_cap: usize,
    draining: AtomicBool,
    /// Open connections (mirrors the `serve.connections` gauge, but the
    /// drain loop needs an exact count, not a telemetry read).
    conns: AtomicUsize,
    /// Admitted requests a response is still owed for.
    in_flight: AtomicUsize,
    /// Per-peer-IP admitted-request counts (the fairness cap).
    per_client: Mutex<HashMap<IpAddr, usize>>,
    next_req: AtomicU64,
    /// Rolling-window snapshots feeding the Prometheus exposition; ticked
    /// by a dedicated thread every `cfg.metrics_epoch`.
    windows: WindowedMetrics,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed) || signal::shutdown_requested()
    }
}

/// Summary returned by [`Server::drain`].
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Final runtime counters (None when the runtime was already taken).
    pub stats: Option<StatsSnapshot>,
    /// Connections that were still open when the drain grace expired.
    pub abandoned_connections: usize,
}

/// A running `dcdiff serve` instance.
///
/// Dropping a `Server` without calling [`Server::drain`] leaves the
/// acceptor thread to exit on its own once the drain flag is set; call
/// `drain` for an orderly shutdown.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr`, start the runtime and the acceptor thread.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener or creating the spool
    /// directory.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        Self::bind_with(cfg, Telemetry::new())
    }

    /// [`Server::bind`] with an explicit telemetry handle (tests and the
    /// CLI pass one that also traces the runtime).
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener or creating the spool
    /// directory.
    pub fn bind_with(mut cfg: ServeConfig, tel: Telemetry) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.spool_dir)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        cfg.runtime.telemetry = tel.clone();
        let queue_cap = cfg.runtime.queue_cap.max(1);
        let runtime = Runtime::start(cfg.runtime.clone());
        let windows = WindowedMetrics::new(cfg.metrics_epoch, &cfg.metrics_windows);
        let shared = Arc::new(Shared {
            cfg,
            tel,
            runtime: Mutex::new(Rank::ServeRuntime, Some(runtime)),
            queue_cap,
            draining: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            per_client: Mutex::new(Rank::ServeClients, HashMap::new()),
            next_req: AtomicU64::new(0),
            windows,
        });
        shared.tel.gauge(names::GAUGE_SERVE_DRAINING).set(0);
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        // Metrics ticker: one registry snapshot per epoch for the rolling
        // windows; exits within one epoch of the drain flag being set.
        {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("serve-metrics".to_string())
                .spawn(move || {
                    shared.windows.tick(shared.tel.registry());
                    while !shared.draining() {
                        thread::sleep(shared.cfg.metrics_epoch);
                        shared.windows.tick(shared.tel.registry());
                    }
                })?;
        }
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with `:0` bind requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Telemetry handle the server publishes `serve.*` series on.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.tel
    }

    /// Whether a drain has been requested (signal, `/admin/drain`, or
    /// [`Server::drain`]).
    pub fn draining(&self) -> bool {
        self.shared.draining()
    }

    /// Block until a shutdown signal or `/admin/drain` request arrives,
    /// then drain.
    pub fn run_until_shutdown(self) -> DrainReport {
        while !self.shared.draining() {
            thread::sleep(Duration::from_millis(100));
        }
        self.drain()
    }

    /// Graceful drain: stop accepting, let in-flight requests finish
    /// (bounded by `drain_grace`), then drain the runtime itself.
    pub fn drain(mut self) -> DrainReport {
        let tel = self.shared.tel.clone();
        let span = tel.span(names::SPAN_SERVE_DRAIN);
        self.shared.draining.store(true, Ordering::Relaxed);
        tel.gauge(names::GAUGE_SERVE_DRAINING).set(1);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let deadline = Instant::now() + self.shared.cfg.drain_grace;
        while self.shared.conns.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(20));
        }
        let abandoned = self.shared.conns.load(Ordering::Relaxed);
        let runtime = self.shared.runtime.lock().take();
        let stats = runtime.map(|rt| rt.shutdown(ShutdownMode::Drain).stats);
        drop(span);
        tel.flush();
        DrainReport {
            stats,
            abandoned_connections: abandoned,
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let conn_gauge = shared.tel.gauge(names::GAUGE_SERVE_CONNECTIONS);
    while !shared.draining() {
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.conns.load(Ordering::Relaxed) >= shared.cfg.max_connections {
                    shared.tel.counter(names::CTR_SERVE_SHED).inc();
                    let mut stream = stream;
                    let _ = write_response(
                        &mut stream,
                        503,
                        "Service Unavailable",
                        "text/plain",
                        &[],
                        b"connection limit reached\n",
                        true,
                    );
                    continue;
                }
                let slot = ConnSlot::take(shared, &conn_gauge);
                // A thread that fails to start drops its closure, and the
                // slot with it.
                let _ = thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        let slot = slot;
                        handle_connection(&slot.shared, stream, peer);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(25));
            }
            Err(_) => thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// One `--max-conns` slot, owned by a connection thread. Dropping it
/// releases the slot and the `serve.connections` gauge on every way out of
/// the thread — a return, a panic, or a thread that never started — so the
/// drain's connection count always falls back to zero.
struct ConnSlot {
    shared: Arc<Shared>,
    gauge: Gauge,
}

impl ConnSlot {
    fn take(shared: &Arc<Shared>, gauge: &Gauge) -> ConnSlot {
        shared.conns.fetch_add(1, Ordering::Relaxed);
        gauge.add(1);
        ConnSlot { shared: Arc::clone(shared), gauge: gauge.clone() }
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.shared.conns.fetch_sub(1, Ordering::Relaxed);
        self.gauge.add(-1);
    }
}

/// What the dispatcher decided for one request.
struct Reply {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    /// Extra response headers (`x-dcdiff-trace-id`, `server-timing`).
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    close: bool,
}

impl Reply {
    fn text(status: u16, reason: &'static str, body: &str) -> Reply {
        Reply {
            status,
            reason,
            content_type: "text/plain",
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            close: false,
        }
    }

    fn closing(mut self) -> Reply {
        self.close = true;
        self
    }

    fn with_header(mut self, name: &str, value: String) -> Reply {
        self.headers.push((name.to_string(), value));
        self
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream, peer: SocketAddr) {
    let _ = stream.set_read_timeout(Some(http::READ_SLICE));
    let _ = stream.set_nodelay(true);
    loop {
        let give_up = || shared.draining();
        let read_span = shared.tel.span(names::SPAN_SERVE_READ);
        let message = read_message(
            &mut stream,
            shared.cfg.max_body_bytes,
            shared.cfg.keep_alive_idle,
            &give_up,
        );
        drop(read_span);
        let reply = match message {
            Ok(None) => return, // clean close or drained idle keep-alive
            Ok(Some(request)) => {
                let started = Instant::now();
                // One trace context per request: taken from an incoming
                // `traceparent` header when present (W3C grammar), generated
                // otherwise. Installing it here means every span below —
                // serve.request, queue wait on the worker, recovery phases,
                // per-DDIM-step — carries the same trace id, and the
                // response echoes it so callers can join client and server
                // observations.
                let trace = request
                    .header("traceparent")
                    .and_then(TraceCtx::parse_traceparent)
                    .unwrap_or_else(TraceCtx::generate);
                let guard = dcdiff_telemetry::install_trace(trace);
                let span = shared.tel.span(names::SPAN_SERVE_REQUEST);
                let reply = dispatch(shared, &request, peer.ip());
                drop(span);
                drop(guard);
                shared
                    .tel
                    .histogram(names::HIST_SERVE_REQUEST_WALL_US)
                    .record_duration(started.elapsed());
                reply.with_header("x-dcdiff-trace-id", trace.trace_id_hex())
            }
            Err(HttpError::TooLarge(n)) => {
                shared.tel.counter(names::CTR_SERVE_BAD_REQUEST).inc();
                Reply::text(
                    413,
                    "Payload Too Large",
                    &format!(
                        "declared body of {n} bytes exceeds the {}-byte limit\n",
                        shared.cfg.max_body_bytes
                    ),
                )
                .closing()
            }
            Err(HttpError::Malformed(why)) => {
                shared.tel.counter(names::CTR_SERVE_BAD_REQUEST).inc();
                Reply::text(400, "Bad Request", &format!("{why}\n")).closing()
            }
            Err(HttpError::Truncated) | Err(HttpError::Io(_)) => {
                shared.tel.counter(names::CTR_SERVE_DISCONNECTS).inc();
                return;
            }
        };
        let close = reply.close || shared.draining();
        let write_span = shared.tel.span(names::SPAN_SERVE_WRITE);
        let written = write_response(
            &mut stream,
            reply.status,
            reply.reason,
            reply.content_type,
            &reply.headers,
            &reply.body,
            close,
        );
        drop(write_span);
        if written.is_err() {
            shared.tel.counter(names::CTR_SERVE_DISCONNECTS).inc();
            return;
        }
        if close {
            return;
        }
    }
}

fn dispatch(shared: &Arc<Shared>, request: &Message, peer: IpAddr) -> Reply {
    let (method, target) = match parse_request_line(&request.start_line) {
        Ok(pair) => pair,
        Err(_) => {
            shared.tel.counter(names::CTR_SERVE_BAD_REQUEST).inc();
            return Reply::text(400, "Bad Request", "unparseable request line\n").closing();
        }
    };
    let path = target.split('?').next().unwrap_or(target);
    match (method, path) {
        ("GET", "/healthz") => {
            if shared.draining() {
                Reply::text(503, "Service Unavailable", "draining\n")
            } else {
                Reply::text(200, "OK", "ok\n")
            }
        }
        ("GET", "/metrics") => {
            // Content negotiation: JSON stays the default; `Accept:
            // text/plain` (what `dcdiff top` and Prometheus scrapers send)
            // selects the text exposition with windowed rate/quantile
            // series alongside the cumulative values.
            let wants_text = request
                .header("accept")
                .is_some_and(|a| a.contains("text/plain"));
            if wants_text {
                let body = prometheus::render(
                    &shared.tel.registry().snapshot(),
                    &shared.windows.views(),
                );
                Reply {
                    status: 200,
                    reason: "OK",
                    content_type: "text/plain; version=0.0.4",
                    headers: Vec::new(),
                    body: body.into_bytes(),
                    close: false,
                }
            } else {
                Reply {
                    status: 200,
                    reason: "OK",
                    content_type: "application/json",
                    headers: Vec::new(),
                    body: shared.tel.metrics_json().into_bytes(),
                    close: false,
                }
            }
        }
        ("POST", "/admin/drain") => {
            shared.draining.store(true, Ordering::Relaxed);
            shared.tel.gauge(names::GAUGE_SERVE_DRAINING).set(1);
            Reply::text(202, "Accepted", "draining\n").closing()
        }
        ("POST", "/recover") => recover_request(shared, request, peer),
        _ => {
            shared.tel.counter(names::CTR_SERVE_BAD_REQUEST).inc();
            Reply::text(404, "Not Found", "unknown endpoint\n")
        }
    }
}

/// Decrements the per-client in-flight count (and gauge) on every exit
/// path out of the admitted section.
struct AdmitGuard<'a> {
    shared: &'a Shared,
    peer: IpAddr,
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        let mut map = self.shared.per_client.lock();
        if let Some(count) = map.get_mut(&self.peer) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                map.remove(&self.peer);
            }
        }
        drop(map);
        self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.shared
            .tel
            .gauge(names::GAUGE_SERVE_IN_FLIGHT)
            .add(-1);
    }
}

fn recover_request(shared: &Arc<Shared>, request: &Message, peer: IpAddr) -> Reply {
    let tel = &shared.tel;
    // -- validation (counts as bad_request, never reaches the queue) ------
    if request.header("content-length").is_none() {
        tel.counter(names::CTR_SERVE_BAD_REQUEST).inc();
        return Reply::text(411, "Length Required", "content-length required\n").closing();
    }
    tel.histogram(names::HIST_SERVE_BODY_BYTES)
        .record(request.body.len() as u64);
    if request.body.get(..2) != Some(&SOI[..]) {
        tel.counter(names::CTR_SERVE_BAD_REQUEST).inc();
        return Reply::text(422, "Unprocessable Entity", "not a JPEG stream (no SOI)\n");
    }
    let class_name = request
        .header("x-deadline-class")
        .unwrap_or(shared.cfg.default_class.as_str());
    let Some(class) = shared.cfg.class(class_name) else {
        tel.counter(names::CTR_SERVE_BAD_REQUEST).inc();
        return Reply::text(400, "Bad Request", &format!("unknown class '{class_name}'\n"));
    };
    // -- admission --------------------------------------------------------
    if shared.draining() {
        tel.counter(names::CTR_SERVE_SHED).inc();
        return Reply::text(503, "Service Unavailable", "draining\n").closing();
    }
    let depth = shared.runtime.lock().as_ref().map(Runtime::queue_depth);
    let Some(depth) = depth else {
        tel.counter(names::CTR_SERVE_SHED).inc();
        return Reply::text(503, "Service Unavailable", "draining\n").closing();
    };
    let admit_limit = (class.admit_below * shared.queue_cap as f64).ceil() as usize;
    if depth >= admit_limit.max(1) {
        tel.counter(names::CTR_SERVE_SHED).inc();
        tel.counter(names::class_shed_counter(&class.name)).inc();
        return Reply::text(
            503,
            "Service Unavailable",
            &format!("queue depth {depth} sheds class '{}'\n", class.name),
        );
    }
    // -- fairness ---------------------------------------------------------
    {
        let mut map = shared.per_client.lock();
        let count = map.entry(peer).or_insert(0);
        if *count >= shared.cfg.per_client_inflight {
            drop(map);
            tel.counter(names::CTR_SERVE_FAIRNESS_REJECT).inc();
            return Reply::text(
                429,
                "Too Many Requests",
                "per-client in-flight limit reached\n",
            );
        }
        *count += 1;
    }
    shared.in_flight.fetch_add(1, Ordering::Relaxed);
    tel.gauge(names::GAUGE_SERVE_IN_FLIGHT).add(1);
    let guard = AdmitGuard { shared, peer };
    let reply = admitted_request(shared, request, class);
    drop(guard);
    reply
}

fn admitted_request(shared: &Arc<Shared>, request: &Message, class: &DeadlineClass) -> Reply {
    let tel = &shared.tel;
    let req_id = shared.next_req.fetch_add(1, Ordering::Relaxed);
    let input = shared.cfg.spool_dir.join(format!("req-{req_id}.jpg"));
    let output = shared.cfg.spool_dir.join(format!("req-{req_id}.ppm"));
    if std::fs::write(&input, &request.body).is_err() {
        tel.counter(names::CTR_SERVE_FAILED).inc();
        return Reply::text(500, "Internal Server Error", "spool write failed\n");
    }
    let mut spec = JobSpec::new(Job::Recover {
        input: input.to_string_lossy().into_owned(),
        output: output.to_string_lossy().into_owned(),
        method: shared.cfg.method,
    });
    // Carry the request's trace across the queue: the worker re-installs it
    // so queue-wait, recovery and per-DDIM-step spans join this request's
    // causal chain (see `handle_connection`).
    if let Some(trace) = dcdiff_telemetry::current_trace() {
        spec = spec.with_trace(trace);
    }
    if let Some(deadline) = class.deadline {
        spec = spec.with_deadline(deadline);
    }
    let submitted = shared.runtime.lock().as_ref().map(|rt| rt.submit_watched(spec));
    let handle = match submitted {
        Some(Ok((_, handle))) => {
            tel.counter(names::CTR_SERVE_ACCEPTED).inc();
            tel.counter(names::class_admitted_counter(&class.name)).inc();
            handle
        }
        Some(Err(SubmitError::QueueFull)) => {
            tel.counter(names::CTR_SERVE_SHED).inc();
            tel.counter(names::class_shed_counter(&class.name)).inc();
            cleanup(&input, &output);
            return Reply::text(503, "Service Unavailable", "queue full\n");
        }
        Some(Err(SubmitError::ShuttingDown)) | None => {
            tel.counter(names::CTR_SERVE_SHED).inc();
            cleanup(&input, &output);
            return Reply::text(503, "Service Unavailable", "draining\n").closing();
        }
    };
    let wait_budget = class
        .deadline
        .map_or(shared.cfg.bulk_wait, |d| d + shared.cfg.wait_grace);
    let wait_span = tel.span(names::SPAN_SERVE_WAIT);
    let result = handle.wait_timeout(wait_budget);
    drop(wait_span);
    let reply = match result {
        None => {
            tel.counter(names::CTR_SERVE_FAILED).inc();
            Reply::text(504, "Gateway Timeout", "recovery exceeded its wait budget\n")
        }
        Some(result) => {
            // Per-stage breakdown in Server-Timing grammar: `exec` is pure
            // recovery compute, `queue` the remainder of the job's wall
            // (queue wait and anything else before its final attempt),
            // `total` the job wall clock.
            let exec_ms = result.exec.as_secs_f64() * 1e3;
            let wall_ms = result.wall.as_secs_f64() * 1e3;
            let queue_ms = (wall_ms - exec_ms).max(0.0);
            let timing = format!(
                "queue;dur={queue_ms:.1}, exec;dur={exec_ms:.1}, total;dur={wall_ms:.1}"
            );
            timed_reply(shared, request, class, result, tel).with_header("server-timing", timing)
        }
    };
    cleanup(&input, &output);
    reply
}

/// The response for a delivered [`dcdiff_runtime::JobResult`].
fn timed_reply(
    shared: &Arc<Shared>,
    request: &Message,
    class: &DeadlineClass,
    result: dcdiff_runtime::JobResult,
    tel: &Telemetry,
) -> Reply {
    match result.outcome {
        Ok(JobOutput::Recovered { output: path }) => respond_with_image(shared, request, &path),
        Ok(_) => {
            tel.counter(names::CTR_SERVE_FAILED).inc();
            Reply::text(500, "Internal Server Error", "unexpected job output\n")
        }
        Err(JobFailure::DeadlineExceeded) => {
            tel.counter(names::CTR_SERVE_FAILED).inc();
            Reply::text(
                504,
                "Gateway Timeout",
                &format!("class '{}' deadline exceeded in queue\n", class.name),
            )
        }
        Err(JobFailure::Rejected) => {
            tel.counter(names::CTR_SERVE_SHED).inc();
            Reply::text(503, "Service Unavailable", "job shed during shutdown\n").closing()
        }
        Err(JobFailure::Error(e)) => {
            tel.counter(names::CTR_SERVE_FAILED).inc();
            Reply::text(422, "Unprocessable Entity", &format!("recovery failed: {e:?}\n"))
        }
    }
}

fn cleanup(input: &PathBuf, output: &PathBuf) {
    let _ = std::fs::remove_file(input);
    let _ = std::fs::remove_file(output);
}

/// `Accept: image/x-portable-graymap` negotiates the estimated DC plane
/// (one sample per 8×8 block) instead of the full recovered image.
fn wants_dc_plane(request: &Message) -> bool {
    request
        .header("accept")
        .is_some_and(|accept| accept.contains("image/x-portable-graymap"))
}

fn respond_with_image(shared: &Arc<Shared>, request: &Message, path: &str) -> Reply {
    let tel = &shared.tel;
    if wants_dc_plane(request) {
        match read_ppm(path).map(|image| dc_plane_pgm(&image)) {
            Ok(body) => {
                tel.counter(names::CTR_SERVE_COMPLETED).inc();
                Reply {
                    status: 200,
                    reason: "OK",
                    content_type: "image/x-portable-graymap",
                    headers: Vec::new(),
                    body,
                    close: false,
                }
            }
            Err(_) => {
                tel.counter(names::CTR_SERVE_FAILED).inc();
                Reply::text(500, "Internal Server Error", "recovered image unreadable\n")
            }
        }
    } else {
        match std::fs::read(path) {
            Ok(body) => {
                tel.counter(names::CTR_SERVE_COMPLETED).inc();
                Reply {
                    status: 200,
                    reason: "OK",
                    content_type: "image/x-portable-pixmap",
                    headers: Vec::new(),
                    body,
                    close: false,
                }
            }
            Err(_) => {
                tel.counter(names::CTR_SERVE_FAILED).inc();
                Reply::text(500, "Internal Server Error", "recovered image missing\n")
            }
        }
    }
}

/// Collapse a recovered image to its DC plane — the per-block mean the
/// estimator actually reconstructs — as an in-memory binary PGM.
pub fn dc_plane_pgm(image: &Image) -> Vec<u8> {
    let gray = image.to_gray();
    let plane = gray.plane(0);
    let bw = plane.width().div_ceil(8);
    let bh = plane.height().div_ceil(8);
    let mut means = Plane::new(bw.max(1), bh.max(1));
    for by in 0..bh {
        for bx in 0..bw {
            let mut sum = 0.0f32;
            let mut count = 0u32;
            for y in (by * 8)..((by * 8 + 8).min(plane.height())) {
                for x in (bx * 8)..((bx * 8 + 8).min(plane.width())) {
                    sum += plane.get(x, y);
                    count += 1;
                }
            }
            means.set(bx, by, if count > 0 { sum / count as f32 } else { 0.0 });
        }
    }
    let mut out = format!("P5\n{} {}\n255\n", means.width(), means.height()).into_bytes();
    out.extend(
        means
            .as_slice()
            .iter()
            .map(|&v| v.round().clamp(0.0, 255.0) as u8),
    );
    out
}

#[cfg(test)]
#[cfg(unix)]
#[path = "../../runtime/tests/support/gate.rs"]
mod gate;

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(unix)]
    use super::gate::{dropped_jpeg, wait_until, Gate};
    use crate::{Client, HttpResponse};
    use dcdiff_runtime::{RecoverMethod, RuntimeConfig};

    #[test]
    fn dc_plane_pgm_is_one_sample_per_block() {
        let plane = Plane::from_fn(16, 10, |x, _| if x < 8 { 64.0 } else { 192.0 });
        let image = Image::from_gray(plane);
        let pgm = dc_plane_pgm(&image);
        let header = b"P5\n2 2\n255\n";
        assert_eq!(pgm.get(..header.len()), Some(&header[..]));
        let samples = pgm.get(header.len()..).expect("payload present");
        assert_eq!(samples, &[64, 192, 64, 192]);
    }

    #[test]
    fn a_panicking_connection_thread_releases_its_slot() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            spool_dir: std::env::temp_dir()
                .join(format!("dcdiff-serve-unit-slot-{}", std::process::id())),
            ..ServeConfig::default()
        })
        .expect("bind loopback server");
        let gauge = server.shared.tel.gauge(names::GAUGE_SERVE_CONNECTIONS);
        let slot = ConnSlot::take(&server.shared, &gauge);
        let conn = thread::spawn(move || {
            let slot = slot;
            assert_eq!(slot.shared.conns.load(Ordering::Relaxed), 1);
            panic!("connection handler bug");
        });
        assert!(conn.join().is_err(), "the connection thread panicked");
        assert_eq!(server.shared.conns.load(Ordering::Relaxed), 0);
        assert_eq!(gauge.get(), 0);
        // Nothing is left for the drain to wait on.
        assert_eq!(server.drain().abandoned_connections, 0);
    }

    // The tests below need a busy worker. They hold the server's lone
    // worker on a `Gate`, submitted straight to the private runtime, and
    // wait on the queue depth for their requests to queue behind it.

    #[cfg(unix)]
    fn test_config(tag: &str) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            spool_dir: std::env::temp_dir()
                .join(format!("dcdiff-serve-unit-{tag}-{}", std::process::id())),
            runtime: RuntimeConfig {
                workers: 1,
                queue_cap: 8,
                ..RuntimeConfig::default()
            },
            method: RecoverMethod::Tip2006,
            ..ServeConfig::default()
        }
    }

    #[cfg(unix)]
    fn start_with(cfg: ServeConfig) -> (Server, Client) {
        let server = Server::bind(cfg).expect("bind loopback server");
        let client = Client::new(server.local_addr().to_string());
        (server, client)
    }

    #[cfg(unix)]
    fn hold(server: &Server) -> Gate {
        Gate::hold(server.shared.runtime.lock().as_ref().expect("runtime running"))
    }

    /// Wait until `n` admitted requests are queued behind the gate.
    #[cfg(unix)]
    fn wait_for_queued(server: &Server, n: usize) {
        wait_until(&format!("{n} request(s) queue"), || {
            server.shared.runtime.lock().as_ref().map(Runtime::queue_depth) == Some(n)
        });
    }

    /// One recovery on its own thread: it blocks until the worker serves it.
    #[cfg(unix)]
    fn spawn_recover(
        client: &Client,
        jpeg: &[u8],
        class: &'static str,
    ) -> thread::JoinHandle<std::io::Result<HttpResponse>> {
        let (client, jpeg) = (client.clone(), jpeg.to_vec());
        thread::spawn(move || client.recover(&jpeg, Some(class), false))
    }

    #[cfg(unix)]
    fn metrics_json(client: &Client) -> String {
        String::from_utf8_lossy(&client.get("/metrics").expect("metrics").body).into_owned()
    }

    #[cfg(unix)]
    #[test]
    fn fairness_cap_rejects_the_over_quota_client() {
        let mut cfg = test_config("fairness");
        cfg.per_client_inflight = 1;
        let (server, client) = start_with(cfg);
        let jpeg = dropped_jpeg(16, 16);

        // The first request queues behind the held worker, holding its
        // fairness slot.
        let gate = hold(&server);
        let first = spawn_recover(&client, &jpeg, "bulk");
        wait_for_queued(&server, 1);

        // Same peer IP, second connection: over the in-flight cap.
        let rejected = client.recover(&jpeg, Some("bulk"), false).expect("second request");
        assert_eq!(rejected.status, 429, "body: {:?}", String::from_utf8_lossy(&rejected.body));

        gate.release();
        let first = first.join().expect("first thread").expect("first roundtrip");
        assert_eq!(first.status, 200);

        // With the slot released, the same client is admitted again.
        let after = client.recover(&jpeg, Some("bulk"), false).expect("third request");
        assert_eq!(after.status, 200);

        let metrics = metrics_json(&client);
        assert!(metrics.contains("serve.fairness_reject"), "metrics: {metrics}");
        server.drain();
    }

    #[cfg(unix)]
    #[test]
    fn overload_sheds_bulk_before_interactive() {
        let mut cfg = test_config("shed");
        cfg.runtime.queue_cap = 4;
        cfg.per_client_inflight = 16;
        cfg.classes = DeadlineClass::default_ladder();
        let (server, client) = start_with(cfg);
        let jpeg = dropped_jpeg(16, 16);

        // Hold the single worker, then pack the queue to depth 2 with bulk
        // requests (bulk admits while depth < ceil(0.5·4) = 2).
        let gate = hold(&server);
        let bulk: Vec<_> = (0..2).map(|_| spawn_recover(&client, &jpeg, "bulk")).collect();
        wait_for_queued(&server, 2);

        // Queue depth is now 2: bulk is shed, interactive is still admitted.
        let shed = client.recover(&jpeg, Some("bulk"), false).expect("bulk send");
        assert_eq!(shed.status, 503, "body: {:?}", String::from_utf8_lossy(&shed.body));
        let vip = spawn_recover(&client, &jpeg, "interactive");
        wait_for_queued(&server, 3);

        // Released well inside its deadline, the interactive request is
        // served.
        gate.release();
        let vip = vip.join().expect("interactive thread").expect("interactive send");
        assert_eq!(vip.status, 200, "body: {:?}", String::from_utf8_lossy(&vip.body));
        for t in bulk {
            let resp = t.join().expect("bulk thread").expect("bulk roundtrip");
            assert_eq!(resp.status, 200, "admitted bulk jobs all complete");
        }

        let metrics = metrics_json(&client);
        assert!(metrics.contains("serve.class.bulk.shed"), "metrics: {metrics}");
        assert!(metrics.contains("serve.class.bulk.admitted"), "metrics: {metrics}");
        server.drain();
    }

    #[cfg(unix)]
    #[test]
    fn a_queue_that_fills_after_admission_is_a_503() {
        // Admission reads the queue depth before submitting, so a burst
        // can fill the queue in between. Submitting past admission hits
        // that branch: the runtime rejects and logs the job while serve
        // still holds its runtime slot (`Rank::ServeRuntime` above
        // `Rank::RuntimeQueue`, then `Rank::LogWindow`).
        let mut cfg = test_config("full");
        cfg.runtime.queue_cap = 1;
        let (server, _client) = start_with(cfg);
        let gate = hold(&server);
        server
            .shared
            .runtime
            .lock()
            .as_ref()
            .expect("runtime running")
            .submit(Job::Metrics { reference: "/nonexistent/a".into(), test: "/nonexistent/b".into() })
            .expect("the queue's one slot");
        let request = Message {
            start_line: "POST /recover HTTP/1.1".to_string(),
            headers: Vec::new(),
            body: dropped_jpeg(16, 16),
        };
        let class = server.shared.cfg.class("standard").expect("default ladder").clone();
        let reply = admitted_request(&server.shared, &request, &class);
        assert_eq!((reply.status, reply.body.as_slice()), (503, &b"queue full\n"[..]));
        gate.release();
        server.drain();
    }

    #[cfg(unix)]
    #[test]
    fn drain_completes_in_flight_and_refuses_new_work() {
        let (server, client) = start_with(test_config("drain"));
        let jpeg = dropped_jpeg(32, 32);

        // One admitted request, still queued behind the held worker when
        // the drain starts.
        let gate = hold(&server);
        let in_flight = spawn_recover(&client, &jpeg, "bulk");
        wait_for_queued(&server, 1);

        // Trigger drain over the wire.
        let accepted = client.drain().expect("drain request");
        assert_eq!(accepted.status, 202);

        // New work is refused from this point on: either the request is
        // answered 503 (handler saw the flag) or the acceptor is already gone
        // (connection refused).
        if let Ok(resp) = client.recover(&jpeg, None, false) {
            assert_eq!(resp.status, 503, "draining server admitted new work");
        }

        // The admitted request is still owed (and gets) its response.
        gate.release();
        let first = in_flight.join().expect("in-flight thread").expect("in-flight roundtrip");
        assert_eq!(first.status, 200, "drain lost an admitted response");

        let report = server.drain();
        let stats = report.stats.expect("stats");
        assert_eq!(stats.completed, 2, "the held job and the in-flight request");
        assert_eq!(report.abandoned_connections, 0);
    }

    #[cfg(unix)]
    #[test]
    fn concurrent_diffusion_requests_fuse_into_one_cohort_with_linked_traces() {
        // N concurrent `--method diffusion` requests queued behind the held
        // worker must (a) fuse into one cohort, whose shared forwards carry
        // every lane, and (b) keep distinct causal chains: every request's
        // trace id still links `serve.request` through `queue.wait`,
        // `recover.estimate` and its own per-DDIM-step spans. This is the
        // only test in this binary that installs the process-wide handle,
        // which per-DDIM-step and cohort telemetry flow through.
        let tel = Telemetry::builder().trace_to_vec().build();
        dcdiff_telemetry::install(tel.clone());
        let mut cfg = test_config("cohort");
        cfg.method = RecoverMethod::Diffusion { ddim_steps: 2 };
        cfg.runtime.batch_max = 8;
        let server = Server::bind_with(cfg, tel.clone()).expect("bind loopback server");
        let addr = server.local_addr().to_string();

        let gate = hold(&server);
        let trace_ids: Vec<String> =
            (0..3u64).map(|i| format!("{:032x}", 0xc0_4042_7000 + i)).collect();
        let requests: Vec<_> = trace_ids
            .iter()
            .map(|tid| {
                let client = Client::new(addr.clone());
                let traceparent = format!("00-{tid}-00f067aa0ba902b7-01");
                thread::spawn(move || {
                    client
                        .recover_traced(&dropped_jpeg(32, 32), Some("bulk"), &traceparent)
                        .expect("request roundtrip")
                })
            })
            .collect();
        wait_for_queued(&server, trace_ids.len());
        gate.release();

        for (tid, request) in trace_ids.iter().zip(requests) {
            let resp = request.join().expect("request thread");
            assert_eq!(resp.status, 200, "body: {:?}", String::from_utf8_lossy(&resp.body));
            assert_eq!(resp.header("x-dcdiff-trace-id"), Some(tid.as_str()));
        }
        server.drain();
        dcdiff_telemetry::install(Telemetry::new());

        // (a) one cohort, and its shared forwards carried every lane.
        let metrics = tel.registry().snapshot();
        let widths = metrics.histogram("diffusion.batch.width");
        assert_eq!(widths.max, trace_ids.len() as u64, "forward widths: {widths:?}");
        assert_eq!(metrics.counter("diffusion.batch.cohorts"), 1);

        // (b) per-lane causal chains survive fusion.
        let text = tel.take_trace_vec().expect("in-memory trace");
        for tid in &trace_ids {
            let lane: Vec<_> = text
                .lines()
                .filter_map(|l| dcdiff_telemetry::TraceEvent::parse_line(l).ok())
                .filter(|ev| ev.trace.as_deref() == Some(tid.as_str()))
                .collect();
            let has = |name: &str| lane.iter().any(|ev| ev.name == name);
            assert!(has("serve.request"), "lane {tid} lost serve.request");
            assert!(has("queue.wait"), "lane {tid} lost queue.wait");
            assert!(has("recover.estimate"), "lane {tid} lost recover.estimate");
            assert!(has("recover.ddim_step"), "lane {tid} lost its per-step spans");
        }
    }

    #[cfg(unix)]
    #[test]
    fn prometheus_exposition_windows_diverge_from_cumulative_after_burst() {
        let mut cfg = test_config("promwin");
        cfg.metrics_epoch = Duration::from_millis(50);
        cfg.metrics_windows = vec![Duration::from_millis(300)];
        let (server, client) = start_with(cfg);
        let jpeg = dropped_jpeg(16, 16);

        // Slow phase: three requests wait behind the held worker for 400 ms,
        // so the hold dominates their wall clock. Three of them keep the
        // fractional-rank p99 inside the slow bucket even as later scrapes
        // add fast `/metrics` samples to the histogram.
        let gate = hold(&server);
        let slow: Vec<_> = (0..3).map(|_| spawn_recover(&client, &jpeg, "bulk")).collect();
        wait_for_queued(&server, 3);
        thread::sleep(Duration::from_millis(400));
        gate.release();
        for request in slow {
            let resp = request.join().expect("slow thread").expect("slow roundtrip");
            assert_eq!(resp.status, 200);
        }

        // Let the slow samples age out of the 300 ms window, then burst.
        thread::sleep(Duration::from_millis(450));
        for _ in 0..10 {
            let fast = client.recover(&jpeg, Some("bulk"), false).expect("fast roundtrip");
            assert_eq!(fast.status, 200);
        }

        // JSON stays the default exposition.
        let json = client.get("/metrics").expect("json metrics");
        assert_eq!(json.header("content-type"), Some("application/json"));

        // The windowed p99 must eventually cover only the fast burst while
        // the cumulative p99 still remembers the slow requests.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let resp = client
                .get_with("/metrics", &[("accept", "text/plain")])
                .expect("prometheus metrics");
            assert_eq!(resp.status, 200);
            assert_eq!(resp.header("content-type"), Some("text/plain; version=0.0.4"));
            let text = String::from_utf8_lossy(&resp.body).into_owned();
            let samples = prometheus::parse(&text).expect("exposition parses");
            let p99 = |window: Option<&str>| {
                samples
                    .iter()
                    .find(|s| {
                        s.name == "serve_request_wall_us"
                            && s.label("quantile") == Some("0.99")
                            && s.label("window") == window
                    })
                    .map(|s| s.value)
            };
            let cumulative = p99(None).expect("cumulative p99 present");
            // The slow requests alone guarantee a large cumulative p99.
            assert!(cumulative > 100_000.0, "cumulative p99 {cumulative}");
            if let Some(windowed) = p99(Some("300ms")) {
                if windowed > 0.0 && windowed * 4.0 < cumulative {
                    break; // window sees only the fast burst
                }
            }
            assert!(
                Instant::now() < deadline,
                "windowed p99 never diverged from cumulative: {text}"
            );
            thread::sleep(Duration::from_millis(60));
        }
        server.drain();
    }
}

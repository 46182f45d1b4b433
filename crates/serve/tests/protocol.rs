//! End-to-end protocol tests for `dcdiff serve`: happy-path recovery,
//! content negotiation, admission control, fairness, drain, and the
//! untrusted-bytes edge cases (truncated bodies, oversized payloads,
//! malformed requests, abrupt disconnects).
//!
//! Every server binds `127.0.0.1:0` with its own spool directory, so the
//! tests run in parallel. The protocol tests that need a busy worker
//! (fairness, shedding, drain, cohort fusion, windowed metrics) live in
//! `server.rs`'s unit tests, where they can hold the private runtime's
//! worker on a gate.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dcdiff_image::{Image, Plane};
use dcdiff_jpeg::{encode_coefficients, DcDropMode, JpegEncoder};
use dcdiff_runtime::{RecoverMethod, RuntimeConfig};
use dcdiff_serve::{Client, DeadlineClass, ServeConfig, Server};

/// A DC-dropped JPEG stream of a smooth gradient, the canonical DCDiff
/// receiver input.
fn dropped_jpeg(width: usize, height: usize) -> Vec<u8> {
    let plane = Plane::from_fn(width, height, |x, y| {
        64.0 + (x as f32 / width.max(1) as f32) * 96.0 + (y as f32 / height.max(1) as f32) * 48.0
    });
    let image = Image::from_gray(plane);
    let coeffs = JpegEncoder::new(75)
        .to_coefficients(&image)
        .drop_dc(DcDropMode::KeepCorners);
    encode_coefficients(&coeffs).expect("encode test stream")
}

fn test_config(tag: &str) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        spool_dir: std::env::temp_dir()
            .join(format!("dcdiff-serve-test-{tag}-{}", std::process::id())),
        runtime: RuntimeConfig {
            workers: 1,
            queue_cap: 8,
            ..RuntimeConfig::default()
        },
        // Fast deterministic method; MLD sweep counts are a latency knob
        // the bench exercises, not these protocol tests.
        method: RecoverMethod::Tip2006,
        ..ServeConfig::default()
    }
}

fn start(tag: &str) -> (Server, Client) {
    let server = Server::bind(test_config(tag)).expect("bind loopback server");
    let client = Client::new(server.local_addr().to_string());
    (server, client)
}

/// Send `request` raw on a fresh connection and read until the server
/// closes it (or 5 s pass). Returns everything received and whether the
/// server closed the connection.
fn raw_exchange(addr: std::net::SocketAddr, request: &[u8]) -> (String, bool) {
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(request).expect("send raw request");
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut buf = Vec::new();
    let closed = raw.read_to_end(&mut buf).is_ok();
    (String::from_utf8_lossy(&buf).into_owned(), closed)
}

#[test]
fn recover_roundtrip_full_image_and_dc_plane() {
    let (server, client) = start("roundtrip");
    let jpeg = dropped_jpeg(64, 48);

    let full = client.recover(&jpeg, None, false).expect("full roundtrip");
    assert_eq!(full.status, 200, "body: {:?}", String::from_utf8_lossy(&full.body));
    assert_eq!(full.header("content-type"), Some("image/x-portable-pixmap"));
    assert_eq!(full.body.get(..2), Some(&b"P6"[..]));

    let plane = client.recover(&jpeg, Some("interactive"), true).expect("dc-plane roundtrip");
    assert_eq!(plane.status, 200);
    assert_eq!(plane.header("content-type"), Some("image/x-portable-graymap"));
    // 64x48 → 8x6 blocks.
    assert_eq!(plane.body.get(..10), Some(&b"P5\n8 6\n255"[..]));
    assert!(plane.body.len() < full.body.len());

    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let metrics = client.get("/metrics").expect("metrics");
    let text = String::from_utf8_lossy(&metrics.body).into_owned();
    assert!(text.contains("serve.accepted"), "metrics: {text}");
    assert!(text.contains("serve.request_wall_us"), "metrics: {text}");

    let report = server.drain();
    let stats = report.stats.expect("runtime stats");
    assert_eq!(stats.completed, 2);
    assert_eq!(report.abandoned_connections, 0);
}

#[test]
fn rejects_bad_requests_without_dying() {
    let (server, client) = start("badreq");
    let addr = server.local_addr();

    // Not a JPEG: no SOI marker.
    let resp = client.recover(b"plain text", None, false).expect("non-jpeg send");
    assert_eq!(resp.status, 422);
    // Unknown deadline class.
    let resp = client.recover(&dropped_jpeg(16, 16), Some("warp-speed"), false).expect("class send");
    assert_eq!(resp.status, 400);
    // Unknown endpoint.
    assert_eq!(client.get("/nope").expect("404 get").status, 404);

    // Oversized payload is refused from the Content-Length alone — the
    // connection never uploads the body (MAX_DECODE_PIXELS-style guard).
    let (text, _) = raw_exchange(addr, b"POST /recover HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n");
    assert!(text.starts_with("HTTP/1.1 413"), "got: {text}");

    // Missing Content-Length entirely.
    let (text, _) = raw_exchange(addr, b"POST /recover HTTP/1.1\r\n\r\n");
    assert!(text.starts_with("HTTP/1.1 411"), "got: {text}");

    // Garbage request line.
    let (text, _) = raw_exchange(addr, b"NONSENSE\r\n\r\n");
    assert!(text.starts_with("HTTP/1.1 400"), "got: {text}");

    // After all that abuse the server still serves.
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    let report = server.drain();
    assert_eq!(report.stats.expect("stats").submitted, 0, "nothing reached the queue");
}

/// Framing the server cannot trust (RFC 9112 §6.1, §6.3) is a 400 that
/// closes the connection: nothing is read as a body, and nothing left on
/// the socket is read as a second request.
#[test]
fn untrustworthy_framing_is_a_400_that_closes_the_connection() {
    let (server, client) = start("framing");
    let addr = server.local_addr();
    let cases: [(&str, &[u8]); 3] = [
        (
            "duplicate content-length",
            b"POST /recover HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 3\r\n\r\nhello",
        ),
        (
            "signed content-length",
            b"POST /recover HTTP/1.1\r\ncontent-length: +5\r\n\r\nhello",
        ),
        (
            "chunked transfer coding",
            b"POST /recover HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        ),
    ];
    for (case, request) in cases {
        let (text, closed) = raw_exchange(addr, request);
        assert!(text.starts_with("HTTP/1.1 400"), "{case}: got {text}");
        assert!(text.contains("connection: close"), "{case}: got {text}");
        assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "{case}: got {text}");
        assert!(closed, "{case}: the server kept the connection open");
    }

    let metrics = String::from_utf8_lossy(&client.get("/metrics").expect("metrics").body).into_owned();
    assert!(metrics.contains("\"serve.bad_request\": 3"), "metrics: {metrics}");
    let report = server.drain();
    assert_eq!(report.stats.expect("stats").submitted, 0, "nothing reached the queue");
}

#[test]
fn truncated_body_drops_the_connection_only() {
    let (server, client) = start("truncated");

    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(b"POST /recover HTTP/1.1\r\ncontent-length: 4096\r\n\r\n\xFF\xD8just-a-stub")
        .expect("send partial body");
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut buf = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let _ = raw.read_to_end(&mut buf);
    // No response is owed for a request that never finished arriving.
    assert!(buf.is_empty(), "unexpected response: {:?}", String::from_utf8_lossy(&buf));

    // The failure was contained to that connection.
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    let metrics = String::from_utf8_lossy(&client.get("/metrics").expect("metrics").body).into_owned();
    assert!(metrics.contains("serve.disconnects"), "metrics: {metrics}");
    server.drain();
}

#[test]
fn client_disconnect_mid_response_is_survivable() {
    let (server, client) = start("disconnect");
    let jpeg = dropped_jpeg(32, 32);

    // Fire a valid request and slam the connection shut immediately.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let head = format!(
        "POST /recover HTTP/1.1\r\ncontent-length: {}\r\nx-deadline-class: bulk\r\n\r\n",
        jpeg.len()
    );
    raw.write_all(head.as_bytes()).expect("send head");
    raw.write_all(&jpeg).expect("send body");
    drop(raw);

    // The job still runs to completion; the server shrugs off the dead
    // socket and keeps serving.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = String::from_utf8_lossy(&client.get("/metrics").expect("metrics").body).into_owned();
        if metrics.contains("serve.completed") || metrics.contains("serve.disconnects") {
            break;
        }
        assert!(Instant::now() < deadline, "job never finished: {metrics}");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    let report = server.drain();
    assert_eq!(report.stats.expect("stats").submitted, 1);
}

#[test]
fn supplied_trace_id_links_server_side_spans_end_to_end() {
    // The full tentpole chain: a caller-supplied `traceparent` must (a) be
    // echoed back as `x-dcdiff-trace-id` with a Server-Timing breakdown and
    // (b) stamp every server-side span — queue wait, recovery, and the
    // diffusion sampler's per-DDIM-step spans — with the same trace id.
    // This is the only test in this binary that installs the process-wide
    // handle, which per-DDIM-step spans flow through.
    let tel = dcdiff_telemetry::Telemetry::builder().trace_to_vec().build();
    dcdiff_telemetry::install(tel.clone());
    let mut cfg = test_config("traceprop");
    cfg.method = RecoverMethod::Diffusion { ddim_steps: 2 };
    let server = Server::bind_with(cfg, tel.clone()).expect("bind loopback server");
    let client = Client::new(server.local_addr().to_string());

    let trace_id = "0af7651916cd43dd8448eb211c80319c";
    let traceparent = format!("00-{trace_id}-b7ad6b7169203331-01");
    let jpeg = dropped_jpeg(32, 32);
    let resp = client
        .recover_traced(&jpeg, Some("bulk"), &traceparent)
        .expect("traced roundtrip");
    assert_eq!(resp.status, 200, "body: {:?}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.header("x-dcdiff-trace-id"), Some(trace_id));
    let timing = resp.header("server-timing").expect("server-timing header");
    assert!(timing.contains("queue;dur="), "timing: {timing}");
    assert!(timing.contains("exec;dur="), "timing: {timing}");
    assert!(timing.contains("total;dur="), "timing: {timing}");

    server.drain();
    dcdiff_telemetry::install(dcdiff_telemetry::Telemetry::new());
    let text = tel.take_trace_vec().expect("in-memory trace");
    let traced: Vec<_> = text
        .lines()
        .filter_map(|l| dcdiff_telemetry::TraceEvent::parse_line(l).ok())
        .filter(|ev| ev.trace.as_deref() == Some(trace_id))
        .collect();
    let has = |name: &str| traced.iter().any(|ev| ev.name == name);
    assert!(has("serve.request"), "trace: {text}");
    assert!(has("queue.wait"), "trace: {text}");
    assert!(has("recover.estimate"), "trace: {text}");
    assert!(has("recover.ddim_step"), "trace: {text}");
    // Spans outside this request (acceptor reads, drain) never carry it.
    assert!(
        !text
            .lines()
            .filter(|l| l.contains("serve.drain"))
            .any(|l| l.contains(trace_id)),
        "drain span stole the request trace: {text}"
    );
}

/// The public port has no sleep knob: `x-ingest-stall-ms` is an ordinary
/// unknown header, so this request is answered long before 5 s pass.
#[test]
fn stall_header_does_not_park_the_worker() {
    let (server, _) = start("nostall");
    let jpeg = dropped_jpeg(16, 16);
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
    let head = format!(
        "POST /recover HTTP/1.1\r\ncontent-length: {}\r\nx-ingest-stall-ms: 5000\r\n\r\n",
        jpeg.len()
    );
    raw.write_all(head.as_bytes()).expect("send head");
    raw.write_all(&jpeg).expect("send body");
    let mut status = [0u8; 12];
    raw.read_exact(&mut status).expect("a response within 2 s");
    assert_eq!(&status, b"HTTP/1.1 200", "got: {}", String::from_utf8_lossy(&status));
    drop(raw);
    server.drain();
}

#[test]
fn default_ladder_class_series_resolve_in_the_name_registry() {
    // Every dynamic `serve.class.<c>.*` series the server can emit for the
    // default ladder must resolve against the telemetry name registry.
    use dcdiff_telemetry::names;
    for class in DeadlineClass::default_ladder() {
        let shed = names::class_shed_counter(&class.name);
        let admitted = names::class_admitted_counter(&class.name);
        assert!(names::is_registered(&shed), "{shed} not registered");
        assert!(names::is_registered(&admitted), "{admitted} not registered");
    }
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let (server, client) = start("keepalive");

    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    for _ in 0..3 {
        raw.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").expect("send");
        let mut buf = [0u8; 512];
        let mut got = Vec::new();
        // Read until the body 'ok\n' arrives (head + 3 bytes).
        while !got.ends_with(b"ok\n") {
            let n = raw.read(&mut buf).expect("read keep-alive response");
            assert!(n > 0, "connection closed between keep-alive requests");
            got.extend_from_slice(&buf[..n]);
        }
        let text = String::from_utf8_lossy(&got).into_owned();
        assert!(text.starts_with("HTTP/1.1 200"), "got: {text}");
        assert!(text.contains("connection: keep-alive"), "got: {text}");
    }
    drop(raw);
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    server.drain();
}

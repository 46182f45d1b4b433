//! End-to-end protocol tests for `dcdiff serve`: happy-path recovery,
//! content negotiation, admission control, fairness, drain, and the
//! untrusted-bytes edge cases (truncated bodies, oversized payloads,
//! malformed requests, abrupt disconnects).
//!
//! Every server binds `127.0.0.1:0` with its own spool directory, so the
//! tests run in parallel. Deterministic load is produced with the
//! `x-ingest-stall-ms` fault-injection header instead of timing guesses.

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
    start_with(test_config(tag))
}

/// Tests that install the process-wide telemetry handle must not overlap:
/// per-DDIM-step and cohort telemetry flow through the global handle, and a
/// concurrent install would siphon another test's spans into the wrong sink.
static GLOBAL_TELEMETRY: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn start_with(cfg: ServeConfig) -> (Server, Client) {
    let server = Server::bind(cfg).expect("bind loopback server");
    let client = Client::new(server.local_addr().to_string());
    (server, client)
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
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(b"POST /recover HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n")
        .expect("send oversized head");
    let mut buf = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let _ = raw.read_to_end(&mut buf);
    let text = String::from_utf8_lossy(&buf).into_owned();
    assert!(text.starts_with("HTTP/1.1 413"), "got: {text}");

    // Missing Content-Length entirely.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(b"POST /recover HTTP/1.1\r\n\r\n").expect("send bare head");
    let mut buf = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let _ = raw.read_to_end(&mut buf);
    let text = String::from_utf8_lossy(&buf).into_owned();
    assert!(text.starts_with("HTTP/1.1 411"), "got: {text}");

    // Garbage request line.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(b"NONSENSE\r\n\r\n").expect("send garbage");
    let mut buf = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let _ = raw.read_to_end(&mut buf);
    let text = String::from_utf8_lossy(&buf).into_owned();
    assert!(text.starts_with("HTTP/1.1 400"), "got: {text}");

    // After all that abuse the server still serves.
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
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

    // Fire a valid slow request and slam the connection shut immediately.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let head = format!(
        "POST /recover HTTP/1.1\r\ncontent-length: {}\r\nx-ingest-stall-ms: 300\r\nx-deadline-class: bulk\r\n\r\n",
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
fn fairness_cap_rejects_the_over_quota_client() {
    let mut cfg = test_config("fairness");
    cfg.per_client_inflight = 1;
    let (server, client) = start_with(cfg);
    let jpeg = dropped_jpeg(16, 16);

    // First request parks in ingest for 1.5 s, holding its fairness slot.
    let slow_client = client.clone();
    let slow_jpeg = jpeg.clone();
    let slow = std::thread::spawn(move || {
        slow_client.recover_opts(&slow_jpeg, Some("bulk"), false, Some(Duration::from_millis(1500)))
    });
    std::thread::sleep(Duration::from_millis(400));

    // Same peer IP, second connection: over the in-flight cap.
    let rejected = client.recover(&jpeg, Some("bulk"), false).expect("second request");
    assert_eq!(rejected.status, 429, "body: {:?}", String::from_utf8_lossy(&rejected.body));

    let first = slow.join().expect("slow thread").expect("slow roundtrip");
    assert_eq!(first.status, 200);

    // With the slot released, the same client is admitted again.
    let after = client.recover(&jpeg, Some("bulk"), false).expect("third request");
    assert_eq!(after.status, 200);

    let metrics = String::from_utf8_lossy(&client.get("/metrics").expect("metrics").body).into_owned();
    assert!(metrics.contains("serve.fairness_reject"), "metrics: {metrics}");
    server.drain();
}

#[test]
fn overload_sheds_bulk_before_interactive() {
    let mut cfg = test_config("shed");
    cfg.runtime.queue_cap = 4;
    cfg.per_client_inflight = 16;
    cfg.classes = DeadlineClass::default_ladder();
    let (server, client) = start_with(cfg);
    let jpeg = dropped_jpeg(16, 16);

    // Occupy the single worker, then pack the queue to depth 2 with
    // stalled bulk jobs (bulk admits while depth < ceil(0.5·4) = 2).
    let stall = Some(Duration::from_millis(1200));
    let mut in_flight = Vec::new();
    for _ in 0..3 {
        let c = client.clone();
        let j = jpeg.clone();
        in_flight.push(std::thread::spawn(move || {
            c.recover_opts(&j, Some("bulk"), false, Some(Duration::from_millis(1200)))
        }));
        // Serialise admissions so exactly one is executing and two queue.
        std::thread::sleep(Duration::from_millis(300));
    }

    // Queue depth is now 2: bulk is shed, interactive is still admitted.
    let shed = client.recover_opts(&jpeg, Some("bulk"), false, stall).expect("bulk send");
    assert_eq!(shed.status, 503, "body: {:?}", String::from_utf8_lossy(&shed.body));
    let vip = client.recover_opts(&jpeg, Some("interactive"), false, None);
    // The interactive request is *admitted* (not shed); depending on how
    // long it waited behind the stalled bulk jobs it either completed or
    // hit its own deadline — both are post-admission outcomes.
    let vip = vip.expect("interactive send");
    assert!(
        vip.status == 200 || vip.status == 504,
        "interactive was shed: {} {:?}",
        vip.status,
        String::from_utf8_lossy(&vip.body)
    );

    for t in in_flight {
        let resp = t.join().expect("bulk thread").expect("bulk roundtrip");
        assert_eq!(resp.status, 200, "admitted bulk jobs all complete");
    }

    let metrics = String::from_utf8_lossy(&client.get("/metrics").expect("metrics").body).into_owned();
    assert!(metrics.contains("serve.class.bulk.shed"), "metrics: {metrics}");
    assert!(metrics.contains("serve.class.bulk.admitted"), "metrics: {metrics}");
    server.drain();
}

#[test]
fn drain_completes_in_flight_and_refuses_new_work() {
    let (server, client) = start("drain");
    let jpeg = dropped_jpeg(32, 32);

    // One admitted request that will still be executing when drain starts.
    let slow_client = client.clone();
    let slow_jpeg = jpeg.clone();
    let in_flight = std::thread::spawn(move || {
        slow_client.recover_opts(&slow_jpeg, Some("bulk"), false, Some(Duration::from_millis(1000)))
    });
    std::thread::sleep(Duration::from_millis(300));

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
    let first = in_flight.join().expect("in-flight thread").expect("in-flight roundtrip");
    assert_eq!(first.status, 200, "drain lost an admitted response");

    let report = server.drain();
    let stats = report.stats.expect("stats");
    assert_eq!(stats.completed, 1);
    assert_eq!(report.abandoned_connections, 0);
}

#[test]
fn supplied_trace_id_links_server_side_spans_end_to_end() {
    // The full tentpole chain: a caller-supplied `traceparent` must (a) be
    // echoed back as `x-dcdiff-trace-id` with a Server-Timing breakdown and
    // (b) stamp every server-side span — queue wait, recovery, and the
    // diffusion sampler's per-DDIM-step spans — with the same trace id.
    let _global = GLOBAL_TELEMETRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let tel = dcdiff_telemetry::Telemetry::builder().trace_to_vec().build();
    // Per-DDIM-step spans flow through the process-wide handle.
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

#[test]
fn concurrent_diffusion_requests_fuse_into_one_cohort_with_linked_traces() {
    // Satellite of the cross-request DDIM batching tentpole: N concurrent
    // `--method diffusion` requests behind a stalled leader must (a) fuse
    // into one cohort — `diffusion.batch.width` observes more than one lane
    // per shared forward — and (b) keep distinct causal chains: every
    // request's trace id still links `serve.request` through `queue.wait`,
    // `recover.estimate` and its own per-DDIM-step spans.
    let _global = GLOBAL_TELEMETRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let tel = dcdiff_telemetry::Telemetry::builder().trace_to_vec().build();
    dcdiff_telemetry::install(tel.clone());
    let mut cfg = test_config("cohort");
    cfg.method = RecoverMethod::Diffusion { ddim_steps: 2 };
    cfg.runtime.batch_max = 8;
    let server = Server::bind_with(cfg, tel.clone()).expect("bind loopback server");
    let addr = server.local_addr().to_string();

    // The leader parks the lone worker in its ingest stall; the followers
    // queue behind it and are assembled into one micro-batch when the
    // worker next pops, then fused into a single DDIM cohort.
    let leader_addr = addr.clone();
    let leader = std::thread::spawn(move || {
        Client::new(leader_addr)
            .recover_opts(
                &dropped_jpeg(32, 32),
                Some("bulk"),
                false,
                Some(Duration::from_millis(600)),
            )
            .expect("leader roundtrip")
    });
    // Let the worker pop the leader before the burst arrives.
    std::thread::sleep(Duration::from_millis(150));
    let trace_ids: Vec<String> =
        (0..3u64).map(|i| format!("{:032x}", 0xc0_4042_7000 + i)).collect();
    let followers: Vec<_> = trace_ids
        .iter()
        .map(|tid| {
            let addr = addr.clone();
            let traceparent = format!("00-{tid}-00f067aa0ba902b7-01");
            std::thread::spawn(move || {
                Client::new(addr)
                    .recover_traced(&dropped_jpeg(32, 32), Some("bulk"), &traceparent)
                    .expect("follower roundtrip")
            })
        })
        .collect();

    let leader_resp = leader.join().expect("leader thread");
    assert_eq!(leader_resp.status, 200);
    for (tid, follower) in trace_ids.iter().zip(followers) {
        let resp = follower.join().expect("follower thread");
        assert_eq!(resp.status, 200, "body: {:?}", String::from_utf8_lossy(&resp.body));
        assert_eq!(resp.header("x-dcdiff-trace-id"), Some(tid.as_str()));
    }
    server.drain();
    dcdiff_telemetry::install(dcdiff_telemetry::Telemetry::new());

    // (a) the followers shared forwards: multi-lane widths were observed.
    let widths = tel.histogram("diffusion.batch.width").snapshot();
    assert!(widths.max >= 2, "no shared forward carried more than one lane: {widths:?}");
    assert!(tel.counter("diffusion.batch.cohorts").get() >= 1, "no cohort was formed");

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

#[test]
fn prometheus_exposition_windows_diverge_from_cumulative_after_burst() {
    let mut cfg = test_config("promwin");
    cfg.metrics_epoch = Duration::from_millis(50);
    cfg.metrics_windows = vec![Duration::from_millis(300)];
    let (server, client) = start_with(cfg);
    let jpeg = dropped_jpeg(16, 16);

    // Slow phase: requests whose ingest stall dominates the wall clock.
    // Three of them keep the fractional-rank p99 inside the slow bucket
    // even as later scrapes add fast `/metrics` samples to the histogram.
    for _ in 0..3 {
        let slow = client
            .recover_opts(&jpeg, Some("bulk"), false, Some(Duration::from_millis(400)))
            .expect("slow roundtrip");
        assert_eq!(slow.status, 200);
    }

    // Let the slow sample age out of the 300 ms window, then burst.
    std::thread::sleep(Duration::from_millis(450));
    for _ in 0..10 {
        let fast = client.recover(&jpeg, Some("bulk"), false).expect("fast roundtrip");
        assert_eq!(fast.status, 200);
    }

    // JSON stays the default exposition.
    let json = client.get("/metrics").expect("json metrics");
    assert_eq!(json.header("content-type"), Some("application/json"));

    // The windowed p99 must eventually cover only the fast burst while the
    // cumulative p99 still remembers the 600 ms outlier.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = client
            .get_with("/metrics", &[("accept", "text/plain")])
            .expect("prometheus metrics");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("text/plain; version=0.0.4"));
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        let samples = dcdiff_telemetry::prometheus::parse(&text).expect("exposition parses");
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
        // The slow request alone guarantees a large cumulative p99.
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
        std::thread::sleep(Duration::from_millis(60));
    }
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

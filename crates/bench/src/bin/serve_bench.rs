//! Open-loop arrival-rate benchmark of `dcdiff serve`: offered load is
//! swept upward and each level reports goodput, shed rate and whether the
//! p99 response latency stayed inside the interactive deadline class.
//!
//! Usage: `cargo run --release -p dcdiff-bench --bin serve_bench`
//!
//! Open loop means the sender does NOT wait for responses before issuing
//! the next request — arrivals are paced purely by the offered rate, like
//! a fleet of independent IoT senders. That makes overload visible as shed
//! responses (503) and deadline misses instead of the silent slowdown a
//! closed-loop client would show (coordinated omission).
//!
//! Load comes from compute alone: each request carries a DC-dropped 512x512
//! scene (dcbench's `serve_tip2006_512` shape) recovered with TIP-2006, so
//! the upper sweep levels overload a small host's workers.
//!
//! The headline number is `max_rps_p99_compliant`: the highest offered
//! load at which p99 latency of completed requests still met the 500 ms
//! interactive deadline. Writes `BENCH_serve.json` to the current
//! directory, alongside `BENCH_runtime.json`/`BENCH_kernels.json`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_image::Image;
use dcdiff_jpeg::{encode_coefficients, DcDropMode, JpegEncoder};
use dcdiff_runtime::{RecoverMethod, RuntimeConfig};
use dcdiff_serve::{Client, ServeConfig, Server};

const IMAGE_SIZE: usize = 512;
const SWEEP_SECS: f64 = 2.0;
const OFFERED_RPS: &[f64] = &[10.0, 25.0, 50.0, 100.0, 200.0];
const DEADLINE_MS: f64 = 500.0;

struct SweepResult {
    offered_rps: f64,
    sent: usize,
    completed: usize,
    shed: usize,
    failed: usize,
    goodput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    p99_compliant: bool,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

fn sweep(addr: &str, jpeg: Arc<Vec<u8>>, offered_rps: f64) -> SweepResult {
    let total = (offered_rps * SWEEP_SECS).round() as usize;
    let interval = Duration::from_secs_f64(1.0 / offered_rps);
    let client = Client::new(addr).with_timeout(Duration::from_secs(30));

    let started = Instant::now();
    let mut senders = Vec::with_capacity(total);
    for i in 0..total {
        // Open loop: pace by the schedule, never by responses.
        let due = started + interval.mul_f64(i as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let client = client.clone();
        let jpeg = Arc::clone(&jpeg);
        senders.push(std::thread::spawn(move || {
            let t0 = Instant::now();
            let status = client
                .recover(&jpeg, Some("interactive"), false)
                .map_or(0, |resp| resp.status);
            (status, t0.elapsed().as_secs_f64() * 1e3)
        }));
    }
    // (status, wall ms) per request; a sender that panicked counts as lost.
    let outcomes: Vec<(u16, f64)> = senders.into_iter().filter_map(|s| s.join().ok()).collect();
    let completed: Vec<f64> = outcomes
        .iter()
        .filter(|(status, _)| *status == 200)
        .map(|(_, ms)| *ms)
        .collect();
    let shed = outcomes
        .iter()
        .filter(|(status, _)| *status == 503 || *status == 429)
        .count();
    let failed = outcomes.len() - completed.len() - shed;
    let mut sorted = completed.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p99 = percentile(&sorted, 0.99);
    SweepResult {
        offered_rps,
        sent: total,
        completed: completed.len(),
        shed,
        failed,
        goodput_rps: completed.len() as f64 / started.elapsed().as_secs_f64(),
        p50_ms: percentile(&sorted, 0.50),
        p99_ms: p99,
        p99_compliant: !completed.is_empty() && p99 <= DEADLINE_MS,
    }
}

fn main() {
    // One DC-dropped natural scene as the canonical request payload.
    let image: Image = SceneGenerator::new(SceneKind::Natural, IMAGE_SIZE, IMAGE_SIZE).generate(7);
    let coeffs = JpegEncoder::new(50)
        .to_coefficients(&image)
        .drop_dc(DcDropMode::KeepCorners);
    let jpeg = Arc::new(encode_coefficients(&coeffs).expect("encode payload"));

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        // The sweep measures admission + queueing, not one client's quota.
        per_client_inflight: 4096,
        max_connections: 4096,
        method: RecoverMethod::Tip2006,
        ..ServeConfig::default()
    };
    cfg.spool_dir =
        std::env::temp_dir().join(format!("dcdiff-serve-bench-{}", std::process::id()));
    cfg.runtime = RuntimeConfig {
        workers: cores,
        queue_cap: 64,
        ..RuntimeConfig::default()
    };
    let server = Server::bind(cfg).expect("bind loopback server");
    let addr = server.local_addr().to_string();
    println!(
        "serve_bench: {IMAGE_SIZE}x{IMAGE_SIZE} dropped scene ({} bytes), {cores} worker(s), \
         interactive deadline {DEADLINE_MS} ms",
        jpeg.len()
    );

    let mut results = Vec::new();
    for &rps in OFFERED_RPS {
        let result = sweep(&addr, Arc::clone(&jpeg), rps);
        println!(
            "  offered {:6.0} rps: goodput {:6.1} rps  completed {:4}/{:>4}  shed {:4}  \
             p50 {:6.1} ms  p99 {:6.1} ms  {}",
            result.offered_rps,
            result.goodput_rps,
            result.completed,
            result.sent,
            result.shed,
            result.p50_ms,
            result.p99_ms,
            if result.p99_compliant { "p99 within deadline" } else { "p99 MISSED deadline" },
        );
        results.push(result);
    }
    let report = server.drain();

    let best_compliant = results
        .iter()
        .filter(|r| r.p99_compliant)
        .map(|r| r.goodput_rps)
        .fold(0.0f64, f64::max);
    println!("  max goodput at p99 deadline compliance: {best_compliant:.1} jobs/s");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"dcdiff-serve open-loop arrival sweep\",");
    let _ = writeln!(json, "  \"image_size\": \"{IMAGE_SIZE}x{IMAGE_SIZE}\",");
    let _ = writeln!(json, "  \"payload_bytes\": {},", jpeg.len());
    let _ = writeln!(json, "  \"method\": \"tip2006\",");
    let _ = writeln!(json, "  \"deadline_class\": \"interactive\",");
    let _ = writeln!(json, "  \"deadline_ms\": {DEADLINE_MS},");
    let _ = writeln!(json, "  \"sweep_secs\": {SWEEP_SECS},");
    let _ = writeln!(json, "  \"cpu_cores\": {cores},");
    let _ = writeln!(
        json,
        "  \"note\": \"open-loop senders pace by offered rate, not responses, so overload \
         shows up as shed (503) and deadline misses instead of coordinated omission; \
         max_rps_p99_compliant is the goodput ceiling with p99 latency inside the \
         interactive deadline\","
    );
    json.push_str("  \"sweeps\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"offered_rps\": {:.1}, \"sent\": {}, \"completed\": {}, \"shed\": {}, \
             \"failed\": {}, \"goodput_rps\": {:.2}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \
             \"p99_within_deadline\": {}}}{}",
            r.offered_rps,
            r.sent,
            r.completed,
            r.shed,
            r.failed,
            r.goodput_rps,
            r.p50_ms,
            r.p99_ms,
            r.p99_compliant,
            if i + 1 < results.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"max_rps_p99_compliant\": {best_compliant:.2},");
    if let Some(stats) = report.stats {
        let _ = writeln!(
            json,
            "  \"runtime_totals\": {{\"submitted\": {}, \"completed\": {}, \"failed\": {}, \
             \"rejected\": {}, \"deadline_missed\": {}}}",
            stats.submitted, stats.completed, stats.failed, stats.rejected, stats.deadline_missed
        );
    } else {
        json.push_str("  \"runtime_totals\": null\n");
    }
    json.push_str("}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}

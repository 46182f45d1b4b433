//! The metric catalogue, the statistics the benchmark reports, and the
//! result line the benchmark ends with.
//!
//! `END_TO_END` and `PER_LAYER` are the only place metric names and units
//! are spelled; `BENCHMARK.json` lists the same names (the unit test in
//! `main.rs` keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &[
    "serve_diffusion_64",
    "batch_tiles16_diffusion",
    "serve_tip2006_512",
    "sender_encode_512",
];

/// Metrics a user of the receiver sees, emitted with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ips", "images/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p75_ms", "ms"),
    ("slo_ok_ratio", "ratio"),
    ("psnr_db", "dB"),
    ("bpp", "bits/pixel"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of single layers, emitted with tracing on. A layer a workload
/// never executes reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.overhead_ms.p50", "ms"),
    ("serve.overhead_ms.p90", "ms"),
    ("serve.shed_ratio", "ratio"),
    ("runtime.queue_wait_ms.p50", "ms"),
    ("runtime.queue_wait_ms.p90", "ms"),
    ("runtime.exec_ms.p50", "ms"),
    ("runtime.lanes_per_forward", "lanes"),
    ("runtime.deadline_miss_ratio", "ratio"),
    ("jpeg.entropy_decode_ms", "ms"),
    ("jpeg.pixel_decode_ms", "ms"),
    ("jpeg.decode_mbps", "MB/s"),
    ("jpeg.fdct_quant_ms", "ms"),
    ("jpeg.drop_dc_ms", "ms"),
    ("jpeg.entropy_encode_ms", "ms"),
    ("diffusion.fmpp_ms", "ms"),
    ("diffusion.ddim_sample_ms", "ms"),
    ("nn.unet_forward_ms.w1", "ms"),
    ("nn.unet_forward_ms.w8", "ms"),
    ("nn.control_ms", "ms"),
    ("core.stage1_decode_ms", "ms"),
    ("core.projection_ms", "ms"),
    ("core.mld_refine_ms", "ms"),
    ("core.recover_ms.w1", "ms"),
    ("core.recover_ms.w8", "ms"),
    ("core.unattributed_share", "ratio"),
    ("tensor.mflop_per_forward", "MFLOP"),
    ("tensor.unet_gflops", "GFLOP/s"),
    ("baselines.tip2006_ms", "ms"),
    ("image.ppm_write_ms", "ms"),
    ("image.ppm_read_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, jobs or encodes), warm-up included.
    pub attempted: u64,
    /// Attempted operations that failed or produced a wrong output.
    pub failed: u64,
    /// Checks outside single operations that failed (cross-checks,
    /// degraded recoveries); any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Metric values by catalogue name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record `value` under the catalogue name `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The catalogue a run emits: end-to-end metrics untraced, per-layer traced.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One `metric<TAB>name<TAB>value<TAB>unit` line per catalogue entry, then
/// the result object as the final line. `--workload all` and `--repeat`
/// read the tab-separated lines back from their child processes.
pub fn render(outcome: &Outcome, trace: bool) -> String {
    let mut out = String::new();
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue(trace).iter().enumerate() {
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = writeln!(out, "metric\t{name}\t{value}\t{unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
    );
    out
}

/// Parse the `metric` lines of a child's standard output.
pub fn parse_metric_lines(stdout: &str) -> Vec<(String, f64, String)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut parts = line.split('\t');
            if parts.next() != Some("metric") {
                return None;
            }
            let name = parts.next()?.to_string();
            let value = parts.next()?.parse().ok()?;
            let unit = parts.next()?.to_string();
            Some((name, value, unit))
        })
        .collect()
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// First and third quartiles by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them, so spreads printed by
/// `--repeat` match that tool. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let at = |q: f64| {
        let pos = q * (n + 1.0);
        let j = (pos.floor() as usize).clamp(1, sorted.len() - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(0.25), at(0.75)))
}

/// Mean of samples; 0 when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(percentile(&v, 0.9), 9.0);
    }

    #[test]
    fn render_round_trips_through_the_metric_lines() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.set("setup_s", 0.25);
        let text = render(&outcome, false);
        let parsed = parse_metric_lines(&text);
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed[0], ("setup_s".to_string(), 0.25, "s".to_string()));
        let last = text.lines().last().expect("result line");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(last.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }
}

//! Named counters, gauges and log₂-bucketed latency histograms.
//!
//! All recording paths are lock-free atomics so submitters and workers never
//! contend; only registry lookups (get-or-create by name, done once per
//! handle) and the JSON export take a lock. Histogram quantiles interpolate
//! linearly inside the matching power-of-two bucket and clamp to the observed
//! min/max, so single-sample and all-equal distributions report exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::json::escape_into;
use crate::sync::{Mutex, Rank};

/// Monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Fresh unregistered counter (registry handles come from
    /// [`crate::Telemetry::counter`]).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins signed gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Fresh unregistered gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the value to at least `v` (high-water semantics).
    pub fn fetch_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `k ≥ 1` holds
/// values in `[2^(k-1), 2^k - 1]`, up to bucket 64 for the top of the `u64`
/// range.
pub const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Lock-free log₂-bucketed histogram of `u64` samples (latencies in
/// microseconds, batch sizes, ...).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }
}

/// Bucket index of a sample.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` value range of bucket `k` (see [`BUCKETS`]).
pub fn bucket_bounds(k: usize) -> (u64, u64) {
    if k == 0 {
        (0, 0)
    } else if k >= 64 {
        (1 << 63, u64::MAX)
    } else {
        (1 << (k - 1), (1 << k) - 1)
    }
}

impl Histogram {
    /// Fresh unregistered histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        let inner = &self.0;
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.min.fetch_min(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration in microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Approximate `p`-quantile (`p` in `[0, 1]`); `None` when empty.
    /// See [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, p: f64) -> Option<u64> {
        self.snapshot().quantile(p)
    }

    /// Point-in-time copy for consistent multi-quantile reads.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.0;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| inner.buckets[i].load(Ordering::Relaxed)),
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            min: inner.min.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`BUCKETS`]).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Approximate `p`-quantile (`p` clamped to `[0, 1]`); `None` when empty.
    ///
    /// Uses the fractional rank `p · (n − 1)`, interpolated linearly inside
    /// the bucket that contains it and clamped to the observed min/max — so
    /// an all-equal sample set reports its exact value at every `p`, and the
    /// worst-case error elsewhere is one power-of-two bucket width.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            return Some(self.min);
        }
        if p == 1.0 {
            return Some(self.max);
        }
        let target = p * (self.count - 1) as f64;
        let mut cum = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if target < (cum + c) as f64 {
                let (lo, hi) = bucket_bounds(k);
                let pos = (target - cum as f64) / c as f64;
                let value = lo as f64 + pos * (hi - lo) as f64;
                return Some((value as u64).clamp(self.min, self.max));
            }
            cum += c;
        }
        Some(self.max)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The samples recorded between `earlier` and `self` (two snapshots of
    /// the same histogram, `earlier` taken first) as a standalone snapshot —
    /// the primitive behind rolling-window quantiles.
    ///
    /// Bucket counts, `count` and `sum` subtract exactly. `min`/`max` are
    /// not recoverable from cumulative extrema, so they are approximated
    /// from the bounds of the lowest/highest bucket that gained samples,
    /// clamped into the cumulative `[min, max]` range; quantiles of the
    /// delta therefore stay within one power-of-two bucket of the truth,
    /// same as the cumulative guarantee.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i]));
        let mut min = u64::MAX;
        let mut max = 0u64;
        for (k, &c) in buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = bucket_bounds(k);
            if min == u64::MAX {
                min = lo.max(self.min);
            }
            max = hi.min(self.max).max(lo);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min,
            max,
        }
    }
}

/// Point-in-time plain-data copy of an entire [`Registry`], the unit the
/// rolling-window machinery ([`crate::windows`]) stores per epoch and the
/// Prometheus renderer ([`crate::prometheus`]) reads.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Value of the counter named `name` (0 if it was never created).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of the gauge named `name` (0 if it was never created).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of the histogram named `name` (empty if it was never
    /// created).
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(name).cloned().unwrap_or_else(|| Histogram::new().snapshot())
    }
}

/// Name-keyed registry of counters, gauges and histograms.
///
/// Series are created through [`crate::Telemetry`]'s [`crate::Name`]-typed
/// methods, which get-or-create by name and hand back a cloneable handle
/// sharing the underlying atomics, so hot paths resolve their metrics once
/// and never touch the registry lock again. Outside this crate the
/// registry is read-only ([`Registry::snapshot`], [`Registry::to_json`]).
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            counters: Mutex::new(Rank::Registry, BTreeMap::new()),
            gauges: Mutex::new(Rank::Registry, BTreeMap::new()),
            histograms: Mutex::new(Rank::Registry, BTreeMap::new()),
        }
    }
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter registered under `name`, creating it on first use.
    pub(crate) fn counter(&self, name: &str) -> Counter {
        self.counters.lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge registered under `name`, creating it on first use.
    pub(crate) fn gauge(&self, name: &str) -> Gauge {
        self.gauges.lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram registered under `name`, creating it on first use.
    pub(crate) fn histogram(&self, name: &str) -> Histogram {
        self.histograms.lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Point-in-time copy of every registered metric. Each section is read
    /// under its own lock, so the snapshot is per-metric consistent (the
    /// same relaxed-atomics guarantee recording itself gives).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self.gauges.lock().iter().map(|(name, g)| (name.clone(), g.get())).collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        RegistrySnapshot { counters, gauges, histograms }
    }

    /// Export everything as one pretty-printed JSON object with `counters`,
    /// `gauges` and `histograms` sections; histograms carry count/sum/
    /// min/max, p50/p90/p99 and their non-empty `[lo, hi, count]` buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let counters = self.counters.lock();
        for (i, (name, c)) in counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            escape_into(&mut out, name);
            let _ = write!(out, ": {}", c.get());
        }
        if !counters.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        drop(counters);
        out.push_str("},\n  \"gauges\": {");
        let gauges = self.gauges.lock();
        for (i, (name, g)) in gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            escape_into(&mut out, name);
            let _ = write!(out, ": {}", g.get());
        }
        if !gauges.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        drop(gauges);
        out.push_str("},\n  \"histograms\": {");
        let histograms = self.histograms.lock();
        for (i, (name, h)) in histograms.iter().enumerate() {
            let snap = h.snapshot();
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            escape_into(&mut out, name);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                snap.count,
                snap.sum,
                if snap.count == 0 { 0 } else { snap.min },
                snap.max,
                snap.quantile(0.50).unwrap_or(0),
                snap.quantile(0.90).unwrap_or(0),
                snap.quantile(0.99).unwrap_or(0),
            );
            let mut first = true;
            for (k, &c) in snap.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let (lo, hi) = bucket_bounds(k);
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(out, "[{lo}, {hi}, {c}]");
            }
            out.push_str("]}");
        }
        if !histograms.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        drop(histograms);
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 255, 256, u64::MAX] {
            let k = bucket_index(v);
            let (lo, hi) = bucket_bounds(k);
            assert!(v >= lo && v <= hi, "{v} outside [{lo}, {hi}] of bucket {k}");
        }
    }

    #[test]
    fn registry_handles_share_state() {
        let reg = Registry::new();
        reg.counter("a").inc();
        reg.counter("a").add(2);
        assert_eq!(reg.counter("a").get(), 3);
        reg.gauge("g").set(-5);
        assert_eq!(reg.gauge("g").get(), -5);
        reg.histogram("h").record(7);
        assert_eq!(reg.histogram("h").count(), 1);
    }

    #[test]
    fn delta_since_isolates_window_samples() {
        let h = Histogram::new();
        for v in [10u64, 12, 11] {
            h.record(v);
        }
        let earlier = h.snapshot();
        for v in [5000u64, 6000, 7000, 8000] {
            h.record(v);
        }
        let delta = h.snapshot().delta_since(&earlier);
        assert_eq!(delta.count, 4);
        assert_eq!(delta.sum, 26_000);
        // Window quantiles reflect only the burst, not the earlier samples.
        assert!(delta.quantile(0.5).unwrap() >= 4096, "{:?}", delta.quantile(0.5));
        assert!(delta.min >= 4096 && delta.max <= 8191);
        // An empty delta behaves like an empty histogram.
        let same = h.snapshot().delta_since(&h.snapshot());
        assert_eq!(same.count, 0);
        assert_eq!(same.quantile(0.99), None);
    }

    #[test]
    fn registry_snapshot_copies_all_sections() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        reg.gauge("g").set(-2);
        reg.histogram("h").record(100);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("c"), Some(&3));
        assert_eq!(snap.gauges.get("g"), Some(&-2));
        assert_eq!(snap.histograms.get("h").map(|h| h.count), Some(1));
        // The snapshot is detached from later recording.
        reg.counter("c").inc();
        assert_eq!(snap.counters.get("c"), Some(&3));
    }

    #[test]
    fn json_export_is_flat_parseable_per_section() {
        let reg = Registry::new();
        reg.counter("jobs.completed").add(4);
        reg.gauge("queue.depth").set(2);
        reg.histogram("wait_us").record(100);
        let json = reg.to_json();
        assert!(json.contains("\"jobs.completed\": 4"));
        assert!(json.contains("\"queue.depth\": 2"));
        assert!(json.contains("\"wait_us\""));
        assert!(json.contains("\"p50\": 100"));
    }

    #[test]
    fn json_export_parses_as_one_document() {
        let reg = Registry::new();
        reg.counter("jobs.completed").add(4);
        reg.gauge("queue.depth").set(2);
        reg.histogram("wait_us").record(100);
        let doc = crate::json::parse(&reg.to_json()).unwrap();
        let read = |section: &str, name: &str| doc.get(section).and_then(|s| s.get(name)).cloned();
        assert_eq!(
            read("counters", "jobs.completed").and_then(|v| v.as_u64()),
            Some(4)
        );
        assert_eq!(
            read("gauges", "queue.depth").and_then(|v| v.as_u64()),
            Some(2)
        );
        let wait = read("histograms", "wait_us").unwrap();
        for (field, want) in [
            ("count", 1),
            ("sum", 100),
            ("min", 100),
            ("max", 100),
            ("p50", 100),
        ] {
            assert_eq!(
                wait.get(field).and_then(|v| v.as_u64()),
                Some(want),
                "{field}"
            );
        }
    }
}

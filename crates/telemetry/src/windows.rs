//! Rolling-window metric views built from periodic registry snapshots.
//!
//! Cumulative-since-start counters and histograms answer "what happened
//! ever"; operators ask "what is happening *now*". Rather than adding a
//! second, time-aware recording path to the lock-free hot path, a ticker
//! (the server's, or any caller of [`WindowedMetrics::tick`]) takes one
//! [`RegistrySnapshot`] per epoch and keeps them in a bounded ring. A
//! window view is then pure arithmetic over two snapshots:
//!
//! * counter **rate** = `(newest − baseline) / elapsed` per second;
//! * windowed **histogram** = bucket-wise difference
//!   ([`HistogramSnapshot::delta_since`]), giving true windowed quantiles
//!   (p99 over the last 10 s, not since process start);
//! * gauges are instantaneous by nature and pass through unchanged.
//!
//! The baseline for a window of length `w` is the newest snapshot at least
//! `w` old; early in life (ring shorter than `w`) the oldest snapshot
//! serves, and the view reports the span it actually covers. Recording
//! paths are untouched — windows cost one registry walk per epoch, off the
//! request path.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::metrics::{HistogramSnapshot, Registry, RegistrySnapshot};
use crate::sync::{Mutex, Rank};

/// One stored epoch: when it was taken and what the registry held.
#[derive(Debug, Clone)]
struct Epoch {
    at: Instant,
    snapshot: RegistrySnapshot,
}

/// Ring of periodic registry snapshots serving rolling-window views.
#[derive(Debug)]
pub struct WindowedMetrics {
    windows: Vec<Duration>,
    /// Oldest-first ring, bounded to cover the longest window plus slack.
    ring: Mutex<VecDeque<Epoch>>,
    capacity: usize,
}

impl WindowedMetrics {
    /// Windows of the given lengths, fed by one snapshot per `epoch` tick.
    /// Capacity is sized so the longest window always has a baseline even
    /// with jittery tickers; both inputs are clamped to sane minimums.
    pub fn new(epoch: Duration, windows: &[Duration]) -> Self {
        let epoch = epoch.max(Duration::from_millis(1));
        let mut ws: Vec<Duration> = windows
            .iter()
            .copied()
            .filter(|w| !w.is_zero())
            .collect();
        ws.sort();
        ws.dedup();
        let longest = ws.last().copied().unwrap_or(epoch);
        let capacity = (longest.as_secs_f64() / epoch.as_secs_f64()).ceil() as usize + 2;
        WindowedMetrics {
            windows: ws,
            ring: Mutex::new(Rank::MetricsWindows, VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// The configured window lengths, shortest first.
    pub fn windows(&self) -> &[Duration] {
        &self.windows
    }

    /// Take one snapshot of `registry` now and append it to the ring,
    /// evicting the oldest epoch when full.
    pub fn tick(&self, registry: &Registry) {
        let epoch = Epoch {
            at: Instant::now(),
            snapshot: registry.snapshot(),
        };
        let mut ring = self.ring.lock();
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(epoch);
    }

    /// The rolling view over the newest snapshots spanning `window`, or
    /// `None` before two epochs exist (no interval to difference yet).
    pub fn view(&self, window: Duration) -> Option<WindowView> {
        let ring = self.ring.lock();
        let newest = ring.back()?;
        // Newest snapshot at least `window` old; else the oldest we have.
        let baseline = ring
            .iter()
            .rev()
            .find(|e| newest.at.duration_since(e.at) >= window)
            .or_else(|| ring.front())?;
        let span = newest.at.duration_since(baseline.at);
        if span.is_zero() {
            return None;
        }
        let secs = span.as_secs_f64();
        let counter_rates = newest
            .snapshot
            .counters
            .iter()
            .map(|(name, &value)| {
                let before = baseline.snapshot.counter(name);
                (name.clone(), value.saturating_sub(before) as f64 / secs)
            })
            .collect();
        let histograms = newest
            .snapshot
            .histograms
            .iter()
            .map(|(name, snap)| {
                let delta = match baseline.snapshot.histograms.get(name) {
                    Some(before) => snap.delta_since(before),
                    None => snap.clone(),
                };
                (name.clone(), delta)
            })
            .collect();
        Some(WindowView {
            window,
            span,
            counter_rates,
            histograms,
        })
    }

    /// One view per configured window (windows without data yet omitted).
    pub fn views(&self) -> Vec<WindowView> {
        self.windows
            .iter()
            .filter_map(|&w| self.view(w))
            .collect()
    }
}

/// Rolling-window computation over two registry snapshots.
#[derive(Debug, Clone)]
pub struct WindowView {
    /// The requested window length.
    pub window: Duration,
    /// The interval the view actually covers (≤ `window` early in life).
    pub span: Duration,
    /// Per-second increase of each counter over the span.
    pub counter_rates: std::collections::BTreeMap<String, f64>,
    /// Samples recorded during the span, as standalone histograms (windowed
    /// quantiles via [`HistogramSnapshot::quantile`]).
    pub histograms: std::collections::BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_quantiles_cover_only_the_window() {
        let reg = Registry::new();
        let wm = WindowedMetrics::new(Duration::from_millis(10), &[Duration::from_millis(30)]);

        // Slow phase: small latencies.
        for _ in 0..20 {
            reg.histogram("lat_us").record(100);
        }
        reg.counter("reqs").add(20);
        wm.tick(&reg);
        std::thread::sleep(Duration::from_millis(5));

        // Burst phase: much larger latencies after the first epoch.
        for _ in 0..50 {
            reg.histogram("lat_us").record(50_000);
        }
        reg.counter("reqs").add(50);
        std::thread::sleep(Duration::from_millis(5));
        wm.tick(&reg);

        let view = wm.view(Duration::from_millis(30)).expect("two epochs");
        assert!(view.span >= Duration::from_millis(5));
        // Only the burst is inside the window...
        let lat = &view.histograms["lat_us"];
        assert_eq!(lat.count, 50);
        assert!(lat.quantile(0.5).unwrap() > 10_000);
        // ...while the cumulative histogram still sees both phases.
        assert_eq!(reg.histogram("lat_us").count(), 70);
        let rate = view.counter_rates["reqs"];
        assert!(rate > 0.0, "rate {rate}");
    }

    #[test]
    fn view_needs_two_epochs_and_ring_stays_bounded() {
        let reg = Registry::new();
        let wm = WindowedMetrics::new(Duration::from_millis(1), &[Duration::from_millis(4)]);
        assert!(wm.view(Duration::from_millis(4)).is_none());
        wm.tick(&reg);
        assert!(wm.view(Duration::from_millis(4)).is_none(), "one epoch has no interval");
        for _ in 0..50 {
            std::thread::sleep(Duration::from_millis(1));
            wm.tick(&reg);
        }
        let ring_len = wm.ring.lock().len();
        assert!(ring_len <= wm.capacity, "{ring_len} > {}", wm.capacity);
        assert!(wm.view(Duration::from_millis(4)).is_some());
        assert_eq!(wm.views().len(), 1);
    }

    #[test]
    fn counters_new_in_the_window_rate_from_zero() {
        let reg = Registry::new();
        let wm = WindowedMetrics::new(Duration::from_millis(1), &[Duration::from_millis(10)]);
        wm.tick(&reg);
        std::thread::sleep(Duration::from_millis(2));
        reg.counter("late").add(8);
        reg.histogram("late_us").record(7);
        wm.tick(&reg);
        let view = wm.view(Duration::from_millis(10)).unwrap();
        assert!(view.counter_rates["late"] > 0.0);
        assert_eq!(view.histograms["late_us"].count, 1);
    }
}

//! Bench-side span recorder for traced runs.
//!
//! Spans are recorded around the benchmark's own calls into each layer, so
//! no crate under test is instrumented. They stay in memory until the run
//! ends and are then written as JSONL, one span per line: name, start and
//! end in microseconds since the recorder's epoch, the parent span and the
//! request (operation) the span belongs to. Spans of one request share its
//! request id; a span's self time is its duration minus the part of it its
//! children cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within its recorder.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// The request or probe repetition the span belongs to.
    pub request: u64,
    /// Layer name, e.g. `nn.unet_forward`.
    pub name: &'static str,
    /// Start of the interval.
    pub start: Instant,
    /// End of the interval.
    pub end: Instant,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// In-memory span store. One per thread; merge them with [`Recorder::absorb`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose JSONL timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Reserve an id for a span whose children are recorded before it.
    pub fn reserve_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a span under a previously reserved id.
    pub fn record_reserved(
        &mut self,
        id: u64,
        parent: Option<u64>,
        request: u64,
        name: &'static str,
        (start, end): (Instant, Instant),
    ) {
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end,
        });
    }

    /// Record a span with a fresh id and return that id.
    pub fn record_interval(
        &mut self,
        parent: Option<u64>,
        request: u64,
        name: &'static str,
        interval: (Instant, Instant),
    ) -> u64 {
        let id = self.reserve_id();
        self.record_reserved(id, parent, request, name, interval);
        id
    }

    /// Time `f` as a span and return its result.
    pub fn timed<R>(
        &mut self,
        parent: Option<u64>,
        request: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record_interval(parent, request, name, (start, Instant::now()));
        out
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time (ms) of every span called `name`: its duration minus the
    /// union of its children's intervals.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|parent| {
                let mut children: Vec<(Instant, Instant)> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(parent.id))
                    .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
                    .filter(|(s, e)| s < e)
                    .collect();
                children.sort();
                let mut covered = 0.0;
                let mut reach: Option<Instant> = None;
                for (s, e) in children {
                    let s = reach.map_or(s, |r| s.max(r));
                    if e > s {
                        covered += (e - s).as_secs_f64() * 1e3;
                    }
                    reach = Some(reach.map_or(e, |r| r.max(e)));
                }
                parent.ms() - covered
            })
            .collect()
    }

    /// Move every span of `other` into `self`, renumbering ids so they stay
    /// unique.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.next_id;
        for mut span in other.spans {
            span.id += offset;
            span.parent = span.parent.map(|p| p + offset);
            self.spans.push(span);
        }
        self.next_id += other.next_id;
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_micros();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_us\": {}, \"end_us\": {}}}",
                s.id,
                s.request,
                s.name,
                us(s.start),
                us(s.end)
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut rec = Recorder::new(t0);
        let parent = rec.reserve_id();
        // Overlapping children [1, 4) and [3, 6) cover 5 ms of a 10 ms parent.
        rec.record_interval(Some(parent), 0, "child", (at(1), at(4)));
        rec.record_interval(Some(parent), 0, "child", (at(3), at(6)));
        rec.record_reserved(parent, None, 0, "parent", (at(0), at(10)));
        let self_ms = rec.self_times_ms("parent");
        assert_eq!(self_ms.len(), 1);
        assert!((self_ms[0] - 5.0).abs() < 1e-9);

        let mut merged = Recorder::new(t0);
        merged.record_interval(None, 1, "other", (at(0), at(1)));
        merged.absorb(rec);
        assert_eq!(merged.span_count(), 4);
        assert_eq!(merged.self_times_ms("parent"), self_ms);
    }
}

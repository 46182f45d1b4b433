//! Offline aggregation of a JSONL trace — the engine behind `dcdiff report`.
//!
//! Rebuilds spans from begin/end/complete events, checks the pairing is
//! well-formed, aggregates durations per span name (count, total, mean,
//! p50/p99/max via the shared log₂ [`Histogram`]), and measures how much of
//! the trace's wall time the root spans cover (merged-interval union, so
//! overlapping spans from parallel workers are not double-counted).

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;

use crate::metrics::Histogram;
use crate::trace::{EventKind, TraceEvent};

/// Aggregated statistics for one span name.
#[derive(Debug)]
pub struct SpanStats {
    /// Completed spans with this name.
    pub count: u64,
    /// Sum of durations in microseconds.
    pub total_us: u64,
    /// Duration histogram (for quantiles).
    pub histogram: Histogram,
    /// How many of these spans are roots (no parent).
    pub roots: u64,
}

/// A parsed, aggregated trace.
#[derive(Debug)]
pub struct TraceReport {
    /// Per-name statistics, sorted by name.
    pub spans: BTreeMap<String, SpanStats>,
    /// Completed span intervals of root spans: `(start_us, end_us)`.
    root_intervals: Vec<(u64, u64)>,
    /// Earliest event timestamp.
    pub first_us: u64,
    /// Latest event end timestamp.
    pub last_us: u64,
    /// Distinct thread indices seen.
    pub threads: usize,
    /// Spans left open at end of trace (e.g. an aborted run).
    pub unclosed: u64,
    /// Total events parsed.
    pub events: u64,
}

/// Fold one completed span into the per-name stats and root intervals.
///
/// # Errors
///
/// A span that ends past `u64::MAX` µs is malformed: no clock gets there.
fn record(
    spans: &mut BTreeMap<String, SpanStats>,
    root_intervals: &mut Vec<(u64, u64)>,
    name: &str,
    parent: u64,
    start: u64,
    dur: u64,
) -> Result<(), String> {
    let end = start
        .checked_add(dur)
        .ok_or_else(|| format!("span {name:?} ends past u64::MAX µs"))?;
    let stats = spans.entry(name.to_string()).or_insert_with(|| SpanStats {
        count: 0,
        total_us: 0,
        histogram: Histogram::new(),
        roots: 0,
    });
    stats.count += 1;
    stats.total_us = stats.total_us.saturating_add(dur);
    stats.histogram.record(dur);
    if parent == 0 {
        stats.roots += 1;
        root_intervals.push((start, end));
    }
    Ok(())
}

impl std::str::FromStr for TraceReport {
    type Err = String;

    /// Parse and aggregate a JSONL trace.
    ///
    /// # Errors
    ///
    /// Returns `line N: <reason>` for a malformed line, an end event whose
    /// id was never begun, a duplicated span id, or a span that ends past
    /// `u64::MAX` µs.
    fn from_str(text: &str) -> Result<TraceReport, String> {
        TraceReport::from_texts(&[text])
    }
}

impl TraceReport {
    /// Parse and aggregate one or more JSONL traces into a single report
    /// (`dcdiff report a.jsonl b.jsonl …`).
    ///
    /// Each file keeps its own span-id space and open-span pairing (ids
    /// restart per run, so they must not collide across files). Timestamps
    /// of the first file pass through unchanged — a one-element call is
    /// identical to [`std::str::FromStr`] — and every later file is laid
    /// end-to-end after the previous one (`t − file_first + merged_last`),
    /// so wall time and root coverage aggregate sensibly across runs that
    /// each started their clock at zero.
    ///
    /// # Errors
    ///
    /// Same per-line errors as single-file parsing, prefixed with
    /// `file N: ` when more than one text is given; an empty file set or a
    /// set with no events at all is an error.
    pub fn from_texts(texts: &[&str]) -> Result<TraceReport, String> {
        let mut spans: BTreeMap<String, SpanStats> = BTreeMap::new();
        let mut root_intervals: Vec<(u64, u64)> = Vec::new();
        let mut threads = std::collections::BTreeSet::new();
        let mut first_us = u64::MAX;
        let mut last_us = 0u64;
        let mut events = 0u64;
        let mut unclosed = 0u64;

        for (f, text) in texts.iter().enumerate() {
            let fail = |i: usize, reason: String| {
                if texts.len() > 1 {
                    format!("file {}: line {}: {reason}", f + 1, i + 1)
                } else {
                    format!("line {}: {reason}", i + 1)
                }
            };
            let mut parsed: Vec<TraceEvent> = Vec::new();
            let mut lines: Vec<usize> = Vec::new();
            for (i, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                parsed.push(TraceEvent::parse_line(line).map_err(|e| fail(i, e))?);
                lines.push(i);
            }
            // Lay this file after everything merged so far; the first file
            // keeps its native timeline.
            let file_first = parsed.iter().map(|e| e.t_us).min().unwrap_or(0);
            let rebase = |t: u64| {
                if f == 0 {
                    t
                } else {
                    t.saturating_sub(file_first).saturating_add(last_us)
                }
            };

            let mut open: HashMap<u64, TraceEvent> = HashMap::new();
            let mut file_last = last_us;
            for (ev, &i) in parsed.into_iter().zip(&lines) {
                events += 1;
                let t_us = rebase(ev.t_us);
                first_us = first_us.min(t_us);
                // An end event's `t_us` already is the span's end; begin and
                // complete events extend by their (possibly zero) duration.
                let end = match ev.kind {
                    EventKind::End => t_us,
                    EventKind::Begin | EventKind::Complete => t_us.saturating_add(ev.dur_us),
                };
                file_last = file_last.max(end);
                match ev.kind {
                    EventKind::Begin => {
                        threads.insert(ev.thread);
                        if open.insert(ev.id, ev).is_some() {
                            return Err(fail(i, "duplicate span id".to_string()));
                        }
                    }
                    EventKind::End => {
                        let begin = open.remove(&ev.id).ok_or_else(|| {
                            fail(i, format!("end event for unknown span id {}", ev.id))
                        })?;
                        let name = if ev.name.is_empty() { &begin.name } else { &ev.name };
                        record(
                            &mut spans,
                            &mut root_intervals,
                            name,
                            begin.parent,
                            rebase(begin.t_us),
                            ev.dur_us,
                        )
                        .map_err(|e| fail(i, e))?;
                    }
                    EventKind::Complete => {
                        threads.insert(ev.thread);
                        record(
                            &mut spans,
                            &mut root_intervals,
                            &ev.name,
                            ev.parent,
                            t_us,
                            ev.dur_us,
                        )
                        .map_err(|e| fail(i, e))?;
                    }
                }
            }
            unclosed += open.len() as u64;
            last_us = file_last;
        }
        if events == 0 {
            return Err("trace contains no events".to_string());
        }
        Ok(TraceReport {
            spans,
            root_intervals,
            first_us,
            last_us,
            threads: threads.len(),
            unclosed,
            events,
        })
    }
    /// Trace wall time: first event to last event end, in microseconds.
    pub fn wall_us(&self) -> u64 {
        self.last_us.saturating_sub(self.first_us)
    }

    /// Microseconds of wall time covered by at least one root span
    /// (merged-interval union, immune to double counting by parallel
    /// workers).
    pub fn covered_us(&self) -> u64 {
        let mut intervals = self.root_intervals.clone();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut current: Option<(u64, u64)> = None;
        for (start, end) in intervals {
            match &mut current {
                Some((_, cur_end)) if start <= *cur_end => *cur_end = (*cur_end).max(end),
                _ => {
                    if let Some((s, e)) = current.take() {
                        covered += e - s;
                    }
                    current = Some((start, end));
                }
            }
        }
        if let Some((s, e)) = current {
            covered += e - s;
        }
        covered
    }

    /// Fraction of the trace wall time covered by root spans, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        let wall = self.wall_us();
        if wall == 0 {
            return 1.0;
        }
        self.covered_us() as f64 / wall as f64
    }

    /// Total completed spans.
    pub fn span_count(&self) -> u64 {
        self.spans.values().map(|s| s.count).sum()
    }

    /// Render the human-readable per-span breakdown and histogram table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events, {} spans, {} thread(s), wall {:.1} ms",
            self.events,
            self.span_count(),
            self.threads,
            self.wall_us() as f64 / 1e3,
        );
        let _ = writeln!(
            out,
            "root spans cover {:.1} ms ({:.1}% of wall)",
            self.covered_us() as f64 / 1e3,
            100.0 * self.coverage(),
        );
        if self.unclosed > 0 {
            let _ = writeln!(out, "warning: {} span(s) never closed", self.unclosed);
        }
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6}",
            "span", "count", "total ms", "mean ms", "min ms", "p50 ms", "p99 ms", "max ms", "wall%"
        );
        // Largest total first: the breakdown reads as "where did time go".
        let mut names: Vec<&String> = self.spans.keys().collect();
        names.sort_by_key(|n| std::cmp::Reverse(self.spans[*n].total_us));
        let wall = self.wall_us().max(1);
        let mut unregistered = Vec::new();
        for name in names {
            let s = &self.spans[name];
            let snap = s.histogram.snapshot();
            let known = crate::names::is_registered(name);
            if !known {
                unregistered.push(name.clone());
            }
            let _ = writeln!(
                out,
                "{:<24} {:>7} {:>10.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>5.1}%{}",
                name,
                s.count,
                s.total_us as f64 / 1e3,
                snap.mean() / 1e3,
                if snap.count == 0 { 0.0 } else { snap.min as f64 / 1e3 },
                snap.quantile(0.50).unwrap_or(0) as f64 / 1e3,
                snap.quantile(0.99).unwrap_or(0) as f64 / 1e3,
                snap.max as f64 / 1e3,
                100.0 * s.total_us as f64 / wall as f64,
                if known { "" } else { "  (?)" },
            );
        }
        if !unregistered.is_empty() {
            let _ = writeln!(
                out,
                "warning: {} span name(s) not in the telemetry registry \
                 (dcdiff_telemetry::names) — dashboards keyed on registered \
                 names will not see them: {}",
                unregistered.len(),
                unregistered.join(", "),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::str::FromStr as _;

    use super::*;

    fn line(s: &str) -> String {
        s.to_string()
    }

    #[test]
    fn aggregates_nested_and_complete_spans() {
        let trace = [
            line(r#"{"ev":"B","id":1,"parent":0,"name":"batch.exec","thread":1,"t_us":0}"#),
            line(r#"{"ev":"B","id":2,"parent":1,"name":"job.recover","thread":1,"t_us":10}"#),
            line(r#"{"ev":"E","id":2,"name":"job.recover","t_us":60,"dur_us":50}"#),
            line(r#"{"ev":"E","id":1,"name":"batch.exec","t_us":100,"dur_us":100}"#),
            line(r#"{"ev":"X","id":3,"parent":0,"name":"queue.wait","thread":2,"t_us":100,"dur_us":40}"#),
        ]
        .join("\n");
        let report = TraceReport::from_str(&trace).unwrap();
        assert_eq!(report.span_count(), 3);
        assert_eq!(report.threads, 2);
        assert_eq!(report.unclosed, 0);
        assert_eq!(report.wall_us(), 140);
        // Roots: batch.exec [0,100] + queue.wait [100,140] -> full coverage.
        assert_eq!(report.covered_us(), 140);
        assert!((report.coverage() - 1.0).abs() < 1e-9);
        // job.recover is nested, so it is not part of root coverage.
        assert_eq!(report.spans["job.recover"].roots, 0);
        let rendered = report.render();
        assert!(rendered.contains("batch.exec"));
        assert!(rendered.contains("queue.wait"));
    }

    #[test]
    fn overlapping_roots_are_not_double_counted() {
        let trace = [
            line(r#"{"ev":"X","id":1,"parent":0,"name":"a","thread":1,"t_us":0,"dur_us":100}"#),
            line(r#"{"ev":"X","id":2,"parent":0,"name":"a","thread":2,"t_us":50,"dur_us":100}"#),
        ]
        .join("\n");
        let report = TraceReport::from_str(&trace).unwrap();
        assert_eq!(report.wall_us(), 150);
        assert_eq!(report.covered_us(), 150);
    }

    #[test]
    fn rejects_malformed_pairings() {
        let orphan_end = r#"{"ev":"E","id":7,"name":"x","t_us":5,"dur_us":5}"#;
        let err = TraceReport::from_str(orphan_end).unwrap_err();
        assert!(err.contains("unknown span id"), "{err}");
        assert!(TraceReport::from_str("").is_err());
        let dup = [
            r#"{"ev":"B","id":1,"parent":0,"name":"a","thread":1,"t_us":0}"#,
            r#"{"ev":"B","id":1,"parent":0,"name":"b","thread":1,"t_us":1}"#,
        ]
        .join("\n");
        assert!(TraceReport::from_str(&dup).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn unclosed_spans_are_reported_not_fatal() {
        let trace = r#"{"ev":"B","id":1,"parent":0,"name":"a","thread":1,"t_us":0}"#;
        let report = TraceReport::from_str(trace).unwrap();
        assert_eq!(report.unclosed, 1);
        assert!(report.render().contains("never closed"));
    }

    #[test]
    fn multi_file_merge_lays_runs_end_to_end() {
        // Two runs whose clocks both start near zero, with colliding span
        // ids — exactly what two `dcdiff batch --trace` files look like.
        let run_a = [
            line(r#"{"ev":"X","id":1,"parent":0,"name":"a","thread":1,"t_us":0,"dur_us":100}"#),
            line(r#"{"ev":"X","id":2,"parent":0,"name":"b","thread":1,"t_us":100,"dur_us":50}"#),
        ]
        .join("\n");
        let run_b = [
            line(r#"{"ev":"B","id":1,"parent":0,"name":"a","thread":2,"t_us":10}"#),
            line(r#"{"ev":"E","id":1,"name":"a","t_us":90,"dur_us":80}"#),
        ]
        .join("\n");
        let merged = TraceReport::from_texts(&[&run_a, &run_b]).unwrap();
        assert_eq!(merged.events, 4);
        assert_eq!(merged.span_count(), 3);
        assert_eq!(merged.unclosed, 0);
        assert_eq!(merged.threads, 2);
        // Per-span aggregation spans both runs.
        assert_eq!(merged.spans["a"].count, 2);
        assert_eq!(merged.spans["a"].total_us, 180);
        // Run B is rebased after run A: its span [10,90] lands at [150,230].
        assert_eq!(merged.wall_us(), 230);
        assert_eq!(merged.covered_us(), 230);
        // One-element from_texts is exactly from_str.
        let single = TraceReport::from_str(&run_a).unwrap();
        assert_eq!(single.wall_us(), 150);
        assert_eq!(single.first_us, 0);
    }

    #[test]
    fn multi_file_errors_name_the_file() {
        let good = r#"{"ev":"X","id":1,"parent":0,"name":"a","thread":1,"t_us":0,"dur_us":1}"#;
        let err = TraceReport::from_texts(&[good, "not json"]).unwrap_err();
        assert!(err.starts_with("file 2: line 1:"), "{err}");
        // Single-file errors keep the unprefixed shape callers match on.
        let err = TraceReport::from_str("not json").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn span_ending_past_u64_max_is_refused() {
        let complete = r#"{"ev":"X","id":1,"parent":0,"name":"a","thread":1,"t_us":18446744073709551615,"dur_us":5}"#;
        let err = TraceReport::from_str(complete).unwrap_err();
        assert!(
            err.starts_with("line 1:") && err.contains("past u64::MAX"),
            "{err}"
        );
        let paired = [
            r#"{"ev":"B","id":1,"parent":0,"name":"a","thread":1,"t_us":18446744073709551610}"#,
            r#"{"ev":"E","id":1,"name":"a","t_us":18446744073709551615,"dur_us":6}"#,
        ]
        .join("\n");
        let err = TraceReport::from_str(&paired).unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("past u64::MAX"),
            "{err}"
        );
        // A span that ends exactly at u64::MAX is well-formed.
        let edge = r#"{"ev":"X","id":1,"parent":0,"name":"a","thread":1,"t_us":18446744073709551610,"dur_us":5}"#;
        let report = TraceReport::from_str(edge).unwrap();
        assert_eq!((report.wall_us(), report.covered_us()), (5, 5));
    }

    #[test]
    fn deep_nesting_is_a_line_error() {
        let err = TraceReport::from_str(&"[".repeat(100_000)).unwrap_err();
        assert!(
            err.starts_with("line 1:") && err.contains("nesting deeper"),
            "{err}"
        );
    }

    #[test]
    fn render_includes_min_column() {
        let trace = [
            line(r#"{"ev":"X","id":1,"parent":0,"name":"a","thread":1,"t_us":0,"dur_us":2000}"#),
            line(r#"{"ev":"X","id":2,"parent":0,"name":"a","thread":1,"t_us":0,"dur_us":8000}"#),
        ]
        .join("\n");
        let report = TraceReport::from_str(&trace).unwrap();
        let rendered = report.render();
        assert!(rendered.contains("min ms"), "{rendered}");
        // min 2 ms and max 8 ms both appear on the span row.
        let row = rendered.lines().find(|l| l.starts_with('a')).unwrap();
        assert!(row.contains("2.00") && row.contains("8.00"), "{row}");
    }
}

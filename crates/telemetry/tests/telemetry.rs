//! Integration tests for dcdiff-telemetry: concurrent recording loses no
//! samples, histogram quantile edge cases and regression pins, and span
//! nesting produces well-formed parent/child JSONL.

use std::str::FromStr as _;
use std::sync::Arc;
use std::thread;

use dcdiff_telemetry::{names, EventKind, Histogram, Telemetry, TraceEvent, TraceReport};

const THREADS: usize = 8;
const RECORDS: usize = 5_000;

#[test]
fn concurrent_counters_and_histograms_lose_no_samples() {
    let tel = Arc::new(Telemetry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let tel = Arc::clone(&tel);
            thread::spawn(move || {
                let counter = tel.counter(names::CTR_RETRIES);
                let histogram = tel.histogram(names::HIST_QUEUE_WAIT_US);
                for i in 0..RECORDS {
                    counter.inc();
                    histogram.record((t * RECORDS + i) as u64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let n = (THREADS * RECORDS) as u64;
    let metrics = tel.registry().snapshot();
    assert_eq!(metrics.counter("runtime.retries"), n);
    let snap = metrics.histogram("runtime.queue_wait_us");
    assert_eq!(snap.count, n);
    // Sum of 0..n-1.
    assert_eq!(snap.sum, n * (n - 1) / 2);
    assert_eq!(snap.min, 0);
    assert_eq!(snap.max, n - 1);
}

#[test]
fn quantile_edge_cases() {
    // Empty histogram has no quantiles.
    let empty = Histogram::new();
    assert_eq!(empty.quantile(0.5), None);

    // A single sample is reported exactly at every p.
    let single = Histogram::new();
    single.record(123);
    for p in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(single.quantile(p), Some(123));
    }

    // All-equal samples are reported exactly at every p (clamped to the
    // observed min == max despite bucket interpolation).
    let equal = Histogram::new();
    for _ in 0..1000 {
        equal.record(700);
    }
    for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(equal.quantile(p), Some(700));
    }

    // Out-of-range p is clamped, not a panic.
    assert_eq!(equal.quantile(-1.0), Some(700));
    assert_eq!(equal.quantile(2.0), Some(700));
}

/// Regression pin for the shared quantile math that `runtime_bench` and the
/// metrics export rely on (replacing the old ad-hoc `sort + round(rank)`
/// percentile). Values are exact outputs of the log₂-bucket interpolation —
/// if the algorithm changes, these change, and that must be a conscious
/// decision.
#[test]
fn quantile_regression_pins_on_known_samples() {
    let h = Histogram::new();
    for v in 1..=1000u64 {
        h.record(v);
    }
    // target rank 499.5 inside bucket [256, 511] -> 256 + (499.5-255)/256 * 255
    assert_eq!(h.quantile(0.50), Some(499));
    // p90: rank 899.1 inside bucket [512, 1023], clamped by nothing.
    assert_eq!(h.quantile(0.90), Some(917));
    // p99: rank 989.01 interpolates past the observed max -> clamped to 1000.
    assert_eq!(h.quantile(0.99), Some(1000));
    assert_eq!(h.quantile(0.0), Some(1));
    assert_eq!(h.quantile(1.0), Some(1000));

    let small = Histogram::new();
    for v in [10u64, 20, 30, 40] {
        small.record(v);
    }
    // rank 1.5 inside bucket [16, 31] holding {20, 30}.
    assert_eq!(small.quantile(0.50), Some(19));
    // rank 2.97 still interpolates inside that bucket (one-bucket error
    // bound); the exact extremes come from p = 0/1.
    assert_eq!(small.quantile(0.99), Some(30));
    assert_eq!(small.quantile(1.0), Some(40));
}

#[test]
fn span_nesting_produces_well_formed_parent_child_jsonl() {
    let tel = Telemetry::builder().trace_to_vec().build();
    {
        let _batch = tel.span(names::SPAN_BATCH_EXEC);
        for _ in 0..3 {
            let _job = tel.span(names::SPAN_JOB_RECOVER);
            let _stage = tel.span(names::SPAN_RECOVER_ESTIMATE);
        }
    }
    let text = tel.take_trace_vec().unwrap();

    // Every line parses, and begin/end events pair one-to-one.
    let events: Vec<TraceEvent> = text
        .lines()
        .map(|l| TraceEvent::parse_line(l).expect("well-formed JSONL"))
        .collect();
    assert_eq!(events.len(), 14); // 7 spans x (B + E)
    let begins: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == EventKind::Begin).collect();
    assert_eq!(begins.len(), 7);

    // Parent links: batch.exec is the root; each job.recover's parent is
    // batch.exec; each recover.estimate's parent is a job.recover.
    let find = |name: &str| -> Vec<&&TraceEvent> {
        begins.iter().filter(|e| e.name == name).collect()
    };
    let batch = find("batch.exec");
    assert_eq!(batch.len(), 1);
    assert_eq!(batch[0].parent, 0);
    for job in find("job.recover") {
        assert_eq!(job.parent, batch[0].id);
    }
    let job_ids: Vec<u64> = find("job.recover").iter().map(|e| e.id).collect();
    for stage in find("recover.estimate") {
        assert!(job_ids.contains(&stage.parent), "stage parent must be a job");
    }

    // The offline report agrees: no unclosed spans, full nesting.
    let report = TraceReport::from_str(&text).unwrap();
    assert_eq!(report.unclosed, 0);
    assert_eq!(report.span_count(), 7);
    assert_eq!(report.spans["job.recover"].count, 3);
    assert_eq!(report.spans["job.recover"].roots, 0);
    assert_eq!(report.spans["batch.exec"].roots, 1);
}

#[test]
fn spans_on_multiple_threads_carry_distinct_thread_ids() {
    let tel = Arc::new(Telemetry::builder().trace_to_vec().build());
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let tel = Arc::clone(&tel);
            thread::spawn(move || {
                let _span = tel.span(names::SPAN_JOB_RECOVER);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let text = tel.take_trace_vec().unwrap();
    let threads: std::collections::BTreeSet<u64> = text
        .lines()
        .map(|l| TraceEvent::parse_line(l).unwrap())
        .filter(|e| e.kind == EventKind::Begin)
        .map(|e| e.thread)
        .collect();
    assert_eq!(threads.len(), 4, "each thread gets its own index");
}

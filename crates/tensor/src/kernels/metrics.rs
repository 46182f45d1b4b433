//! Telemetry for the kernel layer: `tensor.gemm_us` / `tensor.conv_us`
//! latency histograms, FLOP counters and effective-throughput histograms.
//!
//! Recording goes through the process-wide [`dcdiff_telemetry::global`]
//! handle so `dcdiff batch --metrics` and `runtime_bench` see kernel
//! activity without any API plumbing. Registry lookups take a lock, so the
//! resolved handles are cached per thread and refreshed only when a new
//! handle is [`dcdiff_telemetry::install`]ed (checked with one `Arc`
//! pointer comparison per record).

use dcdiff_telemetry::names;
use std::cell::RefCell;
use std::time::Duration;

use dcdiff_telemetry::{Counter, Histogram, Telemetry};

struct Handles {
    tel: Telemetry,
    gemm_us: Histogram,
    gemm_flops: Counter,
    gemm_mflops: Histogram,
    conv_us: Histogram,
    conv_flops: Counter,
    conv_mflops: Histogram,
}

impl Handles {
    fn resolve(tel: Telemetry) -> Handles {
        Handles {
            gemm_us: tel.histogram(names::HIST_GEMM_US),
            gemm_flops: tel.counter(names::CTR_GEMM_FLOPS),
            gemm_mflops: tel.histogram(names::HIST_GEMM_MFLOPS),
            conv_us: tel.histogram(names::HIST_CONV_US),
            conv_flops: tel.counter(names::CTR_CONV_FLOPS),
            conv_mflops: tel.histogram(names::HIST_CONV_MFLOPS),
            tel,
        }
    }
}

thread_local! {
    static HANDLES: RefCell<Option<Handles>> = const { RefCell::new(None) };
}

#[expect(clippy::expect_used, reason = "the stale branch above just filled the slot")]
fn with_handles(f: impl FnOnce(&Handles)) {
    HANDLES.with(|slot| {
        let mut slot = slot.borrow_mut();
        let current = dcdiff_telemetry::global();
        let stale = !matches!(&*slot, Some(h) if h.tel.ptr_eq(&current));
        if stale {
            *slot = Some(Handles::resolve(current));
        }
        f(slot.as_ref().expect("handles just resolved"));
    });
}

/// Effective throughput in MFLOP/s (megaflops keep sub-GFLOP/s kernels out
/// of the histogram's zero bucket).
fn mflops(flops: u64, elapsed: Duration) -> u64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return 0;
    }
    (flops as f64 / secs / 1e6) as u64
}

/// Record one dense matrix product (forward or backward).
pub(crate) fn record_gemm(elapsed: Duration, flops: u64) {
    with_handles(|h| {
        h.gemm_us.record_duration(elapsed);
        h.gemm_flops.add(flops);
        h.gemm_mflops.record(mflops(flops, elapsed));
    });
}

/// Record one conv2d pass (im2col + GEMM + rearrange, forward or backward).
pub(crate) fn record_conv(elapsed: Duration, flops: u64) {
    with_handles(|h| {
        h.conv_us.record_duration(elapsed);
        h.conv_flops.add(flops);
        h.conv_mflops.record(mflops(flops, elapsed));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_installed_global() {
        let tel = Telemetry::new();
        dcdiff_telemetry::install(tel.clone());
        record_gemm(Duration::from_micros(500), 1_000_000);
        record_conv(Duration::from_micros(250), 2_000_000);
        // Other tests in this binary may record concurrently through the
        // same global, so bound from below rather than asserting equality.
        let metrics = tel.registry().snapshot();
        assert!(metrics.counter("tensor.gemm_flops") >= 1_000_000);
        assert!(metrics.counter("tensor.conv_flops") >= 2_000_000);
        assert!(metrics.histogram("tensor.gemm_us").count >= 1);
        assert!(metrics.histogram("tensor.conv_us").count >= 1);
        // Re-install swaps the cached handles.
        let fresh = Telemetry::new();
        dcdiff_telemetry::install(fresh.clone());
        record_gemm(Duration::from_micros(10), 42);
        assert!(fresh.registry().snapshot().counter("tensor.gemm_flops") >= 42);
        dcdiff_telemetry::install(Telemetry::new());
    }
}

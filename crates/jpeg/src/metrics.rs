//! Telemetry for the decode hot path: `jpeg.decode.*` histograms,
//! counters and spans.
//!
//! Mirrors the kernel-layer pattern in `dcdiff-tensor`: recording goes
//! through the process-wide [`dcdiff_telemetry::global`] handle so
//! `dcdiff report` and `dcdiff top` see decode activity without API
//! plumbing, and the resolved handles are cached per thread (refreshed on
//! a pointer-compare when a new handle is installed) so the per-decode
//! cost is a few atomic adds.
//!
//! Two stages are instrumented, matching the decode dataflow documented
//! in `ARCHITECTURE.md`:
//!
//! * **entropy** — coded stream to quantised coefficients (Huffman); also
//!   records coded bytes and MB/s so throughput regressions show up in
//!   `dcdiff top` directly;
//! * **pixels** — coefficients to pixels (dequantise + iDCT + colour
//!   conversion), with the 8×8 block count; a streamed decode into a PNM
//!   file also covers quantising and writing its rows.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use dcdiff_telemetry::{names, Counter, Histogram, Telemetry};

struct Handles {
    tel: Telemetry,
    entropy_us: Histogram,
    pixels_us: Histogram,
    mbps: Histogram,
    bytes: Counter,
    blocks: Counter,
}

impl Handles {
    fn resolve(tel: Telemetry) -> Handles {
        Handles {
            entropy_us: tel.histogram(names::HIST_JPEG_DECODE_ENTROPY_US),
            pixels_us: tel.histogram(names::HIST_JPEG_DECODE_PIXELS_US),
            mbps: tel.histogram(names::HIST_JPEG_DECODE_MBPS),
            bytes: tel.counter(names::CTR_JPEG_DECODE_BYTES),
            blocks: tel.counter(names::CTR_JPEG_DECODE_BLOCKS),
            tel,
        }
    }
}

thread_local! {
    static HANDLES: RefCell<Option<Handles>> = const { RefCell::new(None) };
}

#[expect(clippy::expect_used, reason = "the slot was filled on the line above when stale")]
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

/// Coded-byte throughput in MB/s (decimal megabytes, matching the
/// decode-MB/s rows in `BENCH_kernels.json`).
fn mbps(bytes: u64, elapsed: Duration) -> u64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return 0;
    }
    (bytes as f64 / secs / 1e6) as u64
}

/// Record one entropy-decode pass: `bytes` of coded scan data consumed
/// between `start` and now.
pub(crate) fn record_entropy(start: Instant, bytes: u64) {
    let end = Instant::now();
    let elapsed = end.duration_since(start);
    with_handles(|h| {
        h.entropy_us.record_duration(elapsed);
        h.mbps.record(mbps(bytes, elapsed));
        h.bytes.add(bytes);
        h.tel.record_span(names::SPAN_JPEG_DECODE_ENTROPY, start, end);
    });
}

/// Record one coefficients-to-pixels pass: `blocks` 8×8 blocks pushed
/// through dequantise + iDCT + colour conversion between `start` and now.
pub(crate) fn record_pixels(start: Instant, blocks: u64) {
    let end = Instant::now();
    with_handles(|h| {
        h.pixels_us.record_duration(end.duration_since(start));
        h.blocks.add(blocks);
        h.tel.record_span(names::SPAN_JPEG_DECODE_PIXELS, start, end);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_installed_global() {
        let tel = Telemetry::new();
        dcdiff_telemetry::install(tel.clone());
        let t0 = Instant::now();
        record_entropy(t0, 1_000_000);
        record_pixels(t0, 64);
        // Other tests in this binary may decode concurrently through the
        // same global, so bound from below rather than asserting equality.
        let metrics = tel.registry().snapshot();
        assert!(metrics.counter("jpeg.decode.bytes") >= 1_000_000);
        assert!(metrics.counter("jpeg.decode.blocks") >= 64);
        assert!(metrics.histogram("jpeg.decode.entropy_us").count >= 1);
        assert!(metrics.histogram("jpeg.decode.pixels_us").count >= 1);
        assert!(metrics.histogram("jpeg.decode.mbps").count >= 1);
        dcdiff_telemetry::install(Telemetry::new());
    }

    #[test]
    fn throughput_handles_zero_elapsed() {
        assert_eq!(mbps(10, Duration::ZERO), 0);
        assert_eq!(mbps(2_000_000, Duration::from_secs(1)), 2);
    }
}

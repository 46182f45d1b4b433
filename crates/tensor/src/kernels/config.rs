//! Kernel tuning knobs: thread count and cache/register block sizes.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Depth block: one packed `mr x KC` A strip plus one `KC x nr` B strip
/// (a few KiB each; `mr`/`nr` come from the runtime-selected microkernel)
/// stay L1-resident through the microkernel.
pub const KC: usize = 256;
/// Row block: the packed `MC x KC` A block (256 KiB) targets L2.
pub const MC: usize = 256;
/// Column block: the packed `KC x NC` B block (512 KiB) targets L2/L3.
pub const NC: usize = 512;

/// Minimum FLOPs (2·m·k·n) before a GEMM is worth sharding across the
/// pool: below this the dispatch latency dominates the kernel time.
pub const PAR_FLOP_THRESHOLD: usize = 1 << 21;

/// 0 = uninitialised; resolved lazily by [`configured_threads`].
static THREADS: AtomicUsize = AtomicUsize::new(0);

fn detect_threads() -> usize {
    if let Ok(raw) = std::env::var("DCDIFF_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The kernel layer's thread budget: `DCDIFF_THREADS` when set to a
/// positive integer, otherwise `std::thread::available_parallelism`.
pub fn configured_threads() -> usize {
    let cached = THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let detected = detect_threads();
    // Racing initialisers compute the same value; last write wins.
    THREADS.store(detected, Ordering::Relaxed);
    detected
}

/// Override the thread budget (benchmarks sweeping 1..cores). Affects the
/// whole process; not intended for concurrent test use. The worker pool is
/// sized at first use by `max(budget, hardware cores)`, so sweeping above
/// the hardware core count after the pool exists caps at whichever was
/// larger when it was created.
pub fn set_threads(threads: usize) {
    THREADS.store(threads.max(1), Ordering::Relaxed);
}

/// Snapshot of the kernel configuration, recorded into bench JSON so perf
/// numbers stay attributable across machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelConfig {
    /// Thread budget in effect (env override or detected cores).
    pub threads: usize,
    /// Detected hardware parallelism (regardless of override).
    pub cpu_cores: usize,
    /// Microkernel selected for this CPU (e.g. `avx2_fma_6x16`).
    pub isa: &'static str,
    /// Micro-tile rows of the selected microkernel.
    pub mr: usize,
    /// Micro-tile columns of the selected microkernel.
    pub nr: usize,
    /// Depth block.
    pub kc: usize,
    /// Row block.
    pub mc: usize,
    /// Column block.
    pub nc: usize,
    /// FLOP threshold below which GEMMs stay single-threaded.
    pub par_flop_threshold: usize,
}

impl KernelConfig {
    /// The configuration currently in effect.
    pub fn current() -> Self {
        let (isa, mr, nr) = super::gemm::microkernel_info();
        KernelConfig {
            threads: configured_threads(),
            cpu_cores: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
            isa,
            mr,
            nr,
            kc: KC,
            mc: MC,
            nc: NC,
            par_flop_threshold: PAR_FLOP_THRESHOLD,
        }
    }

    /// Render as a JSON object (for embedding in bench artifacts).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"threads\": {}, \"cpu_cores\": {}, \"isa\": \"{}\", \"mr\": {}, \"nr\": {}, \
             \"kc\": {}, \"mc\": {}, \"nc\": {}, \"par_flop_threshold\": {}}}",
            self.threads,
            self.cpu_cores,
            self.isa,
            self.mr,
            self.nr,
            self.kc,
            self.mc,
            self.nc,
            self.par_flop_threshold
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_are_at_least_one() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn config_json_names_every_knob() {
        let json = KernelConfig::current().to_json();
        for key in [
            "threads",
            "cpu_cores",
            "isa",
            "mr",
            "nr",
            "kc",
            "mc",
            "nc",
            "par_flop_threshold",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}

//! Runtime ISA selection for the codec kernels: the decoder's iDCT and
//! colour conversion, and the encoder's forward transform
//! ([`crate::dct::fdct_quantize`]).
//!
//! Mirrors the GEMM dispatch pattern in `dcdiff-tensor`: features are
//! probed once with `is_x86_feature_detected!` and cached, and every
//! SIMD entry point keeps a portable scalar fallback that is also the
//! correctness oracle for the parity tests. Benchmarks and tests can pin
//! the scalar path with [`force_scalar`] to measure or cross-check the
//! vector kernels in-process, on the decode and the encode side alike;
//! forcing an *unsupported* tier is impossible by construction, so
//! dispatch can never select an instruction set the CPU lacks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Instruction-set tier a codec kernel can run at.
///
/// The codec hot paths currently have two tiers; the GEMM side of the
/// workspace additionally has an AVX-512F tier (see
/// `dcdiff-tensor::kernels`). Tier selection is monotone: a higher tier
/// is only ever chosen when the CPU reports every feature it needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Portable scalar Rust — always available, bit-identical everywhere.
    Scalar,
    /// AVX2 + FMA vector kernels (x86-64 only, runtime-detected).
    Avx2Fma,
}

impl Tier {
    /// Stable label for bench JSON and logs (e.g. `"avx2_fma"`).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2Fma => "avx2_fma",
        }
    }
}

/// When set, [`active`] reports [`Tier::Scalar`] regardless of what the
/// CPU supports. Only ever forces *down* — there is deliberately no way
/// to force a tier the CPU did not pass detection for.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Probe the CPU once; cached for the process lifetime.
fn detected() -> Tier {
    static DETECTED: OnceLock<Tier> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Tier::Avx2Fma;
            }
        }
        Tier::Scalar
    })
}

/// The tier codec kernels dispatch to right now: the detected tier,
/// unless a scalar override is in force.
///
/// The override check is one relaxed atomic load — negligible next to an
/// 8×8 iDCT or a row of colour conversion.
pub fn active() -> Tier {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        Tier::Scalar
    } else {
        detected()
    }
}

/// Pin (or unpin) the scalar fallback for the whole process.
///
/// Used by `kernel_bench` to measure scalar-vs-SIMD decode and encode
/// throughput in one run, and by parity tests. Affects every thread; not
/// intended for concurrent use with in-flight codec calls whose tier
/// matters. Also pins the colour-conversion and PPM-quantiser tier in
/// `dcdiff-image` ([`dcdiff_image::simd_force_scalar`]) so one switch
/// covers the whole decode path (entropy → iDCT → colour → PPM bytes)
/// and the encoder's transform
/// (colour → fDCT + quantise, whose scalar tier is
/// `QuantTable::quantize(&fdct(..))`).
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
    dcdiff_image::simd_force_scalar(on);
}

/// Whether [`force_scalar`] is currently pinning the reference pipeline.
///
/// Distinct from `active() == Tier::Scalar`: on hosts without AVX2 the
/// active tier is scalar but portable accelerations (the Huffman LUT)
/// stay on; only an explicit force pins the bit-by-bit reference tier.
pub(crate) fn scalar_forced() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_overrides_detection() {
        force_scalar(true);
        assert_eq!(active(), Tier::Scalar);
        force_scalar(false);
        assert_eq!(active(), detected());
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(Tier::Scalar.name(), "scalar");
        assert_eq!(Tier::Avx2Fma.name(), "avx2_fma");
    }
}

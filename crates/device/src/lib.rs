//! Low-power encoder cost models for the Table IV use-case analysis.
//!
//! The paper deploys the sender on a Raspberry Pi 4 and an ARM
//! Cortex-A53 and measures compression throughput, showing that DCDiff's
//! sender adds **zero** overhead over stock JPEG (it only zeroes DC
//! levels before entropy coding — strictly less work). No boards are
//! available here, so this crate models the encoder as a per-stage cycle
//! budget (colour conversion, level shift + DCT, quantisation, zig-zag +
//! Huffman) with device profiles capturing clock rate and SIMD width.
//! The *relative* claim of Table IV — `DCDiff encoder >= JPEG encoder`
//! throughput on both devices — is reproduced exactly; absolute numbers
//! are calibrated to the same order of magnitude as the paper's.
//!
//! The receiver side is modelled too ([`DeviceProfile::estimate_decode`]):
//! entropy decode, dequantisation, iDCT and colour conversion, with
//! [`DecoderKind`] selecting the scalar pipeline or the SIMD pipeline
//! that `dcdiff-jpeg` actually ships (runtime-dispatched AVX2 iDCT and
//! colour kernels plus the table-accelerated Huffman decoder). The
//! [`DeviceProfile::edge_avx2`] profile models the x86 edge server those
//! kernels were measured on (`BENCH_kernels.json` decode rows).
//!
//! # Example
//!
//! ```
//! use dcdiff_device::{DeviceProfile, EncoderKind};
//! use dcdiff_image::{ColorSpace, Image};
//! use dcdiff_jpeg::{ChromaSampling, CoeffImage};
//!
//! let img = Image::filled(64, 64, ColorSpace::Rgb, 90.0);
//! let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
//! let pi = DeviceProfile::raspberry_pi4();
//! let jpeg = pi.estimate_encode(&coeffs, EncoderKind::StandardJpeg);
//! let dcdiff = pi.estimate_encode(&coeffs, EncoderKind::DcDrop);
//! assert!(dcdiff.throughput_gbps >= jpeg.throughput_gbps);
//! ```

use dcdiff_jpeg::{CoeffImage, DcDropMode, BLOCK_AREA};

/// Which sender-side encoder is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncoderKind {
    /// Stock baseline JPEG.
    StandardJpeg,
    /// The DCDiff sender: identical pipeline, but DC levels are zeroed
    /// (except the corner anchors) before entropy coding.
    DcDrop,
}

impl std::fmt::Display for EncoderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncoderKind::StandardJpeg => f.write_str("JPEG Encoder"),
            EncoderKind::DcDrop => f.write_str("DCDiff Encoder"),
        }
    }
}

/// Which receiver-side decode pipeline is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecoderKind {
    /// Portable scalar decode: bit-by-bit Huffman, scalar iDCT and
    /// colour conversion.
    Scalar,
    /// The SIMD decode path `dcdiff-jpeg` dispatches to at runtime:
    /// table-accelerated Huffman plus vector iDCT/dequant/colour.
    Simd,
}

impl std::fmt::Display for DecoderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecoderKind::Scalar => f.write_str("Scalar Decoder"),
            DecoderKind::Simd => f.write_str("SIMD Decoder"),
        }
    }
}

/// Cycle-budget profile of a low-power processor.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    name: &'static str,
    /// Core clock in Hz.
    clock_hz: f64,
    /// Effective SIMD speed-up for the DCT/quantisation inner loops.
    simd_speedup: f64,
    /// Effective speed-up of the windowed multi-symbol Huffman decoder
    /// over the bit-by-bit loop (1.0 where the LUT does not fit — the
    /// table is 1 KiB, so only the smallest MCUs exclude it).
    huffman_table_speedup: f64,
    /// Cycles per pixel for RGB→YCbCr conversion (scalar).
    color_cycles_per_pixel: f64,
    /// Cycles per 8×8 block for the level shift + forward DCT (scalar).
    dct_cycles_per_block: f64,
    /// Cycles per coefficient for quantisation (scalar).
    quant_cycles_per_coeff: f64,
    /// Cycles per coded Huffman symbol (table lookup + bit output).
    huffman_cycles_per_symbol: f64,
    /// Active compute power in watts (for battery-life estimates — the
    /// ESP32-class budget the paper's introduction motivates).
    active_power_w: f64,
}

/// Estimated sender cost for one image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeEstimate {
    /// Total modelled cycles.
    pub cycles: f64,
    /// Wall-clock seconds at the device clock.
    pub seconds: f64,
    /// Raw-input throughput in Gbps (24-bit RGB pixels per second).
    pub throughput_gbps: f64,
    /// Compute energy in millijoules at the device's active power.
    pub energy_mj: f64,
}

/// Estimated receiver cost for one image (same fields as the sender
/// estimate; throughput is measured over the *decoded* 24-bit pixels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeEstimate {
    /// Total modelled cycles.
    pub cycles: f64,
    /// Wall-clock seconds at the device clock.
    pub seconds: f64,
    /// Decoded-output throughput in Gbps (24-bit RGB pixels per second).
    pub throughput_gbps: f64,
    /// Compute energy in millijoules at the device's active power.
    pub energy_mj: f64,
}

impl DeviceProfile {
    /// Raspberry Pi 4 Model B (Cortex-A72, 1.5 GHz, 128-bit NEON).
    pub fn raspberry_pi4() -> Self {
        Self {
            name: "Raspberry Pi 4",
            clock_hz: 1.5e9,
            simd_speedup: 4.0,
            huffman_table_speedup: 2.5,
            color_cycles_per_pixel: 5.0,
            dct_cycles_per_block: 900.0,
            quant_cycles_per_coeff: 3.0,
            huffman_cycles_per_symbol: 9.0,
            active_power_w: 4.0,
        }
    }

    /// A standalone ARM Cortex-A53 (1.2 GHz, narrower issue width).
    pub fn cortex_a53() -> Self {
        Self {
            name: "ARM Cortex-A53",
            clock_hz: 1.2e9,
            simd_speedup: 2.4,
            huffman_table_speedup: 2.2,
            color_cycles_per_pixel: 7.0,
            dct_cycles_per_block: 1100.0,
            quant_cycles_per_coeff: 4.0,
            huffman_cycles_per_symbol: 12.0,
            active_power_w: 1.5,
        }
    }

    /// ESP32-CAM class microcontroller (the paper's introduction names
    /// its 1.55 W budget as the motivating platform): 240 MHz Xtensa
    /// LX6, no SIMD, modest per-op costs.
    pub fn esp32_cam() -> Self {
        Self {
            name: "ESP32-CAM",
            clock_hz: 2.4e8,
            simd_speedup: 1.0,
            huffman_table_speedup: 1.5,
            color_cycles_per_pixel: 9.0,
            dct_cycles_per_block: 1400.0,
            quant_cycles_per_coeff: 5.0,
            huffman_cycles_per_symbol: 16.0,
            active_power_w: 1.55,
        }
    }

    /// x86 edge server with AVX2+FMA (3 GHz class) — the receiver-side
    /// host the `dcdiff-jpeg` SIMD kernels were written for. The SIMD
    /// speed-up matches the measured decode rows in `BENCH_kernels.json`
    /// (8-lane f32 vectors landing a 4–8x kernel-level win, >=2x on the
    /// whole decode), and the table-Huffman factor matches the windowed
    /// decoder vs the bit-by-bit loop on the same host.
    pub fn edge_avx2() -> Self {
        Self {
            name: "x86 edge (AVX2)",
            clock_hz: 3.0e9,
            simd_speedup: 6.0,
            huffman_table_speedup: 3.0,
            color_cycles_per_pixel: 4.0,
            dct_cycles_per_block: 600.0,
            quant_cycles_per_coeff: 2.0,
            huffman_cycles_per_symbol: 6.0,
            active_power_w: 65.0,
        }
    }

    /// Device display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Core clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Estimate the sender cost of entropy-coding `coeffs` on this device.
    ///
    /// For [`EncoderKind::DcDrop`] the coefficients are DC-dropped first
    /// (corner anchors kept), which only *reduces* the number of coded
    /// symbols; the grid transforms cost exactly the same.
    pub fn estimate_encode(&self, coeffs: &CoeffImage, kind: EncoderKind) -> EncodeEstimate {
        let effective = match kind {
            EncoderKind::StandardJpeg => coeffs.clone(),
            EncoderKind::DcDrop => coeffs.clone().drop_dc(DcDropMode::KeepCorners),
        };
        let pixels = (coeffs.width() * coeffs.height()) as f64;
        let mut blocks = 0f64;
        let mut symbols = 0f64;
        for c in 0..effective.channels() {
            let plane = effective.plane(c);
            blocks += (plane.blocks_x() * plane.blocks_y()) as f64;
            symbols += coded_symbols(plane) as f64;
        }
        let color = if coeffs.channels() == 3 {
            pixels * self.color_cycles_per_pixel
        } else {
            0.0
        };
        let dct = blocks * self.dct_cycles_per_block / self.simd_speedup;
        let quant = blocks * BLOCK_AREA as f64 * self.quant_cycles_per_coeff / self.simd_speedup;
        let huffman = symbols * self.huffman_cycles_per_symbol;
        let cycles = color + dct + quant + huffman;
        let seconds = cycles / self.clock_hz;
        let input_bits = pixels * 24.0;
        EncodeEstimate {
            cycles,
            seconds,
            throughput_gbps: input_bits / seconds / 1e9,
            energy_mj: seconds * self.active_power_w * 1e3,
        }
    }

    /// Images the device can encode per joule (battery-life view).
    pub fn images_per_joule(&self, coeffs: &CoeffImage, kind: EncoderKind) -> f64 {
        1e3 / self.estimate_encode(coeffs, kind).energy_mj
    }

    /// Estimate the receiver cost of decoding `coeffs` to pixels on this
    /// device: entropy decode (Huffman), dequantisation, iDCT and (for
    /// colour images) YCbCr→RGB conversion.
    ///
    /// [`DecoderKind::Simd`] models the pipeline `dcdiff-jpeg` dispatches
    /// to at runtime: the windowed multi-symbol Huffman decoder
    /// (`huffman_table_speedup` on the entropy stage) and the vector
    /// iDCT/dequant/colour kernels (`simd_speedup` on the grid stages —
    /// on this path colour conversion is vectorised too, unlike the
    /// scalar sender model where it is a lookup-bound scalar loop).
    pub fn estimate_decode(&self, coeffs: &CoeffImage, kind: DecoderKind) -> DecodeEstimate {
        let (grid_speedup, entropy_speedup) = match kind {
            DecoderKind::Scalar => (1.0, 1.0),
            DecoderKind::Simd => (self.simd_speedup, self.huffman_table_speedup),
        };
        let pixels = (coeffs.width() * coeffs.height()) as f64;
        let mut blocks = 0f64;
        let mut symbols = 0f64;
        for c in 0..coeffs.channels() {
            let plane = coeffs.plane(c);
            blocks += (plane.blocks_x() * plane.blocks_y()) as f64;
            symbols += coded_symbols(plane) as f64;
        }
        let huffman = symbols * self.huffman_cycles_per_symbol / entropy_speedup;
        let dequant =
            blocks * BLOCK_AREA as f64 * self.quant_cycles_per_coeff / grid_speedup;
        let idct = blocks * self.dct_cycles_per_block / grid_speedup;
        let color = if coeffs.channels() == 3 {
            pixels * self.color_cycles_per_pixel / grid_speedup
        } else {
            0.0
        };
        let cycles = huffman + dequant + idct + color;
        let seconds = cycles / self.clock_hz;
        let output_bits = pixels * 24.0;
        DecodeEstimate {
            cycles,
            seconds,
            throughput_gbps: output_bits / seconds / 1e9,
            energy_mj: seconds * self.active_power_w * 1e3,
        }
    }
}

/// Number of Huffman symbols a plane's blocks code to (1 DC symbol per
/// block plus one symbol per nonzero AC run and EOB/ZRL overhead
/// approximated by the nonzero count + 1).
fn coded_symbols(plane: &dcdiff_jpeg::CoeffPlane) -> usize {
    let mut symbols = 0usize;
    for by in 0..plane.blocks_y() {
        for bx in 0..plane.blocks_x() {
            let block = plane.block(bx, by);
            let nonzero_ac = block[1..].iter().filter(|&&v| v != 0).count();
            symbols += 1 + nonzero_ac + 1; // DC + AC runs + EOB
        }
    }
    symbols
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_data::{SceneGenerator, SceneKind};
    use dcdiff_jpeg::ChromaSampling;

    fn sample_coeffs() -> CoeffImage {
        let img = SceneGenerator::new(SceneKind::Natural, 128, 96).generate(1);
        CoeffImage::from_image(&img, 50, ChromaSampling::Cs444)
    }

    #[test]
    fn dcdiff_sender_is_never_slower() {
        let coeffs = sample_coeffs();
        for device in [DeviceProfile::raspberry_pi4(), DeviceProfile::cortex_a53()] {
            let jpeg = device.estimate_encode(&coeffs, EncoderKind::StandardJpeg);
            let dcdrop = device.estimate_encode(&coeffs, EncoderKind::DcDrop);
            assert!(
                dcdrop.throughput_gbps >= jpeg.throughput_gbps,
                "{}: dcdiff {} < jpeg {}",
                device.name(),
                dcdrop.throughput_gbps,
                jpeg.throughput_gbps
            );
        }
    }

    #[test]
    fn pi4_outperforms_a53() {
        let coeffs = sample_coeffs();
        let pi = DeviceProfile::raspberry_pi4()
            .estimate_encode(&coeffs, EncoderKind::StandardJpeg);
        let a53 = DeviceProfile::cortex_a53()
            .estimate_encode(&coeffs, EncoderKind::StandardJpeg);
        assert!(pi.throughput_gbps > a53.throughput_gbps);
    }

    #[test]
    fn throughput_is_in_the_papers_ballpark() {
        // Table IV reports 1.85 / 0.92 Gbps; the model should land within
        // the same order of magnitude (0.5x – 3x).
        let coeffs = sample_coeffs();
        let pi = DeviceProfile::raspberry_pi4()
            .estimate_encode(&coeffs, EncoderKind::StandardJpeg);
        assert!(
            pi.throughput_gbps > 0.9 && pi.throughput_gbps < 5.5,
            "pi4 throughput {} Gbps out of range",
            pi.throughput_gbps
        );
        let a53 = DeviceProfile::cortex_a53()
            .estimate_encode(&coeffs, EncoderKind::StandardJpeg);
        assert!(
            a53.throughput_gbps > 0.45 && a53.throughput_gbps < 2.8,
            "a53 throughput {} Gbps out of range",
            a53.throughput_gbps
        );
    }

    #[test]
    fn esp32_is_the_slowest_but_leanest() {
        let coeffs = sample_coeffs();
        let esp = DeviceProfile::esp32_cam().estimate_encode(&coeffs, EncoderKind::StandardJpeg);
        let pi = DeviceProfile::raspberry_pi4().estimate_encode(&coeffs, EncoderKind::StandardJpeg);
        assert!(esp.throughput_gbps < pi.throughput_gbps);
        // at 1.55 W it can still sustain real-time-ish capture
        assert!(esp.throughput_gbps > 0.01, "esp32 throughput {}", esp.throughput_gbps);
    }

    #[test]
    fn energy_scales_with_cycles() {
        let coeffs = sample_coeffs();
        let pi = DeviceProfile::raspberry_pi4();
        let est = pi.estimate_encode(&coeffs, EncoderKind::StandardJpeg);
        assert!(est.energy_mj > 0.0);
        assert!(
            (est.energy_mj - est.seconds * 4.0 * 1e3).abs() < 1e-9,
            "energy must equal time x power"
        );
        // lower-power A53 burns fewer joules per image despite being slower
        let a53 = DeviceProfile::cortex_a53().estimate_encode(&coeffs, EncoderKind::StandardJpeg);
        assert!(a53.energy_mj < est.energy_mj * 2.0);
        assert!(pi.images_per_joule(&coeffs, EncoderKind::DcDrop) > 0.0);
    }

    #[test]
    fn busier_content_is_slower() {
        let smooth = CoeffImage::from_image(
            &SceneGenerator::new(SceneKind::Smooth, 64, 64).generate(2),
            50,
            ChromaSampling::Cs444,
        );
        let texture = CoeffImage::from_image(
            &SceneGenerator::new(SceneKind::Texture, 64, 64).generate(2),
            50,
            ChromaSampling::Cs444,
        );
        let pi = DeviceProfile::raspberry_pi4();
        let ts = pi.estimate_encode(&smooth, EncoderKind::StandardJpeg);
        let tt = pi.estimate_encode(&texture, EncoderKind::StandardJpeg);
        assert!(tt.cycles > ts.cycles, "more symbols, more cycles");
    }

    #[test]
    fn simd_decode_is_at_least_twice_scalar_on_the_edge_profile() {
        // Mirrors the BENCH_kernels.json acceptance bar: the dispatched
        // decode path must model >= 2x the scalar path where AVX2 exists.
        let coeffs = sample_coeffs();
        let edge = DeviceProfile::edge_avx2();
        let scalar = edge.estimate_decode(&coeffs, DecoderKind::Scalar);
        let simd = edge.estimate_decode(&coeffs, DecoderKind::Simd);
        assert!(
            simd.throughput_gbps >= 2.0 * scalar.throughput_gbps,
            "edge SIMD decode {} vs scalar {}",
            simd.throughput_gbps,
            scalar.throughput_gbps
        );
    }

    #[test]
    fn simd_decode_helps_every_simd_capable_profile() {
        let coeffs = sample_coeffs();
        for device in [
            DeviceProfile::raspberry_pi4(),
            DeviceProfile::cortex_a53(),
            DeviceProfile::edge_avx2(),
        ] {
            let scalar = device.estimate_decode(&coeffs, DecoderKind::Scalar);
            let simd = device.estimate_decode(&coeffs, DecoderKind::Simd);
            assert!(
                simd.cycles < scalar.cycles,
                "{}: SIMD decode must cost fewer cycles",
                device.name()
            );
            assert!(simd.energy_mj < scalar.energy_mj, "{}", device.name());
        }
    }

    #[test]
    fn edge_server_decodes_fastest() {
        let coeffs = sample_coeffs();
        let edge =
            DeviceProfile::edge_avx2().estimate_decode(&coeffs, DecoderKind::Simd);
        let pi =
            DeviceProfile::raspberry_pi4().estimate_decode(&coeffs, DecoderKind::Simd);
        assert!(edge.throughput_gbps > pi.throughput_gbps);
        // and it lands in a plausible range for a 3 GHz core on compact scans
        assert!(
            edge.throughput_gbps > 1.0 && edge.throughput_gbps < 60.0,
            "edge decode {} Gbps out of range",
            edge.throughput_gbps
        );
    }

    #[test]
    fn decode_energy_equals_time_times_power() {
        let coeffs = sample_coeffs();
        let pi = DeviceProfile::raspberry_pi4();
        let est = pi.estimate_decode(&coeffs, DecoderKind::Simd);
        assert!((est.energy_mj - est.seconds * 4.0 * 1e3).abs() < 1e-9);
    }

    #[test]
    fn estimates_scale_with_image_size() {
        let small = CoeffImage::from_image(
            &SceneGenerator::new(SceneKind::Natural, 64, 64).generate(3),
            50,
            ChromaSampling::Cs444,
        );
        let large = CoeffImage::from_image(
            &SceneGenerator::new(SceneKind::Natural, 128, 128).generate(3),
            50,
            ChromaSampling::Cs444,
        );
        let pi = DeviceProfile::raspberry_pi4();
        let cs = pi.estimate_encode(&small, EncoderKind::StandardJpeg).cycles;
        let cl = pi.estimate_encode(&large, EncoderKind::StandardJpeg).cycles;
        assert!(cl > 3.0 * cs && cl < 5.0 * cs, "expected ~4x: {cl} vs {cs}");
    }
}

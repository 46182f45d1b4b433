//! Benchmark of the `dcdiff-tensor` kernel layer: naive vs blocked vs
//! threaded GEMM, plus the implicit-GEMM conv2d, on the shapes the DCDiff
//! recover path actually executes (stage-1 encoder/decoder convs at image
//! resolution, U-Net convs and attention products at latent resolution).
//!
//! Usage: `cargo run --release -p dcdiff-bench --bin kernel_bench`
//!
//! Writes `BENCH_kernels.json` to the current directory, embedding the
//! kernel configuration (thread budget, block sizes) so speedups stay
//! attributable across machines. Asserts the blocking/packing win on the
//! largest recover-path GEMM shape unconditionally and the 2-thread
//! scaling only on multi-core hosts.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use dcdiff_data::DatasetProfile;
use dcdiff_image::ycbcr_to_rgb_rows;
use dcdiff_jpeg::bitstream::{BitReader, BitWriter};
use dcdiff_jpeg::dct::idct;
use dcdiff_jpeg::huffman::HuffmanTable;
use dcdiff_jpeg::simd::{self, Tier};
use dcdiff_jpeg::{JpegDecoder, JpegEncoder, BLOCK_AREA};
use dcdiff_tensor::kernels::{gemm_naive, set_threads, sgemm_with_threads, KernelConfig, Trans};
use dcdiff_tensor::Tensor;

/// One GEMM shape from the recover path: `C[m,n] += A[m,k] * B[k,n]`.
struct GemmShape {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

/// Recover-path GEMM shapes. Convolutions run as implicit GEMMs of logical
/// shape `[N*ho*wo, C*kh*kw] x [C*kh*kw, O]`; attention as
/// `[hw, c] x [c, hw]` per sample.
const GEMM_SHAPES: &[GemmShape] = &[
    // stage-1 AC encoder 3x3 conv, 32 channels at 64x64 (the largest
    // single GEMM a recover call issues)
    GemmShape { name: "stage1_conv3x3_c32_64x64", m: 4096, k: 288, n: 32 },
    // same layer's input-gradient product (training path)
    GemmShape { name: "stage1_conv_dx_c32_64x64", m: 4096, k: 32, n: 288 },
    // U-Net level-0 3x3 conv at 12x12 latent, 16 channels
    GemmShape { name: "unet_l0_conv3x3_c16_12x12", m: 144, k: 144, n: 16 },
    // U-Net level-1 3x3 conv at 6x6 latent, 32 channels
    GemmShape { name: "unet_l1_conv3x3_c32_6x6", m: 36, k: 288, n: 32 },
    // bottleneck attention q·kᵀ over 144 latent tokens
    GemmShape { name: "unet_attn_qk_hw144_c32", m: 144, k: 32, n: 144 },
    // square reference point for cross-machine comparison
    GemmShape { name: "square_256", m: 256, k: 256, n: 256 },
];

fn pattern(len: usize, seed: f32) -> Vec<f32> {
    (0..len).map(|i| ((i as f32) * 0.137 + seed).sin()).collect()
}

/// Best-of timing: run `f` until `budget` elapses (at least `min_reps`
/// times) and report the fastest single run.
fn best_time(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    let mut reps = 0usize;
    let start = Instant::now();
    while reps < min_reps || start.elapsed() < budget {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
        reps += 1;
        if reps > 10_000 {
            break;
        }
    }
    best
}

fn gflops(flops: usize, t: Duration) -> f64 {
    flops as f64 / t.as_secs_f64() / 1e9
}

struct GemmResult {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    naive_gflops: f64,
    blocked_gflops: f64,
    threaded_gflops: Vec<(usize, f64)>,
    blocked_speedup: f64,
}

fn bench_gemm(shape: &GemmShape, threads: &[usize], budget: Duration) -> GemmResult {
    let GemmShape { name, m, k, n } = *shape;
    let a = pattern(m * k, 1.0);
    let b = pattern(k * n, 2.0);
    let mut c = vec![0.0f32; m * n];
    let flops = 2 * m * k * n;

    let naive = best_time(budget, 3, || {
        c.iter_mut().for_each(|v| *v = 0.0);
        gemm_naive(m, k, n, &a, &b, &mut c);
    });
    let blocked = best_time(budget, 3, || {
        c.iter_mut().for_each(|v| *v = 0.0);
        sgemm_with_threads(1, Trans::N, Trans::N, m, k, n, &a, &b, &mut c);
    });
    let mut threaded = Vec::new();
    for &t in threads {
        let timed = best_time(budget, 3, || {
            c.iter_mut().for_each(|v| *v = 0.0);
            sgemm_with_threads(t, Trans::N, Trans::N, m, k, n, &a, &b, &mut c);
        });
        threaded.push((t, gflops(flops, timed)));
    }
    GemmResult {
        name,
        m,
        k,
        n,
        naive_gflops: gflops(flops, naive),
        blocked_gflops: gflops(flops, blocked),
        threaded_gflops: threaded,
        blocked_speedup: naive.as_secs_f64() / blocked.as_secs_f64(),
    }
}

/// One convolution `Tensor::conv2d` runs in the benchmarked networks
/// (`DcDiffConfig::default()`): input `[n, c, h, w]`, `o` output channels,
/// a 3x3 kernel with padding 1 at `stride`.
struct ConvShape {
    name: &'static str,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    stride: usize,
}

/// The stage-1 decoder and encoder convs a 64x64 recovery runs at image
/// resolution, the U-Net conv on its 8x8 latent, and the U-Net convs on the
/// 2x2 / 1x1 latents of 16x16 tiles, alone and fused eight lanes wide.
const CONV_SHAPES: &[ConvShape] = &[
    ConvShape { name: "stage1_d_res0_conv1_64x64", n: 1, c: 24, h: 64, w: 64, o: 12, stride: 1 },
    ConvShape { name: "stage1_ac1_s2_64x64", n: 1, c: 12, h: 64, w: 64, o: 12, stride: 2 },
    ConvShape { name: "unet_conv_8x8", n: 1, c: 16, h: 8, w: 8, o: 16, stride: 1 },
    ConvShape { name: "unet_conv_2x2", n: 1, c: 16, h: 2, w: 2, o: 16, stride: 1 },
    ConvShape { name: "unet_up_conv_2x2_w8", n: 8, c: 48, h: 2, w: 2, o: 16, stride: 1 },
    ConvShape { name: "unet_up_conv_1x1_w8", n: 8, c: 64, h: 1, w: 1, o: 32, stride: 1 },
];

struct ConvResult {
    name: &'static str,
    desc: String,
    flops: usize,
    single: Duration,
    threaded: Duration,
}

/// Time the `Tensor::conv2d` forward at 1 thread and at the full budget
/// (the tensor op picks up the globally configured thread count).
fn bench_conv(shape: &ConvShape, max_threads: usize, budget: Duration) -> ConvResult {
    let ConvShape { name, n, c, h, w, o, stride } = *shape;
    let x = Tensor::from_vec(vec![n, c, h, w], pattern(n * c * h * w, 0.3));
    let wt = Tensor::from_vec(vec![o, c, 3, 3], pattern(o * c * 9, 0.7));
    set_threads(1);
    let single = best_time(budget, 3, || {
        black_box(x.conv2d(&wt, stride, 1));
    });
    set_threads(max_threads);
    let threaded = best_time(budget, 3, || {
        black_box(x.conv2d(&wt, stride, 1));
    });
    let (ho, wo) = ((h - 1) / stride + 1, (w - 1) / stride + 1);
    ConvResult {
        name,
        desc: format!("{n}x{c}x{h}x{w} -> {o} ch, 3x3 stride {stride} pad 1"),
        flops: 2 * n * ho * wo * c * 9 * o,
        single,
        threaded,
    }
}

/// One decode-path stage timed at the forced-scalar reference tier and at
/// the runtime-dispatched tier, reported as input MB/s.
struct DecodeResult {
    name: &'static str,
    bytes: usize,
    scalar_mbps: f64,
    simd_mbps: f64,
    simd_speedup: f64,
}

fn mbps(bytes: usize, t: Duration) -> f64 {
    bytes as f64 / t.as_secs_f64() / 1e6
}

/// Time `f` with the scalar reference pipeline pinned via
/// [`simd::force_scalar`] and again with runtime dispatch, normalising to
/// MB/s over `bytes` of input consumed per run. Leaves dispatch unpinned.
fn bench_decode_stage(
    name: &'static str,
    bytes: usize,
    budget: Duration,
    mut f: impl FnMut(),
) -> DecodeResult {
    simd::force_scalar(true);
    let scalar = best_time(budget, 3, &mut f);
    simd::force_scalar(false);
    let dispatched = best_time(budget, 3, &mut f);
    DecodeResult {
        name,
        bytes,
        scalar_mbps: mbps(bytes, scalar),
        simd_mbps: mbps(bytes, dispatched),
        simd_speedup: scalar.as_secs_f64() / dispatched.as_secs_f64(),
    }
}

/// The decode hot path, stage by stage plus end to end: entropy decode
/// (bitwise vs table-accelerated), the 8x8 iDCT, planar colour
/// conversion, and a full `JpegDecoder::decode` of a Kodak-profile image.
fn bench_decode(budget: Duration) -> Vec<DecodeResult> {
    let mut results = Vec::new();

    // Entropy: a long AC-luma symbol stream with Kraft-weighted symbol
    // frequencies (each code drawn proportional to 2^-len, the implied
    // probability a canonical Huffman code assigns it), deterministically
    // shuffled so the decoder sees a realistic short-code-dominated mix
    // rather than a uniform sweep of the 16-bit tail symbols.
    let table = HuffmanTable::ac_luma();
    let mut syms: Vec<u8> = Vec::new();
    for &v in table.vals() {
        let reps = ((1usize << 16) >> table.code_len(v)).max(1);
        syms.extend(std::iter::repeat_n(v, reps));
    }
    let mut state = 0x243F_6A88u32;
    for i in (1..syms.len()).rev() {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        syms.swap(i, (state as usize) % (i + 1));
    }
    let mut writer = BitWriter::new();
    for &v in &syms {
        table.encode(&mut writer, v);
    }
    let stream = writer.finish();
    let stream_bytes = stream.len();
    results.push(bench_decode_stage("huffman_ac_stream", stream_bytes, budget, || {
        let mut reader = BitReader::new(&stream);
        let mut n = 0usize;
        while let Some(sym) = table.decode(&mut reader) {
            n += 1;
            black_box(sym);
        }
        black_box(n);
    }));

    // iDCT: a working set of dequantised coefficient blocks.
    let blocks: Vec<[f32; BLOCK_AREA]> = (0..2048)
        .map(|i| {
            let mut block = [0.0f32; BLOCK_AREA];
            block.copy_from_slice(&pattern(BLOCK_AREA, i as f32 * 0.61));
            block
        })
        .collect();
    let block_bytes = blocks.len() * BLOCK_AREA * 4;
    results.push(bench_decode_stage("idct_8x8", block_bytes, budget, || {
        for block in &blocks {
            black_box(idct(block));
        }
    }));

    // Colour conversion: planar YCbCr rows the size of a 256x256 plane.
    let n = 1 << 16;
    let y = pattern(n, 0.1);
    let cb = pattern(n, 0.2);
    let cr = pattern(n, 0.3);
    let (mut r, mut g, mut b) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
    let row_bytes = 3 * n * 4;
    results.push(bench_decode_stage("ycbcr_to_rgb_rows", row_bytes, budget, || {
        ycbcr_to_rgb_rows(&y, &cb, &cr, &mut r, &mut g, &mut b);
        black_box(&r);
    }));

    // End to end: entropy -> dequant -> iDCT -> colour on a coded image.
    // A large texture-heavy scene keeps real entropy work in the stream
    // and amortises the per-call plane allocations the tiny dataset
    // stand-in profiles would otherwise be dominated by.
    let image =
        DatasetProfile::bsds200().with_count(1).with_dims(512, 512).generate(0x5EED).remove(0);
    let coded = JpegEncoder::new(75).encode(&image).expect("encode bench image");
    let coded_bytes = coded.len();
    results.push(bench_decode_stage("full_decode", coded_bytes, budget, || {
        black_box(JpegDecoder::decode(&coded).expect("decode bench image"));
    }));
    results
}

fn main() {
    let config = KernelConfig::current();
    let cores = config.cpu_cores;
    let max_threads = config.threads.max(cores);
    // Highest thread count first so the lazily created pool is sized for
    // the whole sweep.
    set_threads(max_threads);

    let budget = Duration::from_millis(
        std::env::args()
            .position(|a| a == "--budget-ms")
            .and_then(|i| std::env::args().nth(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(150),
    );
    println!(
        "kernel_bench: {} shapes, {cores} core(s), thread budget {max_threads}, \
         {} ms per measurement",
        GEMM_SHAPES.len(),
        budget.as_millis()
    );

    let mut thread_sweep = vec![2usize, 4, max_threads];
    thread_sweep.retain(|&t| t <= max_threads);
    thread_sweep.dedup();

    let mut results = Vec::new();
    for shape in GEMM_SHAPES {
        let r = bench_gemm(shape, &thread_sweep, budget);
        let best_threaded =
            r.threaded_gflops.iter().map(|&(_, g)| g).fold(0.0f64, f64::max);
        println!(
            "  {:<28} naive {:6.2}  blocked {:6.2}  best-threaded {:6.2} GFLOP/s  \
             (blocked/naive {:.2}x)",
            r.name, r.naive_gflops, r.blocked_gflops, best_threaded, r.blocked_speedup
        );
        results.push(r);
    }

    let convs: Vec<ConvResult> =
        CONV_SHAPES.iter().map(|s| bench_conv(s, max_threads, budget)).collect();
    for c in &convs {
        println!(
            "  conv {:<28} 1-thread {:8.3} ms {:6.2} GFLOP/s  {}-thread {:8.3} ms {:6.2} GFLOP/s",
            c.name,
            c.single.as_secs_f64() * 1e3,
            gflops(c.flops, c.single),
            max_threads,
            c.threaded.as_secs_f64() * 1e3,
            gflops(c.flops, c.threaded),
        );
    }
    set_threads(max_threads);

    let decode = bench_decode(budget);
    let decode_tier = simd::active();
    for d in &decode {
        println!(
            "  dec  {:<28} scalar {:8.2}  {} {:8.2} MB/s  (speedup {:.2}x)",
            d.name,
            d.scalar_mbps,
            decode_tier.name(),
            d.simd_mbps,
            d.simd_speedup
        );
    }

    // The acceptance gates: blocking must win on the largest recover-path
    // GEMM everywhere; thread scaling is only assertable with real cores.
    let largest = results
        .iter()
        .max_by_key(|r| 2 * r.m * r.k * r.n)
        .expect("nonempty shape list");
    let two_thread_speedup = largest
        .threaded_gflops
        .iter()
        .find(|&&(t, _)| t == 2)
        .map(|&(_, g)| g / largest.blocked_gflops)
        .unwrap_or(1.0);
    println!(
        "  largest shape {}: blocked/naive {:.2}x, 2-thread/blocked {:.2}x",
        largest.name, largest.blocked_speedup, two_thread_speedup
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"dcdiff-tensor blocked/threaded kernels\",");
    let _ = writeln!(json, "  \"kernel_config\": {},", config.to_json());
    let _ = writeln!(json, "  \"measurement_ms\": {},", budget.as_millis());
    let _ = writeln!(
        json,
        "  \"note\": \"GFLOP/s from best-of repeated runs; naive = seed scalar ikj GEMM with \
         zero-skip branch, blocked = packed register-tiled kernel at 1 thread, threaded = same \
         kernel sharded across the DCDIFF_THREADS pool. GEMM shapes are the logical conv and \
         attention products the recover path issues; conv2d rows time the implicit-GEMM \
         Tensor::conv2d forward on convs the benchmarked networks run; decode rows time the \
         forced-scalar reference pipeline against the runtime-dispatched tier as MB/s over \
         input bytes (see PERFORMANCE.md).\","
    );
    json.push_str("  \"gemm\": [\n");
    for (i, r) in results.iter().enumerate() {
        let threaded: Vec<String> = r
            .threaded_gflops
            .iter()
            .map(|(t, g)| format!("{{\"threads\": {t}, \"gflops\": {g:.3}}}"))
            .collect();
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"naive_gflops\": {:.3}, \"blocked_gflops\": {:.3}, \
             \"blocked_over_naive\": {:.3}, \"threaded\": [{}]}}{}",
            r.name,
            r.m,
            r.k,
            r.n,
            r.naive_gflops,
            r.blocked_gflops,
            r.blocked_speedup,
            threaded.join(", "),
            if i + 1 < results.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"conv2d\": [\n");
    for (i, c) in convs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"shape\": \"{}\", \"flops\": {}, \
             \"single_thread_ms\": {:.4}, \"single_thread_gflops\": {:.3}, \
             \"threaded_ms\": {:.4}, \"threaded_gflops\": {:.3}}}{}",
            c.name,
            c.desc,
            c.flops,
            c.single.as_secs_f64() * 1e3,
            gflops(c.flops, c.single),
            c.threaded.as_secs_f64() * 1e3,
            gflops(c.flops, c.threaded),
            if i + 1 < convs.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"decode_tier\": \"{}\",", decode_tier.name());
    json.push_str("  \"decode\": [\n");
    for (i, d) in decode.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"bytes\": {}, \"scalar_mbps\": {:.3}, \
             \"simd_mbps\": {:.3}, \"simd_speedup\": {:.3}}}{}",
            d.name,
            d.bytes,
            d.scalar_mbps,
            d.simd_mbps,
            d.simd_speedup,
            if i + 1 < decode.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"largest_shape\": \"{}\",", largest.name);
    let _ = writeln!(json, "  \"blocked_over_naive_largest\": {:.3},", largest.blocked_speedup);
    let _ = writeln!(json, "  \"two_thread_over_blocked_largest\": {two_thread_speedup:.3}");
    json.push_str("}\n");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");

    assert!(
        largest.blocked_speedup >= 2.0,
        "blocking/packing must be >= 2x naive on {} (got {:.2}x)",
        largest.name,
        largest.blocked_speedup
    );
    if cores >= 2 {
        assert!(
            two_thread_speedup >= 1.7,
            "2-thread scaling must be >= 1.7x on multi-core hosts (got {two_thread_speedup:.2}x)"
        );
    } else {
        println!("  single-core host: skipping the 2-thread scaling assertion");
    }

    // The SIMD decode acceptance gate only holds where the AVX2 kernels
    // actually run; scalar-tier hosts see the Huffman LUT win alone.
    let full = decode
        .iter()
        .find(|d| d.name == "full_decode")
        .expect("full_decode row");
    if decode_tier == Tier::Avx2Fma {
        assert!(
            full.simd_speedup >= 2.0,
            "SIMD decode must be >= 2x the scalar pipeline on an AVX2 host (got {:.2}x)",
            full.simd_speedup
        );
    } else {
        println!("  scalar-tier host: skipping the 2x decode speedup assertion");
    }
}

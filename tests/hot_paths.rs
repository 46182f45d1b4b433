//! Steady-state hot paths allocate nothing.
//!
//! A counting global allocator sees every allocation the calling thread
//! makes, inside std calls included. Each entry point runs once to warm
//! what it caches (the GEMM scratch panels, kernel telemetry handles,
//! cosine tables), then repeated calls must leave the thread's allocation
//! count where it was. The codec kernels must not take a workspace lock
//! either, checked with the ranked locks' per-thread acquisition count
//! (counted in debug builds, so in tier-1).
//!
//! The hot entry points: the forward and inverse 8×8 DCT, the sender's
//! fused fDCT → quantise pass (dispatched and pinned scalar), both Huffman
//! decoders, and the single-threaded blocked GEMM. TIP-2006's recovery,
//! the runtime's fallback tier, and ICIP-2022's, whose solve DCDiff's
//! refinement shares, allocate their planes and outputs, but no more of
//! them for a larger image; so does the streamed response write. The
//! allocator also counts bytes: the AC field of a plane without AC levels
//! stores one shared zero block, not one block per block. And it keeps
//! the bytes each thread holds, with their high-water mark, so a test can
//! bound how much a call holds at once: the streamed response holds one
//! band of rows, not the image.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dcdiff_baselines::{AcField, DcRecovery, Icip2022, Tip2006};
use dcdiff_image::{write_ppm, Image, Plane, PnmFormat};
use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_jpeg::bitstream::{BitReader, BitWriter};
use dcdiff_jpeg::dct::{fdct, fdct_quantize, idct};
use dcdiff_jpeg::huffman::{HuffmanTable, AC_LUMA_VALS};
use dcdiff_jpeg::quant::QuantTable;
use dcdiff_jpeg::simd::force_scalar;
use dcdiff_jpeg::{ChromaSampling, CoeffImage, DcDropMode, BLOCK_AREA};
use dcdiff_telemetry::sync::acquisitions;
use dcdiff_tensor::kernels::{sgemm_with_threads, Trans};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated less bytes freed on this thread (a block freed on
    /// another thread than its own counts there).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since [`peak_bytes`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations, the bytes
/// they ask for, and the bytes it holds with their high-water mark.
struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged; the only addition is arithmetic on four const-initialised
// thread-local counters, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Gone during thread teardown: nothing is measured then.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        let _ = LIVE.try_with(|live| {
            let now = live.get() + layout.size() as i64;
            live.set(now);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as i64));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and lock acquisitions the calling thread makes in `f`.
fn cost(f: impl FnOnce()) -> (u64, u64) {
    let (allocs, locks) = (ALLOCATIONS.with(Cell::get), acquisitions());
    f();
    (ALLOCATIONS.with(Cell::get) - allocs, acquisitions() - locks)
}

/// The most bytes the calling thread holds at once during `f`, above
/// what it held before.
fn peak_bytes(f: impl FnOnce()) -> i64 {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    f();
    PEAK.with(Cell::get) - before
}

/// Warm `f` once, then require repeated calls to allocate nothing.
fn steady(what: &str, mut f: impl FnMut()) -> u64 {
    f();
    let (allocs, locks) = cost(|| {
        for _ in 0..8 {
            f();
        }
    });
    assert_eq!(allocs, 0, "{what}: {allocs} allocation(s) in 8 warm calls");
    locks
}

#[test]
fn codec_kernels_allocate_nothing_and_take_no_lock() {
    let samples: [f32; BLOCK_AREA] = std::array::from_fn(|i| ((i * 37) % 255) as f32 - 128.0);
    let qtable = QuantTable::luma(50);
    let coeffs = fdct(&samples);
    for scalar in [false, true] {
        force_scalar(scalar);
        let tier = if scalar { "scalar" } else { "dispatched" };
        let locks = steady(&format!("fdct ({tier})"), || {
            std::hint::black_box(fdct(std::hint::black_box(&samples)));
        }) + steady(&format!("idct ({tier})"), || {
            std::hint::black_box(idct(std::hint::black_box(&coeffs)));
        }) + steady(&format!("fdct_quantize ({tier})"), || {
            std::hint::black_box(fdct_quantize(std::hint::black_box(&samples), &qtable));
        });
        assert_eq!(locks, 0, "the {tier} DCT kernels took a workspace lock");
    }
    force_scalar(false);
}

#[test]
fn huffman_decoders_allocate_nothing_and_take_no_lock() {
    let table = HuffmanTable::ac_luma();
    let mut writer = BitWriter::new();
    for &symbol in AC_LUMA_VALS.iter().cycle().take(4 * AC_LUMA_VALS.len()) {
        table.encode(&mut writer, symbol).expect("Annex-K symbol");
    }
    writer.align();
    let scan = writer.finish();
    let symbols = 4 * AC_LUMA_VALS.len();
    let decode_all = |decode: fn(&HuffmanTable, &mut BitReader<'_>) -> Option<u8>| {
        let mut reader = BitReader::new(&scan);
        for (i, want) in AC_LUMA_VALS.iter().cycle().take(symbols).enumerate() {
            assert_eq!(decode(&table, &mut reader), Some(*want), "symbol {i}");
        }
    };
    let locks = steady("HuffmanTable::decode", || decode_all(HuffmanTable::decode))
        + steady("HuffmanTable::decode_bitwise", || decode_all(HuffmanTable::decode_bitwise));
    assert_eq!(locks, 0, "a Huffman decoder took a workspace lock");
}

#[test]
fn single_threaded_gemm_allocates_nothing_at_steady_state() {
    // Every blocking axis spans two panels (KC = MC = 256, NC = 512), so
    // the driver packs several A and B panels through its scratch pool.
    let (m, k, n) = (264, 264, 520);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 - 3.0).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 - 2.0).collect();
    let mut c = vec![0.0f32; m * n];
    // The driver's lock use is exempt: it reads the process-wide telemetry
    // handle once per call to record `tensor.gemm_*`.
    steady("sgemm_with_threads(1, …)", || {
        sgemm_with_threads(1, Trans::N, Trans::N, m, k, n, &a, &b, &mut c);
    });
}

/// Allocations one warm `method.recover` makes on a DC-dropped `size`²
/// Natural scene.
fn recover_allocations(method: &dyn DcRecovery, size: usize) -> u64 {
    let scene = SceneGenerator::new(SceneKind::Natural, size, size).generate(5);
    let dropped = CoeffImage::from_image(&scene, 50, ChromaSampling::Cs444)
        .drop_dc(DcDropMode::KeepCorners);
    std::hint::black_box(method.recover(&dropped));
    cost(|| {
        std::hint::black_box(method.recover(std::hint::black_box(&dropped)));
    })
    .0
}

#[test]
fn tip2006_recover_allocates_the_same_at_any_size() {
    let tip = Tip2006::new();
    let (small, large) = (recover_allocations(&tip, 64), recover_allocations(&tip, 256));
    assert_eq!(small, large, "Tip2006::recover allocates {small} times at 64², {large} at 256²");
}

#[test]
fn icip2022_recover_allocates_the_same_at_any_size() {
    let icip = Icip2022::new();
    let (small, large) = (recover_allocations(&icip, 64), recover_allocations(&icip, 256));
    assert_eq!(small, large, "Icip2022::recover allocates {small} times at 64², {large} at 256²");
}

#[test]
fn ac_field_of_a_flat_plane_stores_one_block() {
    let flat = Image::from_gray(Plane::filled(256, 256, 140.0));
    let dropped = CoeffImage::from_image(&flat, 50, ChromaSampling::Cs444)
        .drop_dc(DcDropMode::KeepCorners);
    let (plane, qtable) = (dropped.plane(0), dropped.qtable(0));
    let before = BYTES.with(Cell::get);
    std::hint::black_box(AcField::new(plane, qtable));
    let bytes = BYTES.with(Cell::get) - before;
    // A dense field of the 1024 blocks would hold 256 KiB of pixels.
    assert!(bytes < 32 << 10, "AcField::new of a flat 256² plane allocates {bytes} bytes");
}

/// A DC-dropped `size`² Natural scene at Q50, 4:4:4 (the served shape),
/// with its TIP-2006 levels.
fn recovered(size: usize) -> (CoeffImage, Vec<Vec<i32>>) {
    let scene = SceneGenerator::new(SceneKind::Natural, size, size).generate(5);
    let dropped = CoeffImage::from_image(&scene, 50, ChromaSampling::Cs444)
        .drop_dc(DcDropMode::KeepCorners);
    let levels = Tip2006::new().estimate_dc(&dropped);
    (dropped, levels)
}

/// One streamed PPM response of `dropped` with `levels`, to a sink.
fn stream(dropped: &CoeffImage, levels: &[Vec<i32>]) {
    dropped
        .write_pnm_with_dc(levels, PnmFormat::Ppm, std::io::sink())
        .expect("a sink takes every byte");
}

#[test]
fn streamed_response_holds_one_band_not_the_image() {
    let (dropped, levels) = recovered(512);
    stream(&dropped, &levels);
    let streamed = peak_bytes(|| stream(&dropped, &levels));
    // The band buffers, the RGB rows and the 64 KiB write buffer.
    assert!(streamed < 256 << 10, "the streamed 512² response held {streamed} bytes at once");
    // The counter sees a whole image: three 1 MiB planes.
    let path = std::env::temp_dir().join(format!("dcdiff-hot-paths-{}.ppm", std::process::id()));
    let whole = peak_bytes(|| {
        write_ppm(&path, &dropped.to_image_with_dc(&levels)).expect("write a temporary PPM");
    });
    std::fs::remove_file(&path).ok();
    assert!(whole > 3 << 20, "the decoded 512² image held only {whole} bytes");
}

#[test]
fn streamed_response_allocates_the_same_at_any_size() {
    let allocations = |size: usize| {
        let (dropped, levels) = recovered(size);
        stream(&dropped, &levels);
        cost(|| stream(std::hint::black_box(&dropped), &levels)).0
    };
    let (small, large) = (allocations(64), allocations(512));
    assert_eq!(small, large, "the streamed response allocates {small} times at 64², {large} at 512²");
}

//! The sender's coded bytes, pinned.
//!
//! Every DC-dropped stream the three entropy coders write
//! (`encode_coefficients`, `encode_coefficients_with_restarts` at an
//! interval of 3 MCUs and `encode_coefficients_optimized`) is hashed over
//! seeded gray and RGB scenes at 37×53 and 64², every chroma sampling,
//! Q5/50/95 and both DC-drop modes, at the scalar and the dispatched
//! tier. Any change to the forward transform, the DC drop, the symbol
//! walk or the optimised tables that moves one byte moves a hash.
//!
//! Separately, the symbol walk is held byte for byte to a copy of the scan
//! coder it replaced (a zig-zag copy of each block, then a run-length scan
//! over all 63 AC levels) on hand-built blocks covering every zig-zag
//! position, the runs around each ZRL boundary, a nonzero last coefficient
//! and every AC magnitude category of both signs, through the Annex-K
//! tables, with restarts, and through the optimised tables.

#![expect(
    clippy::disallowed_types,
    reason = "TIER serialises this test binary's tests; it is no product lock and has no rank"
)]

use std::sync::{Mutex, MutexGuard, PoisonError};

use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_jpeg::bitstream::{magnitude_code, BitWriter};
use dcdiff_jpeg::huffman::HuffmanTable;
use dcdiff_jpeg::quant::QuantTable;
use dcdiff_jpeg::simd::{active, force_scalar, Tier};
use dcdiff_jpeg::zigzag::{to_zigzag, ZIGZAG};
use dcdiff_jpeg::{
    encode_coefficients, encode_coefficients_optimized, encode_coefficients_with_restarts,
    ChromaSampling, CoeffImage, CoeffPlane, DcDropMode, JpegError, BLOCK, BLOCK_AREA,
};

/// `force_scalar` is process-wide: every test here holds this lock.
static TIER: Mutex<()> = Mutex::new(());

fn tier_lock() -> MutexGuard<'static, ()> {
    TIER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pins the scalar tier until dropped, so a failing case cannot leave
/// it pinned.
struct ForcedScalar;

impl ForcedScalar {
    fn pin() -> Self {
        force_scalar(true);
        ForcedScalar
    }
}

impl Drop for ForcedScalar {
    fn drop(&mut self) {
        force_scalar(false);
    }
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The hashes of the three coders' streams over every case, in
/// [`CODERS`] order, at the tier in force.
fn measure() -> [u64; 3] {
    let kinds = [SceneKind::Natural, SceneKind::Texture, SceneKind::Urban];
    let samplings = [ChromaSampling::Cs444, ChromaSampling::Cs422, ChromaSampling::Cs420];
    let mut hashes = [FNV_OFFSET; 3];
    let mut case = 0u64;
    for (w, h) in [(37, 53), (64, 64)] {
        for gray in [true, false] {
            for sampling in samplings {
                for quality in [5, 50, 95] {
                    for mode in [DcDropMode::KeepCorners, DcDropMode::All] {
                        let kind = kinds[case as usize % kinds.len()];
                        let scene = SceneGenerator::new(kind, w, h).generate(0x5e4d + case);
                        let image = if gray { scene.to_gray() } else { scene };
                        let dropped =
                            CoeffImage::from_image(&image, quality, sampling).drop_dc(mode);
                        let streams = [
                            encode_coefficients(&dropped),
                            encode_coefficients_with_restarts(&dropped, 3),
                            encode_coefficients_optimized(&dropped),
                        ];
                        for (hash, stream) in hashes.iter_mut().zip(streams) {
                            let bytes = stream.expect("every case is codable");
                            *hash = fnv1a(fnv1a(*hash, &case.to_le_bytes()), &bytes);
                        }
                        case += 1;
                    }
                }
            }
        }
    }
    hashes
}

const CODERS: [&str; 3] = [
    "encode_coefficients",
    "encode_coefficients_with_restarts(…, 3)",
    "encode_coefficients_optimized",
];

/// The hashes, in [`CODERS`] order. The AVX2 colour conversion contracts
/// with FMA, so its levels differ from the scalar tier's on some inputs,
/// but on none of these: both tiers, and a host without AVX2, share them.
const PINNED: [u64; 3] = [
    0xd030_c24a_b2c8_9ee7,
    0x5019_8fd5_39a8_48a9,
    0x7322_1527_c310_72f4,
];

#[test]
fn sender_streams_are_pinned_at_every_tier() {
    let _tier = tier_lock();
    let scalar = {
        let _scalar = ForcedScalar::pin();
        measure()
    };
    let dispatched = measure();
    for (tier, got) in [(Tier::Scalar, scalar), (active(), dispatched)] {
        assert!(
            got == PINNED,
            "{} tier: the sender's bytes moved; measured ({}): {got:#018x?}",
            tier.name(),
            CODERS.join(", ")
        );
    }
}

/// One block as the scan coder coded it before the symbol walk: a zig-zag
/// copy, the DC difference, then a run-length scan over every AC level.
fn reference_block(
    writer: &mut BitWriter,
    block: &[i32; BLOCK_AREA],
    pred: &mut i32,
    dc: &HuffmanTable,
    ac: &HuffmanTable,
) -> Result<(), JpegError> {
    let zz = to_zigzag(block);
    let diff = zz[0] - *pred;
    *pred = zz[0];
    let (size, bits) = magnitude_code(diff);
    dc.encode(writer, size as u8)?;
    writer.put(bits, size);
    let mut run = 0u32;
    for &coef in &zz[1..] {
        if coef == 0 {
            run += 1;
            continue;
        }
        while run >= 16 {
            ac.encode(writer, 0xF0)?;
            run -= 16;
        }
        let (size, bits) = magnitude_code(coef);
        ac.encode(writer, ((run as u8) << 4) | size as u8)?;
        writer.put(bits, size);
        run = 0;
    }
    if run > 0 {
        ac.encode(writer, 0x00)?;
    }
    Ok(())
}

/// The scan as the coder wrote it before the symbol walk: MCUs in raster
/// order, each component's blocks of an MCU in raster order, a restart
/// marker before every `interval`-th MCU (0: none). `tables` holds the
/// luma DC and AC tables, then the chroma ones.
fn reference_scan(
    coeffs: &CoeffImage,
    tables: &[HuffmanTable; 4],
    interval: usize,
) -> Result<Vec<u8>, JpegError> {
    let luma = match (coeffs.channels(), coeffs.sampling()) {
        (1, _) | (_, ChromaSampling::Cs444) => (1, 1),
        (_, ChromaSampling::Cs422) => (2, 1),
        (_, ChromaSampling::Cs420) => (2, 2),
    };
    let factors: Vec<(usize, usize)> =
        (0..coeffs.channels()).map(|c| if c == 0 { luma } else { (1, 1) }).collect();
    let mcus_x = coeffs.width().div_ceil(BLOCK * luma.0);
    let mcus_y = coeffs.height().div_ceil(BLOCK * luma.1);
    let mut writer = BitWriter::new();
    let mut preds = vec![0i32; coeffs.channels()];
    let mut mcu = 0usize;
    for my in 0..mcus_y {
        for mx in 0..mcus_x {
            if interval > 0 && mcu > 0 && mcu.is_multiple_of(interval) {
                writer.put_restart_marker(((mcu / interval - 1) % 8) as u8);
                preds.fill(0);
            }
            mcu += 1;
            for (c, &(h, v)) in factors.iter().enumerate() {
                let plane = coeffs.plane(c);
                let (dc, ac) = (&tables[2 * c.min(1)], &tables[2 * c.min(1) + 1]);
                for bv in 0..v {
                    for bh in 0..h {
                        let bx = (mx * h + bh).min(plane.blocks_x() - 1);
                        let by = (my * v + bv).min(plane.blocks_y() - 1);
                        reference_block(&mut writer, plane.block(bx, by), &mut preds[c], dc, ac)?;
                    }
                }
            }
        }
    }
    Ok(writer.finish())
}

/// A JFIF stream's entropy-coded scan and its Huffman tables, in
/// [`reference_scan`]'s order (chroma entries stay Annex-K for a gray
/// stream, which defines none).
fn split_stream(stream: &[u8]) -> (&[u8], [HuffmanTable; 4]) {
    let mut tables = [
        HuffmanTable::dc_luma(),
        HuffmanTable::ac_luma(),
        HuffmanTable::dc_chroma(),
        HuffmanTable::ac_chroma(),
    ];
    let mut pos = 2; // SOI
    loop {
        assert_eq!(stream[pos], 0xFF, "a marker at {pos}");
        let marker = stream[pos + 1];
        let len = usize::from(u16::from_be_bytes([stream[pos + 2], stream[pos + 3]]));
        let payload = &stream[pos + 4..pos + 2 + len];
        if marker == 0xDA {
            // The scan runs from the end of the SOS header to EOI.
            return (&stream[pos + 2 + len..stream.len() - 2], tables);
        }
        if marker == 0xC4 {
            let mut rest = payload;
            while let [class_id, rest_after @ ..] = rest {
                let bits: [u8; 16] = rest_after[..16].try_into().expect("sixteen counts");
                let count: usize = bits.iter().map(|&b| usize::from(b)).sum();
                let vals = &rest_after[16..16 + count];
                let slot = 2 * usize::from(class_id & 0x0F) + usize::from(class_id >> 4);
                tables[slot] = HuffmanTable::new(bits, vals);
                rest = &rest_after[16 + count..];
            }
        }
        pos += 2 + len;
    }
}

/// Hand-built blocks: a lone level at each zig-zag position; one level
/// after runs of 15, 16, 17, 31, 32, 47, 48 and 62 zeros, from the start
/// and after a first level; every third level set, one block per
/// magnitude; every coefficient nonzero (so no EOB); and an all-zero
/// block. The magnitudes are both ends of each AC category 1–10, both
/// signs; the DC differences walk categories 0–11.
fn hand_built_blocks() -> Vec<[i32; BLOCK_AREA]> {
    let magnitudes: Vec<i32> = (1..=10)
        .flat_map(|c| [1 << (c - 1), (1 << c) - 1])
        .flat_map(|m| [m, -m])
        .collect();
    let mut zigzag_blocks: Vec<[i32; BLOCK_AREA]> = Vec::new();
    for k in 1..BLOCK_AREA {
        let mut zz = [0; BLOCK_AREA];
        zz[k] = magnitudes[k % magnitudes.len()];
        zigzag_blocks.push(zz);
    }
    for run in [15, 16, 17, 31, 32, 47, 48, 62] {
        let mut zz = [0; BLOCK_AREA];
        zz[1 + run] = magnitudes[run % magnitudes.len()];
        zigzag_blocks.push(zz);
        if 2 + run < BLOCK_AREA {
            let mut zz = [0; BLOCK_AREA];
            zz[1] = -3;
            zz[2 + run] = 700;
            zigzag_blocks.push(zz);
        }
    }
    for m in &magnitudes {
        let mut zz = [0; BLOCK_AREA];
        zz[1..].iter_mut().enumerate().for_each(|(k, v)| *v = if k % 3 == 0 { *m } else { 0 });
        zigzag_blocks.push(zz);
    }
    let mut dense = [0; BLOCK_AREA];
    dense[1..].iter_mut().enumerate().for_each(|(k, v)| *v = magnitudes[k % magnitudes.len()]);
    zigzag_blocks.push(dense);
    zigzag_blocks.push([0; BLOCK_AREA]);
    let dc = [0, 0, 1, -1, 2, -2, 5, -5, 12, -12, 25, -25, 50, -50, 100, -100, 200, -200, 400, -400, 800, -800];
    zigzag_blocks
        .iter()
        .enumerate()
        .map(|(i, zz)| {
            let mut natural = [0; BLOCK_AREA];
            for (k, &n) in ZIGZAG.iter().enumerate() {
                natural[n] = zz[k];
            }
            natural[0] = dc[i % dc.len()];
            natural
        })
        .collect()
}

/// A coefficient image laying `blocks` out as a grid `columns` blocks
/// wide in every component (chroma at the subsampled grid's size),
/// padded with repeats of the first block.
fn block_image(blocks: &[[i32; BLOCK_AREA]], channels: usize, sampling: ChromaSampling) -> CoeffImage {
    let columns = 12;
    let (sx, sy) = match (channels, sampling) {
        (1, _) | (_, ChromaSampling::Cs444) => (1, 1),
        (_, ChromaSampling::Cs422) => (2, 1),
        (_, ChromaSampling::Cs420) => (2, 2),
    };
    let rows = blocks.len().div_ceil(columns).div_ceil(sy) * sy;
    let (width, height) = (columns * BLOCK, rows * BLOCK);
    let plane = |bx: usize, by: usize, offset: usize| {
        let mut plane = CoeffPlane::zeros(bx, by, bx * BLOCK, by * BLOCK);
        for y in 0..by {
            for x in 0..bx {
                *plane.block_mut(x, y) = blocks[(offset + y * bx + x) % blocks.len()];
            }
        }
        plane
    };
    let mut planes = vec![plane(columns, rows, 0)];
    let mut qtables = vec![QuantTable::luma(50)];
    for c in 1..channels {
        planes.push(plane(columns / sx, rows / sy, 7 * c));
        qtables.push(QuantTable::chroma(50));
    }
    let sampling = if channels == 1 { ChromaSampling::Cs444 } else { sampling };
    CoeffImage::from_parts(planes, qtables, sampling, width, height)
}

#[test]
fn symbol_walk_codes_the_bytes_of_the_zigzag_scan() {
    let _tier = tier_lock();
    let blocks = hand_built_blocks();
    let images = [
        ("gray", block_image(&blocks, 1, ChromaSampling::Cs444)),
        ("4:4:4", block_image(&blocks, 3, ChromaSampling::Cs444)),
        ("4:2:2", block_image(&blocks, 3, ChromaSampling::Cs422)),
        ("4:2:0", block_image(&blocks, 3, ChromaSampling::Cs420)),
    ];
    for (name, coeffs) in &images {
        let standard = encode_coefficients(coeffs).expect("Annex-K codes every level here");
        let (scan, tables) = split_stream(&standard);
        let want = reference_scan(coeffs, &tables, 0).expect("reference, Annex-K");
        assert!(scan == want.as_slice(), "{name}: Annex-K scan differs");

        let restarts = encode_coefficients_with_restarts(coeffs, 3).expect("Annex-K, restarts");
        let (scan, tables) = split_stream(&restarts);
        let want = reference_scan(coeffs, &tables, 3).expect("reference, restarts");
        assert!(scan == want.as_slice(), "{name}: scan with restarts differs");

        let optimized = encode_coefficients_optimized(coeffs).expect("optimised tables");
        let (scan, tables) = split_stream(&optimized);
        let want = reference_scan(coeffs, &tables, 0).expect("reference, optimised tables");
        assert!(scan == want.as_slice(), "{name}: scan through optimised tables differs");
    }
}

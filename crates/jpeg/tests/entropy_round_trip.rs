//! The entropy decoder, which writes each level straight into the
//! zero-filled block of its plane, against the encoder: levels at every
//! zig-zag position, zero runs of 16 and more (ZRL), a last coefficient
//! at 63, and random sparse blocks, at the forced-scalar tier (bitwise
//! Huffman decode) and at the tier dispatch selects (table decode).

#![expect(
    clippy::disallowed_types,
    reason = "TIER serialises this test binary's tests; it is no product lock and has no rank"
)]

use std::sync::{Mutex, PoisonError};

use dcdiff_jpeg::quant::QuantTable;
use dcdiff_jpeg::simd::force_scalar;
use dcdiff_jpeg::zigzag::ZIGZAG;
use dcdiff_jpeg::{
    encode_coefficients, ChromaSampling, CoeffImage, CoeffPlane, JpegDecoder, BLOCK, BLOCK_AREA,
};
use proptest::prelude::*;

/// `force_scalar` is process-wide: every test here holds this lock, so
/// no test's dispatched side can run at another test's pinned tier.
static TIER: Mutex<()> = Mutex::new(());

/// Run `check` at the forced-scalar tier, then at the dispatched one.
fn at_every_tier(mut check: impl FnMut()) {
    let _serial = TIER.lock().unwrap_or_else(PoisonError::into_inner);
    force_scalar(true);
    let scalar = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut check));
    force_scalar(false);
    if let Err(panic) = scalar {
        std::panic::resume_unwind(panic);
    }
    check();
}

/// One gray plane of `blocks` (natural order), four blocks wide.
fn gray_stream(blocks: &[[i32; BLOCK_AREA]]) -> CoeffImage {
    let bx = 4;
    let by = blocks.len().div_ceil(bx);
    let mut plane = CoeffPlane::zeros(bx, by, bx * BLOCK, by * BLOCK);
    for (b, levels) in blocks.iter().enumerate() {
        *plane.block_mut(b % bx, b / bx) = *levels;
    }
    CoeffImage::from_parts(
        vec![plane],
        vec![QuantTable::luma(50)],
        ChromaSampling::Cs444,
        bx * BLOCK,
        by * BLOCK,
    )
}

fn assert_round_trips(stream: &CoeffImage) {
    let bytes = encode_coefficients(stream).expect("baseline levels encode");
    let decoded = JpegDecoder::decode_coefficients(&bytes).expect("own stream decodes");
    assert_eq!(decoded.plane(0), stream.plane(0));
}

/// A block with `levels` at the given zig-zag positions.
fn zigzag_block(levels: &[(usize, i32)]) -> [i32; BLOCK_AREA] {
    let mut block = [0; BLOCK_AREA];
    for &(k, level) in levels {
        block[ZIGZAG[k]] = level;
    }
    block
}

#[test]
fn entropy_decode_round_trips_every_position_and_run() {
    let mut blocks: Vec<[i32; BLOCK_AREA]> = (1..BLOCK_AREA)
        .map(|k| zigzag_block(&[(0, k as i32), (k, -(k as i32) - 1)]))
        .collect();
    blocks.extend([
        zigzag_block(&[(1, 3), (18, -2)]),          // a run of 16: one ZRL
        zigzag_block(&[(1, 1), (50, 7), (63, -1)]), // a run of 48: three ZRLs
        zigzag_block(&[(17, 5)]),                   // 16 zeros before the first AC
        zigzag_block(&[(63, 1023)]),                // only the last coefficient
        zigzag_block(&[(0, -1023), (33, -1023), (63, 1023)]),
        std::array::from_fn(|i| if i == 0 { 0 } else { (i as i32 % 5) - 2 }),
        [0; BLOCK_AREA],
    ]);
    at_every_tier(|| assert_round_trips(&gray_stream(&blocks)));
}

fn sparse_block() -> impl Strategy<Value = [i32; BLOCK_AREA]> {
    proptest::collection::vec((0usize..BLOCK_AREA, -1023i32..=1023), 0..12)
        .prop_map(|levels| zigzag_block(&levels))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn entropy_decode_round_trips_sparse_blocks(
        blocks in proptest::collection::vec(sparse_block(), 1..24)
    ) {
        at_every_tier(|| assert_round_trips(&gray_stream(&blocks)));
    }
}

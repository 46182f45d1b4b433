//! The receiver's outputs, pinned: the exact PSNR (the bits of an `f64`)
//! of every training-free recovery method against the full-DC decode, on
//! a handful of small DC-dropped streams, at each `idct` tier the host
//! runs. A change that claims to keep the receiver's outputs bit for bit
//! must leave every value here unchanged; one that moves an output on
//! purpose re-pins the table and says so.
//!
//! Each stream goes through the entropy coder and back, so the decoder's
//! block parsing is on the pinned path too. One `#[test]` covers both
//! tiers in turn: [`force_scalar`] is process-wide, so no other test in
//! this binary may run beside it.

use dcdiff_baselines::{DcRecovery, Icip2022, SmartCom2019, Tip2006};
use dcdiff_core::refine_dc_offsets;
use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_image::Image;
use dcdiff_jpeg::simd::{active, force_scalar, Tier};
use dcdiff_jpeg::{encode_coefficients, ChromaSampling, CoeffImage, DcDropMode, JpegDecoder};

/// One pinned stream: scene, size, and `None` for grayscale.
struct Input {
    kind: SceneKind,
    size: (usize, usize),
    sampling: Option<ChromaSampling>,
    seed: u64,
}

const INPUTS: [Input; 5] = [
    Input {
        kind: SceneKind::Natural,
        size: (32, 32),
        sampling: None,
        seed: 1,
    },
    Input {
        kind: SceneKind::Urban,
        size: (64, 64),
        sampling: Some(ChromaSampling::Cs444),
        seed: 2,
    },
    Input {
        kind: SceneKind::Smooth,
        size: (48, 40),
        sampling: Some(ChromaSampling::Cs420),
        seed: 3,
    },
    Input {
        kind: SceneKind::Texture,
        size: (37, 53),
        sampling: Some(ChromaSampling::Cs444),
        seed: 4,
    },
    Input {
        kind: SceneKind::Aerial,
        size: (53, 37),
        sampling: Some(ChromaSampling::Cs420),
        seed: 5,
    },
];

/// Columns of the pinned tables.
const METHODS: [&str; 4] = [
    "TIP-2006",
    "SmartCom-2019",
    "ICIP-2022",
    "neutral-prior refinement",
];

/// `f64::to_bits` of each method's PSNR per input, at the scalar tier
/// (35.52, 33.05, 36.99 and 37.62 dB on the first input).
const SCALAR: [[u64; 4]; 5] = [
    [
        0x4041c25390aa516b,
        0x404085d327464690,
        0x40427ee53d0b5d6d,
        0x4042cf44806c50b5,
    ],
    [
        0x403726415f5aa68e,
        0x402b05e6e74e7f36,
        0x4040e151d7cfcc2b,
        0x4041664ada1e5d40,
    ],
    [
        0x403b6bb6b50d8cdb,
        0x40411f20c1d4eb6d,
        0x40415fdc26e17e4b,
        0x404221d00a870bee,
    ],
    [
        0x4039e092d68ba824,
        0x4037b2e252fe6662,
        0x4040fe0bef2341c0,
        0x40413568b74c8d0d,
    ],
    [
        0x40382a1dd6b03a76,
        0x402b42e0ecab68fb,
        0x4038de159b7aea71,
        0x4039a015422f5519,
    ],
];

/// The same at the AVX2+FMA tier, whose `idct` and colour conversion
/// round differently.
const AVX2_FMA: [[u64; 4]; 5] = [
    [
        0x4041c253892b5534,
        0x404085d32a7909fa,
        0x40427ee53cb5d7c5,
        0x4042cf44803ae700,
    ],
    [
        0x403726415ee812c8,
        0x402b05e6ea38999a,
        0x4040e151d826fde1,
        0x4041664adc1fd787,
    ],
    [
        0x403b6bb6b6479cbd,
        0x40411f20c73b68f2,
        0x40415fdc2e88af2a,
        0x404221d00f1938a4,
    ],
    [
        0x4039e092e2e6510d,
        0x4037b2e2559a2efc,
        0x4040fe0bf3018df6,
        0x40413568ba29fa1c,
    ],
    [
        0x40382a1dd8e8229a,
        0x402b42e0ebfc0b5a,
        0x4038de15a2814234,
        0x4039a01543b23058,
    ],
];

/// PSNR over every sample of every plane, in `f64`: the squared
/// differences of two `f32`s are exact there, so only the sum's order
/// and `log10` set the bits.
fn psnr(a: &Image, b: &Image) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for (pa, pb) in a.planes().iter().zip(b.planes()) {
        for (&x, &y) in pa.as_slice().iter().zip(pb.as_slice()) {
            let d = f64::from(x) - f64::from(y);
            sum += d * d;
            n += 1;
        }
    }
    10.0 * (255.0 * 255.0 / (sum / n as f64)).log10()
}

/// Each method's PSNR bits on each input, at the tier dispatch selects now.
fn measure() -> [[u64; 4]; 5] {
    INPUTS.map(|input| {
        let (w, h) = input.size;
        let scene = SceneGenerator::new(input.kind, w, h).generate(input.seed);
        let (image, sampling) = match input.sampling {
            Some(s) => (scene, s),
            None => (scene.to_gray(), ChromaSampling::Cs444),
        };
        let coeffs = CoeffImage::from_image(&image, 50, sampling);
        let decode = |c: &CoeffImage| {
            JpegDecoder::decode_coefficients(&encode_coefficients(c).expect("encode"))
                .expect("decode")
        };
        let reference = decode(&coeffs).to_image();
        let dropped = decode(&coeffs.drop_dc(DcDropMode::KeepCorners));
        // `recover --method mld`'s settings: T = 10, λ = 5e-4, 300 sweeps.
        let neutral = refine_dc_offsets(&dropped, &dropped, 10.0, 5e-4, 300).to_image();
        [
            Tip2006::new().recover(&dropped),
            SmartCom2019::new().recover(&dropped),
            Icip2022::new().recover(&dropped),
            neutral,
        ]
        .map(|out| psnr(&reference, &out).to_bits())
    })
}

fn table(bits: &[[u64; 4]; 5]) -> String {
    let rows: Vec<String> = bits
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|b| format!("{b:#018x}")).collect();
            format!("    [{}],", cells.join(", "))
        })
        .collect();
    rows.join("\n")
}

#[test]
fn receiver_psnrs_are_pinned_at_every_tier() {
    force_scalar(true);
    let scalar = measure();
    force_scalar(false);
    let dispatched = measure();
    for (tier, got) in [(Tier::Scalar, scalar), (active(), dispatched)] {
        let pinned = if tier == Tier::Scalar {
            SCALAR
        } else {
            AVX2_FMA
        };
        assert!(
            got == pinned,
            "{} tier: receiver PSNRs moved; measured ({}):\n{}",
            tier.name(),
            METHODS.join(", "),
            table(&got)
        );
    }
}

//! Seeded inputs: synthetic scenes, their full-DC coefficients and the
//! DC-dropped JPEG streams the sender would transmit.

use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_image::Image;
use dcdiff_jpeg::{encode_coefficients, CoeffImage, DcDropMode, JpegEncoder};

use crate::report::mean;

/// JPEG quality of every stream (the paper's operating point, as in
/// `dcdiff_bench::QUALITY`).
pub const QUALITY: u8 = 50;

/// Scene kinds, cycled so each workload covers every content class.
const KINDS: [SceneKind; 5] = [
    SceneKind::Smooth,
    SceneKind::Natural,
    SceneKind::Texture,
    SceneKind::Urban,
    SceneKind::Aerial,
];

/// One distinct input of a workload.
pub struct Input {
    /// The source scene.
    pub scene: Image,
    /// Quantised coefficients with every DC term kept.
    pub full: CoeffImage,
    /// The same coefficients after `drop_dc(KeepCorners)`.
    pub dropped: CoeffImage,
    /// The DC-dropped stream, entropy-coded: all the receiver gets.
    pub jpeg: Vec<u8>,
}

/// The sender's whole operation: forward DCT and quantisation, DC drop,
/// entropy coding (4:4:4, quality [`QUALITY`]).
///
/// # Errors
///
/// The encoder's error, rendered.
pub fn sender_encode(scene: &Image) -> Result<(CoeffImage, Vec<u8>), String> {
    let dropped = JpegEncoder::new(QUALITY)
        .to_coefficients(scene)
        .drop_dc(DcDropMode::KeepCorners);
    let jpeg = encode_coefficients(&dropped).map_err(|e| format!("encode: {e}"))?;
    Ok((dropped, jpeg))
}

/// `count` distinct `size`×`size` inputs derived from `seed`.
///
/// # Errors
///
/// The encoder's error, rendered.
pub fn generate(seed: u64, count: usize, size: usize) -> Result<Vec<Input>, String> {
    (0..count)
        .map(|i| {
            let kind = KINDS[i % KINDS.len()];
            let scene_seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
            let scene = SceneGenerator::new(kind, size, size).generate(scene_seed);
            let full = JpegEncoder::new(QUALITY).to_coefficients(&scene);
            let (dropped, jpeg) = sender_encode(&scene)?;
            Ok(Input {
                scene,
                full,
                dropped,
                jpeg,
            })
        })
        .collect()
}

/// Mean bits per pixel of the transmitted streams.
pub fn mean_bpp(inputs: &[Input]) -> f64 {
    let bpp: Vec<f64> = inputs
        .iter()
        .map(|i| (i.jpeg.len() * 8) as f64 / (i.scene.width() * i.scene.height()) as f64)
        .collect();
    mean(&bpp)
}

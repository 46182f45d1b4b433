//! Pixel ↔ tensor conversion and the DC projection.
//!
//! DC projection is the receiver-side contract of the whole DC-drop
//! pipeline: the AC coefficients arrived bit-exact in the JPEG stream, so
//! the final reconstruction keeps them unchanged and takes *only* the
//! per-block means from the generated image. Estimation quality therefore
//! reduces to one scalar per block — exactly the quantity the paper's
//! diffusion model is asked to produce.

use dcdiff_image::{ColorSpace, Image, Plane};
use dcdiff_jpeg::{ChromaSampling, CoeffImage};
use dcdiff_tensor::Tensor;

/// Convert an RGB image to a normalised `[1, 3, H, W]` tensor in
/// `[-1, 1]`.
pub fn image_to_tensor(image: &Image) -> Tensor {
    let rgb = image.to_rgb();
    let (w, h) = rgb.dims();
    let mut data = Vec::with_capacity(3 * w * h);
    for c in 0..3 {
        data.extend(rgb.plane(c).as_slice().iter().map(|&v| v / 127.5 - 1.0));
    }
    Tensor::from_vec(vec![1, 3, h, w], data)
}

/// Convert a `[1, 3, H, W]` tensor in `[-1, 1]` back to an RGB image
/// (clamped to `[0, 255]`).
///
/// # Panics
///
/// Panics unless the tensor is `[1, 3, H, W]`.
pub fn tensor_to_image(tensor: &Tensor) -> Image {
    let shape = tensor.shape();
    assert_eq!(shape.len(), 4, "expected NCHW");
    assert_eq!(shape[0], 1, "expected a single sample");
    assert_eq!(shape[1], 3, "expected 3 channels");
    let (h, w) = (shape[2], shape[3]);
    let data = tensor.to_vec();
    let planes: Vec<Plane> = (0..3)
        .map(|c| {
            let mut p = Plane::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    p.set(x, y, ((data[(c * h + y) * w + x] + 1.0) * 127.5).clamp(0.0, 255.0));
                }
            }
            p
        })
        .collect();
    Image::from_planes(planes, ColorSpace::Rgb).expect("planes share dimensions")
}

/// Project a generated image onto the received coefficients: keep every
/// AC coefficient from `dropped` bit-exact and overwrite each block's DC
/// level with the (quantised) per-block mean of `generated`.
///
/// Corner anchors with known DC are left untouched. Returns the projected
/// coefficient image; call `.to_image()` for pixels.
///
/// # Panics
///
/// Panics if `generated` has different dimensions from the coded image.
pub fn project_dc(dropped: &CoeffImage, generated: &Image) -> CoeffImage {
    assert_eq!(
        (generated.width(), generated.height()),
        (dropped.width(), dropped.height()),
        "generated image must match coded dimensions"
    );
    let mut out = dropped.clone();
    let ycbcr = generated.to_ycbcr();
    let corners = |bx_max: usize, by_max: usize| {
        [(0, 0), (bx_max, 0), (0, by_max), (bx_max, by_max)]
    };
    for c in 0..dropped.channels() {
        // chroma planes are reduced resolution under 4:2:2 / 4:2:0
        let (plane, sub_x, sub_y) = match (c, dropped.sampling()) {
            (0, _) | (_, ChromaSampling::Cs444) => {
                (ycbcr.plane(c.min(ycbcr.channels() - 1)).clone(), 1usize, 1usize)
            }
            (_, ChromaSampling::Cs422) => (ycbcr.plane(c).clone(), 2, 1),
            (_, ChromaSampling::Cs420) => (ycbcr.plane(c).clone(), 2, 2),
        };
        let q0 = dropped.qtable(c).values()[0] as f32;
        let coeff = out.plane_mut(c);
        let (bx_max, by_max) = (coeff.blocks_x() - 1, coeff.blocks_y() - 1);
        let anchor_set = corners(bx_max, by_max);
        for by in 0..=by_max {
            for bx in 0..=bx_max {
                if anchor_set.contains(&(bx, by)) {
                    continue; // the transmitted anchor is authoritative
                }
                let mut sum = 0.0f32;
                let mut count = 0usize;
                for y in 0..8 {
                    for x in 0..8 {
                        let px = (bx * 8 + x) * sub_x;
                        let py = (by * 8 + y) * sub_y;
                        if px < plane.width() && py < plane.height() {
                            sum += plane.get(px, py) - 128.0;
                            count += 1;
                        }
                    }
                }
                if count > 0 {
                    let offset = sum / count as f32;
                    let level = (offset * 8.0 / q0).round() as i32;
                    coeff.set_dc(bx, by, level);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_jpeg::DcDropMode;

    fn test_image() -> Image {
        Image::from_planes(
            vec![
                Plane::from_fn(32, 32, |x, y| ((x * 6 + y * 2) % 256) as f32),
                Plane::from_fn(32, 32, |x, y| ((x + y * 5) % 256) as f32),
                Plane::from_fn(32, 32, |x, _| ((x * 3) % 256) as f32),
            ],
            ColorSpace::Rgb,
        )
        .unwrap()
    }

    #[test]
    fn tensor_round_trip() {
        let img = test_image();
        let t = image_to_tensor(&img);
        assert_eq!(t.shape(), &[1, 3, 32, 32]);
        let back = tensor_to_image(&t);
        assert!(img.mean_abs_diff(&back) < 0.01);
    }

    #[test]
    fn projecting_the_oracle_recovers_jpeg_quality() {
        // projecting the true (JPEG-decoded) image restores the DC levels
        // almost exactly
        let img = test_image();
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let reference = coeffs.to_image();
        let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
        let projected = project_dc(&dropped, &reference);
        for c in 0..3 {
            for by in 0..coeffs.plane(c).blocks_y() {
                for bx in 0..coeffs.plane(c).blocks_x() {
                    let got = projected.plane(c).dc(bx, by);
                    let want = coeffs.plane(c).dc(bx, by);
                    assert!(
                        (got - want).abs() <= 1,
                        "c{c} block {bx},{by}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn projection_preserves_ac_exactly() {
        let img = test_image();
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
        // project a completely wrong image: AC must still be untouched
        let wrong = Image::filled(32, 32, ColorSpace::Rgb, 0.0);
        let projected = project_dc(&dropped, &wrong);
        for c in 0..3 {
            for by in 0..coeffs.plane(c).blocks_y() {
                for bx in 0..coeffs.plane(c).blocks_x() {
                    assert_eq!(
                        projected.plane(c).block(bx, by)[1..],
                        dropped.plane(c).block(bx, by)[1..]
                    );
                }
            }
        }
    }

    #[test]
    fn anchors_survive_projection() {
        let img = test_image();
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
        let wrong = Image::filled(32, 32, ColorSpace::Rgb, 30.0);
        let projected = project_dc(&dropped, &wrong);
        assert_eq!(projected.plane(0).dc(0, 0), coeffs.plane(0).dc(0, 0));
    }
}

//! The PPM/PGM writers emit exactly the bytes of the loop they replaced:
//! convert the whole image (`to_rgb` / `to_gray`), then round, clamp and
//! interleave every sample into one buffer.

use dcdiff_image::{write_pgm, write_ppm, ColorSpace, Image, Plane};

/// The replaced writer's bytes for `image` as `P6` (`gray == false`) or
/// `P5`.
fn reference_bytes(image: &Image, gray: bool) -> Vec<u8> {
    let (converted, magic) = if gray {
        (image.to_gray(), "P5")
    } else {
        (image.to_rgb(), "P6")
    };
    let (w, h) = converted.dims();
    let mut out = format!("{magic}\n{w} {h}\n255\n").into_bytes();
    for i in 0..w * h {
        for plane in converted.planes() {
            out.push(plane.as_slice()[i].round().clamp(0.0, 255.0) as u8);
        }
    }
    out
}

/// Samples over `[-20, 280)` in quarter steps (so exact halves and both
/// clamp rails occur), with NaN, ±∞ and −0.0 planted at fixed spots.
fn plane(w: usize, h: usize, seed: u32) -> Plane {
    let mut state = seed | 1;
    let mut p = Plane::from_fn(w, h, |_, _| {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (state >> 8) as f32 % 1200.0 / 4.0 - 20.0
    });
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 254.5, 0.499_999_97];
    for (i, v) in specials.into_iter().enumerate() {
        let at = (i * 7 + seed as usize) % (w * h);
        p.as_mut_slice()[at] = v;
    }
    p
}

fn images(w: usize, h: usize) -> Vec<Image> {
    let three = |space| {
        Image::from_planes(vec![plane(w, h, 1), plane(w, h, 2), plane(w, h, 3)], space)
            .expect("equal planes")
    };
    vec![
        three(ColorSpace::Rgb),
        three(ColorSpace::YCbCr),
        Image::from_gray(plane(w, h, 4)),
    ]
}

#[test]
fn ppm_and_pgm_bytes_equal_the_replaced_loop() {
    let dir = std::env::temp_dir().join(format!("dcdiff-pnm-output-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (w, h) in [(1, 1), (7, 5), (513, 9)] {
        for image in images(w, h) {
            let space = image.color_space();
            let ppm = dir.join("out.ppm");
            write_ppm(&ppm, &image).expect("write ppm");
            let written = std::fs::read(&ppm).expect("read ppm");
            assert!(
                written == reference_bytes(&image, false),
                "{space} {w}x{h}: PPM bytes differ"
            );
            let pgm = dir.join("out.pgm");
            write_pgm(&pgm, &image).expect("write pgm");
            let written = std::fs::read(&pgm).expect("read pgm");
            assert!(
                written == reference_bytes(&image, true),
                "{space} {w}x{h}: PGM bytes differ"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! The statistical baselines decode their estimate without copying the
//! coefficients: `recover` substitutes the estimated DC levels at
//! dequantisation (`CoeffImage::to_image_with_dc`). That must be bit for
//! bit the decode of the copy `recover_coefficients` returns, and of the
//! levels `estimate_dc` returns.

use dcdiff_baselines::{DcRecovery, Icip2022, SmartCom2019, Tii2021, Tip2006};
use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_image::Image;
use dcdiff_jpeg::{ChromaSampling, CoeffImage, DcDropMode};

fn bits(image: &Image) -> Vec<Vec<u32>> {
    image
        .planes()
        .iter()
        .map(|p| p.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn recover_is_the_decode_of_recover_coefficients_bit_for_bit() {
    let methods: [&dyn DcRecovery; 3] = [&Tip2006::new(), &SmartCom2019::new(), &Icip2022::new()];
    let layouts = [
        ("gray", None),
        ("4:4:4", Some(ChromaSampling::Cs444)),
        ("4:2:2", Some(ChromaSampling::Cs422)),
        ("4:2:0", Some(ChromaSampling::Cs420)),
    ];
    for (i, (w, h)) in [(37, 29), (53, 17), (9, 41)].into_iter().enumerate() {
        let kind = [SceneKind::Urban, SceneKind::Natural, SceneKind::Texture][i];
        let scene = SceneGenerator::new(kind, w, h).generate(i as u64 + 3);
        for (layout, sampling) in layouts {
            let coeffs = match sampling {
                Some(sampling) => CoeffImage::from_image(&scene, 50, sampling),
                None => CoeffImage::from_image(&scene.to_gray(), 50, ChromaSampling::Cs444),
            };
            let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
            for method in methods {
                let direct = method.recover(&dropped);
                let copied = method.recover_coefficients(&dropped).to_image();
                assert_eq!(direct.color_space(), copied.color_space());
                assert!(
                    bits(&direct) == bits(&copied),
                    "{} on {layout} {w}x{h}: recover differs from recover_coefficients",
                    method.name()
                );
            }
        }
    }
}

/// Every method's outputs are provided over `estimate_dc`: `recover` is
/// the decode of its levels, and `recover_coefficients` the copy holding
/// them. TII-2021 keeps its image-domain `recover` (the corrector's
/// pixels), so only its coefficient output is pinned to its levels.
#[test]
fn outputs_are_the_estimated_levels() {
    let statistical: [&dyn DcRecovery; 3] =
        [&Tip2006::new(), &SmartCom2019::new(), &Icip2022::new()];
    let tii = Tii2021::new(5);
    let scene = SceneGenerator::new(SceneKind::Natural, 41, 27).generate(9);
    for sampling in [ChromaSampling::Cs444, ChromaSampling::Cs422, ChromaSampling::Cs420] {
        let dropped = CoeffImage::from_image(&scene, 50, sampling).drop_dc(DcDropMode::KeepCorners);
        for method in statistical {
            let levels = method.estimate_dc(&dropped);
            assert!(
                bits(&method.recover(&dropped)) == bits(&dropped.to_image_with_dc(&levels)),
                "{} at {sampling}: recover is not the decode of estimate_dc",
                method.name()
            );
            assert_eq!(method.recover_coefficients(&dropped), dropped.with_dc_levels(&levels));
        }
        let levels = tii.estimate_dc(&dropped);
        assert_eq!(tii.recover_coefficients(&dropped), dropped.with_dc_levels(&levels));
    }
}

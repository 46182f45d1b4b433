//! Qiu et al., *Deep residual learning-based enhanced JPEG compression in
//! the Internet of Things* (IEEE TII 2021).

use dcdiff_image::{ColorSpace, Image, Plane};
use dcdiff_jpeg::{ChromaSampling, CoeffImage, DcDropMode};
use dcdiff_nn::{Conv2d, Module};
use dcdiff_tensor::optim::Adam;
use dcdiff_tensor::serial::{Checkpoint, CheckpointError};
use dcdiff_tensor::{seeded_rng, Tensor};
use rand::Rng;

use crate::common::AcField;
use crate::{DcRecovery, SmartCom2019};

/// IEEE TII-2021 recovery: the SmartCom-2019 statistical estimate followed
/// by a residual CNN trained with MSE to correct propagation errors.
///
/// The corrector is a three-layer residual network operating on the
/// recovered RGB image; because it optimises MSE only, it over-smooths —
/// reproducing the paper's observation that TII-2021 has the worst
/// perceptual (LPIPS) scores despite decent PSNR.
#[derive(Debug)]
pub struct Tii2021 {
    base: SmartCom2019,
    conv1: Conv2d,
    conv2: Conv2d,
    conv3: Conv2d,
    trained: bool,
}

impl Tii2021 {
    /// Create an untrained corrector (behaves like SmartCom-2019 until
    /// [`Tii2021::train`] is called, because the last layer starts at
    /// zero).
    pub fn new(seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        Self {
            base: SmartCom2019::new(),
            conv1: Conv2d::new(3, 16, 3, 1, 1, &mut rng),
            conv2: Conv2d::new(16, 16, 3, 1, 1, &mut rng),
            conv3: Conv2d::zeroed(16, 3, 3, 1, 1),
            trained: false,
        }
    }

    /// Whether [`Tii2021::train`] has completed at least once.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.conv1.params();
        p.extend(self.conv2.params());
        p.extend(self.conv3.params());
        p
    }

    /// Train the residual corrector on `originals`: each image is
    /// JPEG-coded at `quality`, DC-dropped, recovered with SmartCom-2019,
    /// and the CNN learns the residual to the JPEG reference on random
    /// 32×32 patches.
    ///
    /// # Panics
    ///
    /// Panics if `originals` is empty or any image is smaller than 32×32.
    pub fn train(&mut self, originals: &[Image], quality: u8, steps: usize, seed: u64) {
        assert!(!originals.is_empty(), "need at least one training image");
        const PATCH: usize = 32;
        let mut rng = seeded_rng(seed);
        // Precompute (recovered, reference) pixel pairs once.
        let pairs: Vec<(Image, Image)> = originals
            .iter()
            .map(|img| {
                assert!(
                    img.width() >= PATCH && img.height() >= PATCH,
                    "training images must be at least 32x32"
                );
                let coeffs = CoeffImage::from_image(img, quality, ChromaSampling::Cs444);
                let reference = coeffs.to_image();
                let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
                (self.base.recover(&dropped), reference)
            })
            .collect();
        let mut opt = Adam::new(self.params(), 5e-4);
        let batch = 4usize;
        for _ in 0..steps {
            let mut xs = Vec::with_capacity(batch * 3 * PATCH * PATCH);
            let mut ys = Vec::with_capacity(batch * 3 * PATCH * PATCH);
            for _ in 0..batch {
                let (rec, reference) = &pairs[rng.gen_range(0..pairs.len())];
                let x0 = rng.gen_range(0..=rec.width() - PATCH);
                let y0 = rng.gen_range(0..=rec.height() - PATCH);
                for c in 0..3 {
                    for y in 0..PATCH {
                        for x in 0..PATCH {
                            xs.push(rec.plane(c).get(x0 + x, y0 + y) / 127.5 - 1.0);
                            ys.push(reference.plane(c).get(x0 + x, y0 + y) / 127.5 - 1.0);
                        }
                    }
                }
            }
            let x = Tensor::from_vec(vec![batch, 3, PATCH, PATCH], xs);
            let y = Tensor::from_vec(vec![batch, 3, PATCH, PATCH], ys);
            opt.zero_grad();
            self.correct_tensor(&x).mse(&y).backward();
            opt.step();
        }
        self.trained = true;
    }

    /// Residual forward pass on a normalised `[N, 3, H, W]` tensor.
    fn correct_tensor(&self, x: &Tensor) -> Tensor {
        let h = self.conv1.forward(x).relu();
        let h = self.conv2.forward(&h).relu();
        x.add(&self.conv3.forward(&h))
    }

    /// Apply the trained corrector to a recovered RGB image.
    pub fn correct(&self, image: &Image) -> Image {
        let rgb = image.to_rgb();
        let (w, h) = rgb.dims();
        let mut data = Vec::with_capacity(3 * w * h);
        for c in 0..3 {
            data.extend(rgb.plane(c).as_slice().iter().map(|&v| v / 127.5 - 1.0));
        }
        let x = Tensor::from_vec(vec![1, 3, h, w], data);
        let y = self.correct_tensor(&x);
        let out = y.to_vec();
        let planes: Vec<Plane> = (0..3)
            .map(|c| {
                let mut p = Plane::new(w, h);
                for yy in 0..h {
                    for xx in 0..w {
                        p.set(
                            xx,
                            yy,
                            ((out[c * w * h + yy * w + xx] + 1.0) * 127.5).clamp(0.0, 255.0),
                        );
                    }
                }
                p
            })
            .collect();
        Image::from_planes(planes, ColorSpace::Rgb).expect("planes share dimensions")
    }

    /// Save the corrector weights.
    pub fn save(&self, ckpt: &mut Checkpoint) {
        self.conv1.save("tii2021.conv1", ckpt);
        self.conv2.save("tii2021.conv2", ckpt);
        self.conv3.save("tii2021.conv3", ckpt);
    }

    /// Load corrector weights previously written by [`Tii2021::save`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when tensors are missing or
    /// mis-shaped.
    pub fn load(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.conv1.load("tii2021.conv1", ckpt)?;
        self.conv2.load("tii2021.conv2", ckpt)?;
        self.conv3.load("tii2021.conv3", ckpt)?;
        self.trained = true;
        Ok(())
    }
}

impl DcRecovery for Tii2021 {
    fn name(&self) -> &'static str {
        "IEEE TII 2021"
    }

    fn recover(&self, dropped: &CoeffImage) -> Image {
        self.correct(&self.base.recover(dropped))
    }

    /// The statistical estimate, refined by re-projecting the
    /// CNN-corrected picture onto the block means (4:4:4 colour streams
    /// only; elsewhere the SmartCom-2019 levels as they are).
    fn estimate_dc(&self, dropped: &CoeffImage) -> Vec<Vec<i32>> {
        let mut levels = self.base.estimate_dc(dropped);
        if dropped.channels() == 3 && dropped.sampling() == ChromaSampling::Cs444 {
            let ycbcr = self.recover(dropped).to_ycbcr();
            for (c, levels) in levels.iter_mut().enumerate() {
                let field = AcField::new(dropped.plane(c), dropped.qtable(c));
                let plane = ycbcr.plane(c);
                for by in 0..field.blocks_y {
                    for bx in 0..field.blocks_x {
                        let mut mean = 0.0f32;
                        let mut count = 0usize;
                        for y in 0..8 {
                            for x in 0..8 {
                                let (px, py) = (bx * 8 + x, by * 8 + y);
                                if px < plane.width() && py < plane.height() {
                                    mean += plane.get(px, py) - 128.0;
                                    count += 1;
                                }
                            }
                        }
                        if count > 0 {
                            levels[field.idx(bx, by)] = field.offset_to_level(mean / count as f32);
                        }
                    }
                }
            }
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_data::{DatasetProfile, SceneGenerator, SceneKind};
    use dcdiff_metrics::psnr;

    #[test]
    fn untrained_corrector_is_identity() {
        let img = SceneGenerator::new(SceneKind::Natural, 48, 48).generate(0);
        let method = Tii2021::new(0);
        let corrected = method.correct(&img);
        assert!(img.mean_abs_diff(&corrected) < 1e-3);
        assert!(!method.is_trained());
    }

    #[test]
    fn training_improves_over_plain_smartcom() {
        let train_set = DatasetProfile::urban100()
            .with_count(6)
            .with_dims(64, 64)
            .generate(100);
        let mut method = Tii2021::new(1);
        method.train(&train_set, 50, 150, 42);
        assert!(method.is_trained());

        // evaluate on held-out scenes from the same hard content class
        let mut tii_total = 0.0;
        let mut smart_total = 0.0;
        for img in DatasetProfile::urban100()
            .with_count(3)
            .with_dims(64, 64)
            .generate(999)
        {
            let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
            let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
            let reference = coeffs.to_image();
            tii_total += psnr(&reference, &method.recover(&dropped));
            smart_total += psnr(&reference, &SmartCom2019::new().recover(&dropped));
        }
        assert!(
            tii_total > smart_total - 1.0,
            "trained corrector regressed: {tii_total} vs {smart_total}"
        );
    }

    #[test]
    fn weights_round_trip_through_checkpoint() {
        let mut a = Tii2021::new(3);
        let train_set = DatasetProfile::set5().with_dims(48, 48).generate(1);
        a.train(&train_set, 50, 10, 3);
        let mut ckpt = Checkpoint::new();
        a.save(&mut ckpt);
        let mut b = Tii2021::new(99);
        b.load(&ckpt).unwrap();
        let img = SceneGenerator::new(SceneKind::Smooth, 48, 48).generate(2);
        assert!(a.correct(&img).mean_abs_diff(&b.correct(&img)) < 1e-4);
    }
}

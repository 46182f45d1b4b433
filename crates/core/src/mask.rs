//! The Eq. 3 spatial mask.
//!
//! After the sender drops DC, the receiver's IDCT output `x̃` contains
//! only the weighted sum of AC basis functions: pixels with large
//! magnitude sit in high-frequency regions (complex texture, sharp
//! edges) where the Laplacian neighbour prior breaks down (Fig. 4 of the
//! paper). The mask keeps exactly the pixels whose AC energy is below a
//! threshold `T`:
//!
//! `M(i,j) = 1` if `|x̃(i,j)| <= T` else `0`
//!
//! (our decoded `x̃` is re-centred at 128, so the magnitude is
//! `|x̃ − 128|`).

use dcdiff_image::{Image, Plane};

pub use dcdiff_baselines::DEFAULT_THRESHOLD;

/// Compute the Eq. 3 mask from the DC-less reconstruction `x_tilde`
/// (luma-based): 1 for low-frequency pixels, 0 for high-frequency ones.
///
/// # Example
///
/// ```
/// use dcdiff_image::{ColorSpace, Image};
/// use dcdiff_core::mask::high_frequency_mask;
///
/// // a perfectly flat x̃ (all AC zero) is entirely low-frequency
/// let flat = Image::filled(16, 16, ColorSpace::Gray, 128.0);
/// let m = high_frequency_mask(&flat, 10.0);
/// assert_eq!(m.mean(), 1.0);
/// ```
pub fn high_frequency_mask(x_tilde: &Image, threshold: f32) -> Plane {
    let luma = x_tilde.to_gray().into_planes().remove(0);
    luma.map(|v| if (v - 128.0).abs() <= threshold { 1.0 } else { 0.0 })
}

/// Fraction of pixels kept by the mask (diagnostic for threshold sweeps).
pub fn mask_coverage(mask: &Plane) -> f32 {
    mask.mean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_image::{ColorSpace, Image};

    #[test]
    fn threshold_zero_keeps_only_exact_dc_pixels() {
        let mut img = Image::filled(8, 8, ColorSpace::Gray, 128.0);
        img.plane_mut(0).set(3, 3, 140.0);
        let m = high_frequency_mask(&img, 0.0);
        assert_eq!(m.get(3, 3), 0.0);
        assert_eq!(m.get(0, 0), 1.0);
    }

    #[test]
    fn larger_threshold_keeps_more_pixels() {
        let img = Image::from_gray(Plane::from_fn(16, 16, |x, _| 128.0 + x as f32));
        let c5 = mask_coverage(&high_frequency_mask(&img, 5.0));
        let c10 = mask_coverage(&high_frequency_mask(&img, 10.0));
        let c15 = mask_coverage(&high_frequency_mask(&img, 15.0));
        assert!(c5 < c10 && c10 < c15, "{c5} {c10} {c15}");
    }

    #[test]
    fn mask_is_binary() {
        let img = Image::from_gray(Plane::from_fn(8, 8, |x, y| (x * y * 17 % 255) as f32));
        let m = high_frequency_mask(&img, 10.0);
        assert!(m.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn symmetric_around_128() {
        let mut img = Image::filled(4, 1, ColorSpace::Gray, 128.0);
        img.plane_mut(0).set(0, 0, 128.0 + 12.0);
        img.plane_mut(0).set(1, 0, 128.0 - 12.0);
        let m = high_frequency_mask(&img, 10.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(2, 0), 1.0);
    }
}

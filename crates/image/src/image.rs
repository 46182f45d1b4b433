use crate::{ImageError, Plane};

/// Colour interpretation of an [`Image`]'s planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColorSpace {
    /// Single luminance plane.
    Gray,
    /// Three planes: red, green, blue (0..=255 nominal).
    Rgb,
    /// Three planes: luma Y and chroma Cb/Cr in the JPEG full-range
    /// BT.601 convention (all 0..=255 nominal, chroma centred at 128).
    YCbCr,
}

impl ColorSpace {
    /// Number of planes implied by the colour space.
    pub fn channels(self) -> usize {
        match self {
            ColorSpace::Gray => 1,
            ColorSpace::Rgb | ColorSpace::YCbCr => 3,
        }
    }
}

impl std::fmt::Display for ColorSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ColorSpace::Gray => "gray",
            ColorSpace::Rgb => "rgb",
            ColorSpace::YCbCr => "ycbcr",
        };
        f.write_str(name)
    }
}

/// A planar image: one ([`ColorSpace::Gray`]) or three planes of equal size.
///
/// # Example
///
/// ```
/// use dcdiff_image::{ColorSpace, Image, Plane};
///
/// let r = Plane::filled(4, 4, 255.0);
/// let g = Plane::filled(4, 4, 0.0);
/// let b = Plane::filled(4, 4, 0.0);
/// let red = Image::from_planes(vec![r, g, b], ColorSpace::Rgb)?;
/// let y = red.to_ycbcr();
/// // Pure red has luma ~76 in BT.601.
/// assert!((y.plane(0).get(0, 0) - 76.0).abs() < 1.0);
/// # Ok::<(), dcdiff_image::ImageError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    planes: Vec<Plane>,
    color_space: ColorSpace,
}

impl Image {
    /// Creates an image with all samples set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn filled(width: usize, height: usize, color_space: ColorSpace, value: f32) -> Self {
        let planes = (0..color_space.channels())
            .map(|_| Plane::filled(width, height, value))
            .collect();
        Self {
            planes,
            color_space,
        }
    }

    /// Creates an image from existing planes.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::ChannelMismatch`] when the plane count does not
    /// match `color_space`, or [`ImageError::SizeMismatch`] when the planes
    /// disagree on dimensions.
    pub fn from_planes(planes: Vec<Plane>, color_space: ColorSpace) -> Result<Self, ImageError> {
        if planes.len() != color_space.channels() {
            return Err(ImageError::ChannelMismatch {
                expected: color_space.channels(),
                actual: planes.len(),
            });
        }
        let dims = planes[0].dims();
        for p in &planes[1..] {
            if p.dims() != dims {
                return Err(ImageError::SizeMismatch {
                    expected: dims,
                    actual: p.dims(),
                });
            }
        }
        Ok(Self {
            planes,
            color_space,
        })
    }

    /// Creates a grayscale image wrapping a single plane.
    pub fn from_gray(plane: Plane) -> Self {
        Self {
            planes: vec![plane],
            color_space: ColorSpace::Gray,
        }
    }

    /// Image width in samples.
    pub fn width(&self) -> usize {
        self.planes[0].width()
    }

    /// Image height in samples.
    pub fn height(&self) -> usize {
        self.planes[0].height()
    }

    /// `(width, height)` pair.
    pub fn dims(&self) -> (usize, usize) {
        self.planes[0].dims()
    }

    /// Number of planes.
    pub fn channels(&self) -> usize {
        self.planes.len()
    }

    /// Colour interpretation of the planes.
    pub fn color_space(&self) -> ColorSpace {
        self.color_space
    }

    /// Borrow plane `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= channels()`.
    pub fn plane(&self, c: usize) -> &Plane {
        &self.planes[c]
    }

    /// Mutably borrow plane `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= channels()`.
    pub fn plane_mut(&mut self, c: usize) -> &mut Plane {
        &mut self.planes[c]
    }

    /// Borrow all planes.
    pub fn planes(&self) -> &[Plane] {
        &self.planes
    }

    /// Consume the image and return its planes.
    pub fn into_planes(self) -> Vec<Plane> {
        self.planes
    }

    /// Convert to RGB.
    ///
    /// Grayscale replicates the single plane; YCbCr applies the inverse
    /// BT.601 transform and clamps to `[0, 255]`.
    pub fn to_rgb(&self) -> Image {
        match self.color_space {
            ColorSpace::Rgb => self.clone(),
            ColorSpace::Gray => {
                let p = self.planes[0].clone();
                Image {
                    planes: vec![p.clone(), p.clone(), p],
                    color_space: ColorSpace::Rgb,
                }
            }
            ColorSpace::YCbCr => {
                let (w, h) = self.dims();
                let mut r = Plane::new(w, h);
                let mut g = Plane::new(w, h);
                let mut b = Plane::new(w, h);
                crate::color::ycbcr_to_rgb_rows(
                    self.planes[0].as_slice(),
                    self.planes[1].as_slice(),
                    self.planes[2].as_slice(),
                    r.as_mut_slice(),
                    g.as_mut_slice(),
                    b.as_mut_slice(),
                );
                Image {
                    planes: vec![r, g, b],
                    color_space: ColorSpace::Rgb,
                }
            }
        }
    }

    /// Convert to JPEG full-range YCbCr.
    ///
    /// Grayscale maps to luma with neutral (128) chroma.
    pub fn to_ycbcr(&self) -> Image {
        match self.color_space {
            ColorSpace::YCbCr => self.clone(),
            ColorSpace::Gray => {
                let (w, h) = self.dims();
                Image {
                    planes: vec![
                        self.planes[0].clone(),
                        Plane::filled(w, h, 128.0),
                        Plane::filled(w, h, 128.0),
                    ],
                    color_space: ColorSpace::YCbCr,
                }
            }
            ColorSpace::Rgb => {
                let (w, h) = self.dims();
                let mut y = Plane::new(w, h);
                let mut cb = Plane::new(w, h);
                let mut cr = Plane::new(w, h);
                crate::color::rgb_to_ycbcr_rows(
                    self.planes[0].as_slice(),
                    self.planes[1].as_slice(),
                    self.planes[2].as_slice(),
                    y.as_mut_slice(),
                    cb.as_mut_slice(),
                    cr.as_mut_slice(),
                );
                Image {
                    planes: vec![y, cb, cr],
                    color_space: ColorSpace::YCbCr,
                }
            }
        }
    }

    /// Convert to a single-plane grayscale image (BT.601 luma for RGB).
    pub fn to_gray(&self) -> Image {
        match self.color_space {
            ColorSpace::Gray => self.clone(),
            ColorSpace::YCbCr => Image::from_gray(self.planes[0].clone()),
            ColorSpace::Rgb => Image::from_gray(self.to_ycbcr().planes[0].clone()),
        }
    }

    /// Clamp every sample of every plane into `[lo, hi]` in place.
    pub fn clamp_in_place(&mut self, lo: f32, hi: f32) {
        for p in &mut self.planes {
            p.clamp_in_place(lo, hi);
        }
    }

    /// Crop all planes to `width x height` (top-left anchored).
    ///
    /// # Panics
    ///
    /// Panics if the target exceeds the current size.
    pub fn crop_to(&self, width: usize, height: usize) -> Image {
        Image {
            planes: self.planes.iter().map(|p| p.crop_to(width, height)).collect(),
            color_space: self.color_space,
        }
    }

    /// Pad all planes to the next multiple of the JPEG block size by edge
    /// replication.
    pub fn pad_to_block_multiple(&self) -> Image {
        Image {
            planes: self
                .planes
                .iter()
                .map(Plane::pad_to_block_multiple)
                .collect(),
            color_space: self.color_space,
        }
    }

    /// Mean absolute difference over all channels.
    ///
    /// # Panics
    ///
    /// Panics if the images have different shapes or channel counts.
    pub fn mean_abs_diff(&self, other: &Image) -> f32 {
        assert_eq!(self.channels(), other.channels(), "channel mismatch");
        let sum: f32 = self
            .planes
            .iter()
            .zip(&other.planes)
            .map(|(a, b)| a.mean_abs_diff(b))
            .sum();
        sum / self.channels() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_per_space() {
        assert_eq!(ColorSpace::Gray.channels(), 1);
        assert_eq!(ColorSpace::Rgb.channels(), 3);
        assert_eq!(ColorSpace::YCbCr.channels(), 3);
    }

    #[test]
    fn from_planes_validates() {
        let p = Plane::new(2, 2);
        assert!(Image::from_planes(vec![p.clone()], ColorSpace::Rgb).is_err());
        let q = Plane::new(3, 2);
        assert!(Image::from_planes(vec![p.clone(), p.clone(), q], ColorSpace::Rgb).is_err());
        assert!(Image::from_planes(vec![p.clone(), p.clone(), p], ColorSpace::Rgb).is_ok());
    }

    #[test]
    fn rgb_ycbcr_round_trip_is_close() {
        let img = Image::from_planes(
            vec![
                Plane::from_fn(8, 8, |x, y| ((x * 13 + y * 29) % 256) as f32),
                Plane::from_fn(8, 8, |x, y| ((x * 7 + y * 3) % 256) as f32),
                Plane::from_fn(8, 8, |x, y| ((x * 31 + y * 17) % 256) as f32),
            ],
            ColorSpace::Rgb,
        )
        .unwrap();
        let back = img.to_ycbcr().to_rgb();
        assert!(img.mean_abs_diff(&back) < 0.51, "round trip error too large");
    }

    #[test]
    fn gray_to_ycbcr_has_neutral_chroma() {
        let g = Image::from_gray(Plane::filled(4, 4, 100.0));
        let y = g.to_ycbcr();
        assert_eq!(y.plane(1).get(0, 0), 128.0);
        assert_eq!(y.plane(2).get(2, 2), 128.0);
        assert_eq!(y.plane(0).get(0, 0), 100.0);
    }

    #[test]
    fn neutral_gray_rgb_round_trip_exact_shape() {
        let img = Image::filled(4, 4, ColorSpace::Rgb, 128.0);
        let y = img.to_ycbcr();
        assert!((y.plane(0).get(0, 0) - 128.0).abs() < 0.5);
        assert!((y.plane(1).get(0, 0) - 128.0).abs() < 0.5);
    }

    #[test]
    fn crop_and_pad() {
        let img = Image::filled(10, 11, ColorSpace::Rgb, 1.0);
        let padded = img.pad_to_block_multiple();
        assert_eq!(padded.dims(), (16, 16));
        assert_eq!(padded.crop_to(10, 11).dims(), (10, 11));
    }
}

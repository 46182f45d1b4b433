use crate::{ImageError, BLOCK};

/// A single 2-D channel of `f32` samples stored in row-major order.
///
/// `Plane` is the workhorse container for the whole workspace: JPEG
/// component data, DC maps, masks and metric windows are all planes.
///
/// # Example
///
/// ```
/// use dcdiff_image::Plane;
///
/// let mut p = Plane::new(4, 2);
/// p.set(3, 1, 42.0);
/// assert_eq!(p.get(3, 1), 42.0);
/// assert_eq!(p.as_slice().len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Plane {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Plane {
    /// Creates a zero-filled plane.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: usize, height: usize) -> Self {
        Self::filled(width, height, 0.0)
    }

    /// Creates a plane filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        Self {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Creates a plane from row-major samples.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] if `data.len()` does not
    /// equal `width * height` or either dimension is zero.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Result<Self, ImageError> {
        if width == 0 || height == 0 || data.len() != width * height {
            return Err(ImageError::InvalidDimensions {
                width,
                height,
                samples: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Creates a plane by evaluating `f(x, y)` at every sample.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        // The loops above fill the vec to exactly width*height.
        Self::from_vec(width, height, data).expect("from_fn dimensions are consistent")
    }

    /// Plane width in samples.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in samples.
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Total sample count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the plane holds zero samples (never true for a valid plane).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the row-major sample buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the row-major sample buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.width && y < self.height, "plane index out of bounds");
        self.data[y * self.width + x]
    }

    /// Sample at `(x, y)`, clamping coordinates to the plane edge
    /// (replicate padding, as used by boundary predictors).
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Set the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        assert!(x < self.width && y < self.height, "plane index out of bounds");
        self.data[y * self.width + x] = value;
    }

    /// Borrow row `y` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    pub fn row(&self, y: usize) -> &[f32] {
        assert!(y < self.height, "row out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Mutably borrow row `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    pub fn row_mut(&mut self, y: usize) -> &mut [f32] {
        assert!(y < self.height, "row out of bounds");
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.data.iter().map(|&v| v as f64).sum();
        (sum / self.data.len() as f64) as f32
    }

    /// Population variance of all samples.
    pub fn variance(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let mean = self.mean() as f64;
        let ss: f64 = self
            .data
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum();
        (ss / self.data.len() as f64) as f32
    }

    /// Minimum sample value (`f32::INFINITY` identity).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum sample value (`f32::NEG_INFINITY` identity).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Clamp every sample into `[lo, hi]` in place.
    pub fn clamp_in_place(&mut self, lo: f32, hi: f32) {
        for v in &mut self.data {
            *v = v.clamp(lo, hi);
        }
    }

    /// Element-wise map into a new plane.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Plane {
        Plane {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Copy a rectangular region into a new plane, clamping samples that
    /// fall outside the source (replicate padding).
    pub fn crop_clamped(&self, x0: isize, y0: isize, width: usize, height: usize) -> Plane {
        Plane::from_fn(width, height, |x, y| {
            self.get_clamped(x0 + x as isize, y0 + y as isize)
        })
    }

    /// Extend the plane on the right/bottom to the next multiple of
    /// [`BLOCK`] by replicating edge samples — the padding JPEG encoders
    /// apply before the block transform.
    pub fn pad_to_block_multiple(&self) -> Plane {
        let pw = self.width.div_ceil(BLOCK) * BLOCK;
        let ph = self.height.div_ceil(BLOCK) * BLOCK;
        if pw == self.width && ph == self.height {
            return self.clone();
        }
        self.crop_clamped(0, 0, pw, ph)
    }

    /// Shrink the plane to `width x height` by dropping right/bottom
    /// padding added by [`Plane::pad_to_block_multiple`].
    ///
    /// # Panics
    ///
    /// Panics if the target size exceeds the current size.
    pub fn crop_to(&self, width: usize, height: usize) -> Plane {
        assert!(
            width <= self.width && height <= self.height,
            "crop_to target exceeds plane size"
        );
        if width == self.width && height == self.height {
            return self.clone();
        }
        let mut out = Plane::new(width, height);
        for y in 0..height {
            out.row_mut(y).copy_from_slice(&self.row(y)[..width]);
        }
        out
    }

    /// Mean absolute difference against another plane.
    ///
    /// # Panics
    ///
    /// Panics if the planes have different dimensions.
    pub fn mean_abs_diff(&self, other: &Plane) -> f32 {
        assert_eq!(self.dims(), other.dims(), "plane size mismatch");
        let sum: f64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .sum();
        (sum / self.data.len() as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zero_filled() {
        let p = Plane::new(3, 2);
        assert_eq!(p.as_slice(), &[0.0; 6]);
        assert_eq!(p.dims(), (3, 2));
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        assert!(Plane::from_vec(3, 2, vec![0.0; 5]).is_err());
        assert!(Plane::from_vec(0, 2, vec![]).is_err());
    }

    #[test]
    fn get_set_round_trip() {
        let mut p = Plane::new(4, 4);
        p.set(1, 2, 7.5);
        assert_eq!(p.get(1, 2), 7.5);
        assert_eq!(p.get(2, 1), 0.0);
    }

    #[test]
    fn clamped_access_replicates_edges() {
        let p = Plane::from_fn(2, 2, |x, y| (y * 2 + x) as f32);
        assert_eq!(p.get_clamped(-5, 0), 0.0);
        assert_eq!(p.get_clamped(5, 5), 3.0);
        assert_eq!(p.get_clamped(0, 7), 2.0);
    }

    #[test]
    fn statistics() {
        let p = Plane::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(p.mean(), 2.5);
        assert!((p.variance() - 1.25).abs() < 1e-6);
        assert_eq!(p.min(), 1.0);
        assert_eq!(p.max(), 4.0);
    }

    #[test]
    fn pad_and_crop_round_trip() {
        let p = Plane::from_fn(10, 13, |x, y| (x * 31 + y) as f32);
        let padded = p.pad_to_block_multiple();
        assert_eq!(padded.dims(), (16, 16));
        // padding replicates the edge
        assert_eq!(padded.get(15, 0), p.get(9, 0));
        assert_eq!(padded.crop_to(10, 13), p);
    }

    #[test]
    fn pad_noop_when_aligned() {
        let p = Plane::from_fn(16, 8, |x, _| x as f32);
        assert_eq!(p.pad_to_block_multiple(), p);
    }

    #[test]
    fn rows_are_contiguous() {
        let p = Plane::from_fn(3, 2, |x, y| (10 * y + x) as f32);
        assert_eq!(p.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Plane::new(2, 2).get(2, 0);
    }

    #[test]
    fn mean_abs_diff_basic() {
        let a = Plane::filled(2, 2, 1.0);
        let b = Plane::filled(2, 2, 3.5);
        assert_eq!(a.mean_abs_diff(&b), 2.5);
    }
}

use std::io::Write;
use std::time::Instant;

use dcdiff_image::{
    rgb_to_ycbcr_rows, ycbcr_to_rgb_rows, ColorSpace, Image, ImageError, Plane, PnmFormat,
    PnmWriter,
};

use crate::codec::ChromaSampling;
use crate::dct::{fdct_quantize, idct, idct_dc_only};
use crate::quant::QuantTable;
use crate::{BLOCK, BLOCK_AREA};

/// Which DC coefficients the sender drops before entropy coding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcDropMode {
    /// Zero every DC coefficient (the original TIP-2006 setting).
    All,
    /// Zero every DC coefficient except the four corner blocks — the
    /// setting of the paper's Table II ("all DC coefficients to zero
    /// except 4 corner blocks"), which anchors the receiver's recovery.
    KeepCorners,
}

/// Quantised DCT coefficients for one image component.
///
/// Blocks are stored in natural (row-major coefficient) order; the
/// `(0, 0)` entry of each block is its DC level.
#[derive(Debug, Clone, PartialEq)]
pub struct CoeffPlane {
    blocks_x: usize,
    blocks_y: usize,
    /// Component dimensions in samples (pre-padding).
    width: usize,
    height: usize,
    blocks: Vec<[i32; BLOCK_AREA]>,
}

impl CoeffPlane {
    /// Forward-transform a sample plane: pad to block multiples, level
    /// shift by −128, 8×8 FDCT and quantise with `qtable`.
    pub fn from_plane(plane: &Plane, qtable: &QuantTable) -> Self {
        let (width, height) = plane.dims();
        let mut out = Self::with_capacity(width, height, BLOCK, BLOCK);
        for by in 0..out.blocks_y {
            // Padding replicates the last row: clamping the index reads
            // exactly what an edge-extended copy would hold.
            out.push_block_row(
                std::array::from_fn(|y| plane.row((by * BLOCK + y).min(height - 1))),
                qtable,
            );
        }
        out
    }

    /// An empty plane of `width × height` samples, padded to multiples of
    /// `align_x × align_y` (4:2:2 luma pads 16×8, 4:2:0 luma 16×16), with
    /// room for all its blocks.
    fn with_capacity(width: usize, height: usize, align_x: usize, align_y: usize) -> Self {
        let blocks_x = width.div_ceil(align_x) * align_x / BLOCK;
        let blocks_y = height.div_ceil(align_y) * align_y / BLOCK;
        Self {
            blocks_x,
            blocks_y,
            width,
            height,
            blocks: Vec::with_capacity(blocks_x * blocks_y),
        }
    }

    /// Transform the next block row from its eight sample rows, each at
    /// least `width` long (rows past the bottom edge repeat the last
    /// one): gather each block, clamping columns past the right edge, then
    /// level shift, fDCT and quantise.
    fn push_block_row(&mut self, rows: [&[f32]; BLOCK], qtable: &QuantTable) {
        let width = self.width;
        let mut samples = [0.0f32; BLOCK_AREA];
        for bx in 0..self.blocks_x {
            let x0 = bx * BLOCK;
            for (dst, row) in samples.chunks_exact_mut(BLOCK).zip(rows) {
                match row.get(x0..x0 + BLOCK) {
                    Some(src) => {
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d = s - 128.0;
                        }
                    }
                    None => {
                        for (x, d) in dst.iter_mut().enumerate() {
                            *d = row[(x0 + x).min(width - 1)] - 128.0;
                        }
                    }
                }
            }
            self.blocks.push(fdct_quantize(&samples, qtable));
        }
    }

    /// Create an all-zero coefficient plane (decoder scratch).
    ///
    /// # Panics
    ///
    /// Panics if either block count is zero.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented `# Panics` contract; block counts derive from validated SOF dimensions, which T.81 bounds above zero"
    )]
    pub fn zeros(blocks_x: usize, blocks_y: usize, width: usize, height: usize) -> Self {
        assert!(blocks_x > 0 && blocks_y > 0, "coefficient plane must be nonempty");
        Self {
            blocks_x,
            blocks_y,
            width,
            height,
            blocks: vec![[0i32; BLOCK_AREA]; blocks_x * blocks_y],
        }
    }

    /// Number of block columns.
    pub fn blocks_x(&self) -> usize {
        self.blocks_x
    }

    /// Number of block rows.
    pub fn blocks_y(&self) -> usize {
        self.blocks_y
    }

    /// Component width in samples (before padding).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Component height in samples (before padding).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Borrow the quantised block at `(bx, by)` in natural order.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented `# Panics` contract, the slice-indexing idiom: callers iterate 0..blocks_x/0..blocks_y"
    )]
    pub fn block(&self, bx: usize, by: usize) -> &[i32; BLOCK_AREA] {
        assert!(bx < self.blocks_x && by < self.blocks_y, "block out of bounds");
        &self.blocks[by * self.blocks_x + bx]
    }

    /// Mutably borrow the quantised block at `(bx, by)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented `# Panics` contract, the slice-indexing idiom: callers iterate 0..blocks_x/0..blocks_y"
    )]
    pub fn block_mut(&mut self, bx: usize, by: usize) -> &mut [i32; BLOCK_AREA] {
        assert!(bx < self.blocks_x && by < self.blocks_y, "block out of bounds");
        &mut self.blocks[by * self.blocks_x + bx]
    }

    /// DC level of block `(bx, by)`.
    pub fn dc(&self, bx: usize, by: usize) -> i32 {
        self.block(bx, by)[0]
    }

    /// Overwrite the DC level of block `(bx, by)`.
    pub fn set_dc(&mut self, bx: usize, by: usize, level: i32) {
        self.block_mut(bx, by)[0] = level;
    }

    /// Zero DC levels according to `mode`; corner blocks are the four
    /// extreme blocks of the grid. One pass zeroes every level, then the
    /// corners' levels are put back under [`DcDropMode::KeepCorners`].
    pub fn drop_dc(&mut self, mode: DcDropMode) {
        let (last_x, last_y) = (self.blocks_x - 1, self.blocks_y - 1);
        let corners = [(0, 0), (last_x, 0), (0, last_y), (last_x, last_y)];
        let kept = corners.map(|(bx, by)| self.dc(bx, by));
        for block in &mut self.blocks {
            block[0] = 0;
        }
        if mode == DcDropMode::KeepCorners {
            for ((bx, by), level) in corners.into_iter().zip(kept) {
                self.set_dc(bx, by, level);
            }
        }
    }

    /// Decode block row `by` into `strip`, `8` rows of `8 · blocks_x`
    /// samples (row-major): dequantise, inverse-transform, +128 and clamp
    /// to `[0, 255]`, with block `b`'s DC level (row-major block index)
    /// read from `dc[b]` when `dc` is given. Dequantisation scales each
    /// level on its own, so substituting the level there is the arithmetic
    /// of decoding a copy whose DC levels were set first.
    ///
    /// A block without AC levels is one value in all 64 samples:
    /// [`idct_dc_only`] of its dequantised DC term, which is every sample
    /// of [`idct`] of that block after the +128 shift, in each tier.
    fn decode_row(&self, qtable: &QuantTable, by: usize, dc: Option<&[i32]>, strip: &mut [f32]) {
        let stride = self.blocks_x * BLOCK;
        let q0 = qtable.values()[0] as i32;
        for bx in 0..self.blocks_x {
            let b = by * self.blocks_x + bx;
            let levels = &self.blocks[b];
            let level = dc.map_or(levels[0], |dc| dc[b]);
            // Row `y` of the block is the first 8 samples of chunk `y`.
            let rows = strip[bx * BLOCK..].chunks_mut(stride);
            if carries_ac(levels) {
                let samples = idct(&qtable.dequantize_with_dc(levels, level));
                for (dst, src) in rows.zip(samples.chunks_exact(BLOCK)) {
                    for (d, &s) in dst[..BLOCK].iter_mut().zip(src) {
                        *d = (s + 128.0).clamp(0.0, 255.0);
                    }
                }
            } else {
                let value = (idct_dc_only((level * q0) as f32) + 128.0).clamp(0.0, 255.0);
                for dst in rows.take(BLOCK) {
                    dst[..BLOCK].fill(value);
                }
            }
        }
    }

    /// Whether block `(bx, by)` carries a nonzero AC level. A block that
    /// does not is flat: its pixels are its DC term alone.
    pub fn has_ac(&self, bx: usize, by: usize) -> bool {
        carries_ac(self.block(bx, by))
    }

    /// The DC levels as a `blocks_x × blocks_y` plane (DC-map view used by
    /// the recovery algorithms).
    pub fn dc_map(&self) -> Plane {
        Plane::from_fn(self.blocks_x, self.blocks_y, |bx, by| self.dc(bx, by) as f32)
    }

    /// Count of nonzero coefficient levels (a cheap proxy for coded size).
    pub fn nonzero_coeffs(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.iter().filter(|&&v| v != 0).count())
            .sum()
    }
}

/// Quantised coefficients for a whole image: one [`CoeffPlane`] per
/// component plus the quantisation tables and chroma sampling used.
///
/// This is the representation exchanged between the sender (which may
/// call [`CoeffImage::drop_dc`]) and the receiver-side recovery methods.
#[derive(Debug, Clone, PartialEq)]
pub struct CoeffImage {
    planes: Vec<CoeffPlane>,
    qtables: Vec<QuantTable>,
    sampling: ChromaSampling,
    width: usize,
    height: usize,
}

impl CoeffImage {
    /// Transform an image into quantised coefficients at `quality`
    /// (1..=100) with the given chroma sampling.
    ///
    /// RGB inputs are converted to YCbCr; grayscale stays single-plane.
    ///
    /// A colour image is transformed one MCU row (a band: 8 rows, 16 at
    /// 4:2:0) at a time, so no whole YCbCr or downsampled plane is ever
    /// held. An RGB band is converted by one [`rgb_to_ycbcr_rows`] run
    /// into a band buffer; a YCbCr image's planes are read in place.
    /// Subsampled chroma is box-filtered over clamped neighbours into a
    /// chroma band, then every component's blocks are gathered from its
    /// band. The levels are those of converting the whole image, then
    /// downsampling and transforming each plane: each sample is computed
    /// by the same expression, and a band starts on a row that is a
    /// multiple of 8, so its flat sample indices start on a multiple of 8
    /// and the conversion's AVX2 chunks and scalar tail fall on the same
    /// samples as one whole-plane run's.
    pub fn from_image(image: &Image, quality: u8, sampling: ChromaSampling) -> Self {
        let (width, height) = image.dims();
        let ql = QuantTable::luma(quality);
        if image.color_space() == ColorSpace::Gray {
            return Self {
                planes: vec![CoeffPlane::from_plane(image.plane(0), &ql)],
                qtables: vec![ql],
                sampling: ChromaSampling::Cs444,
                width,
                height,
            };
        }
        let qc = QuantTable::chroma(quality);
        let (sx, sy) = sampling.factors();
        let (cw, ch) = (width.div_ceil(sx), height.div_ceil(sy));
        let band_rows = sy * BLOCK;
        let convert = image.color_space() == ColorSpace::Rgb;
        // The converted band (RGB input) and two bands of subsampled
        // chroma, allocated before the output: when a caller keeps the
        // output, they are freed below it, where the next call's bands
        // fit, rather than at the heap top, which glibc trims and the
        // next call faults in again (PERFORMANCE.md).
        let mut ycbcr = vec![0.0f32; if convert { 3 * band_rows * width } else { 0 }];
        let mut subsampled = vec![0.0f32; if sx > 1 { 2 * BLOCK * cw } else { 0 }];
        let mut luma = CoeffPlane::with_capacity(width, height, sx * BLOCK, sy * BLOCK);
        let mut chroma: [CoeffPlane; 2] =
            std::array::from_fn(|_| CoeffPlane::with_capacity(cw, ch, BLOCK, BLOCK));
        for y0 in (0..height).step_by(band_rows) {
            let rows = band_rows.min(height - y0);
            let span = y0 * width..(y0 + rows) * width;
            let [y, cb, cr]: [&[f32]; 3] = if convert {
                let n = span.len();
                let (y, rest) = ycbcr.split_at_mut(n);
                let (cb, rest) = rest.split_at_mut(n);
                let cr = &mut rest[..n];
                let [r, g, b] = [0, 1, 2].map(|c| &image.plane(c).as_slice()[span.clone()]);
                rgb_to_ycbcr_rows(r, g, b, y, cb, cr);
                [y, cb, cr]
            } else {
                [0, 1, 2].map(|c| &image.plane(c).as_slice()[span.clone()])
            };
            for r in 0..sy {
                luma.push_block_row(
                    std::array::from_fn(|k| band_row(y, width, r * BLOCK + k)),
                    &ql,
                );
            }
            if sx == 1 {
                for (plane, band) in chroma.iter_mut().zip([cb, cr]) {
                    plane.push_block_row(std::array::from_fn(|k| band_row(band, cw, k)), &qc);
                }
                continue;
            }
            // Chroma rows of this band: 8, or fewer at the bottom edge.
            let crows = rows.div_ceil(sy);
            let bands = [cb, cr].into_iter().zip(subsampled.chunks_exact_mut(BLOCK * cw));
            for (plane, (band, out)) in chroma.iter_mut().zip(bands) {
                let out = &mut out[..crows * cw];
                for (j, dst) in out.chunks_exact_mut(cw).enumerate() {
                    downsample_row(band, width, sy, j, dst);
                }
                plane.push_block_row(std::array::from_fn(|k| band_row(out, cw, k)), &qc);
            }
        }
        let [cb, cr] = chroma;
        Self {
            planes: vec![luma, cb, cr],
            qtables: vec![ql, qc.clone(), qc],
            sampling,
            width,
            height,
        }
    }

    /// Assemble a coefficient image from raw parts (decoder use).
    ///
    /// # Panics
    ///
    /// Panics if plane and table counts differ or are empty.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented `# Panics` contract; the decoder builds one quant table per parsed component before calling"
    )]
    pub fn from_parts(
        planes: Vec<CoeffPlane>,
        qtables: Vec<QuantTable>,
        sampling: ChromaSampling,
        width: usize,
        height: usize,
    ) -> Self {
        assert!(!planes.is_empty(), "at least one component");
        assert_eq!(planes.len(), qtables.len(), "one quant table per plane");
        Self {
            planes,
            qtables,
            sampling,
            width,
            height,
        }
    }

    /// Number of components (1 or 3).
    pub fn channels(&self) -> usize {
        self.planes.len()
    }

    /// Original image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Original image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Chroma sampling of the coded stream.
    pub fn sampling(&self) -> ChromaSampling {
        self.sampling
    }

    /// Borrow component `c`'s coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn plane(&self, c: usize) -> &CoeffPlane {
        &self.planes[c]
    }

    /// Mutably borrow component `c`'s coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn plane_mut(&mut self, c: usize) -> &mut CoeffPlane {
        &mut self.planes[c]
    }

    /// Quantisation table of component `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn qtable(&self, c: usize) -> &QuantTable {
        &self.qtables[c]
    }

    /// Sender-side DC dropping: zero the DC levels of every component
    /// according to `mode`, in place, and return the image. It takes the
    /// image by value so the sender's one copy of its coefficients is the
    /// one that is coded; a caller that still needs the full coefficients
    /// drops DC from a [`Clone::clone`] of them.
    pub fn drop_dc(mut self, mode: DcDropMode) -> CoeffImage {
        for p in &mut self.planes {
            p.drop_dc(mode);
        }
        self
    }

    /// Reconstruct the pixel image (inverse quantise + IDCT + colour
    /// conversion + chroma upsampling). Output colour space matches the
    /// component count: RGB for 3 components, grayscale for 1.
    pub fn to_image(&self) -> Image {
        self.decode_image(None)
    }

    /// [`CoeffImage::to_image`] with every block's DC level taken from
    /// `dc` instead of the coefficients: `dc[c]` holds component `c`'s
    /// levels, one per block in row-major order (the form
    /// [`CoeffImage::dc_levels`] returns). The pixels are bit for bit
    /// those of a copy whose DC levels were set to `dc` and then decoded,
    /// without the copy.
    ///
    /// # Panics
    ///
    /// Panics if `dc` does not hold one level per block of every
    /// component.
    pub fn to_image_with_dc(&self, dc: &[Vec<i32>]) -> Image {
        self.assert_levels(dc);
        self.decode_image(Some(dc))
    }

    /// Every component's DC levels, one per block in row-major order: the
    /// form [`CoeffImage::to_image_with_dc`] and
    /// [`CoeffImage::write_pnm_with_dc`] take, and the receiver-side
    /// recovery methods return.
    pub fn dc_levels(&self) -> Vec<Vec<i32>> {
        self.planes.iter().map(|p| p.blocks.iter().map(|b| b[0]).collect()).collect()
    }

    /// A copy with every block's DC level set from `dc` (in
    /// [`CoeffImage::dc_levels`]' form).
    ///
    /// # Panics
    ///
    /// Panics if `dc` does not hold one level per block of every
    /// component.
    pub fn with_dc_levels(&self, dc: &[Vec<i32>]) -> CoeffImage {
        self.assert_levels(dc);
        let mut out = self.clone();
        for (plane, levels) in out.planes.iter_mut().zip(dc) {
            for (block, &level) in plane.blocks.iter_mut().zip(levels) {
                block[0] = level;
            }
        }
        out
    }

    /// Stream the decode of [`CoeffImage::to_image_with_dc`] to `out` as a
    /// binary PNM file of `format`, one band of rows at a time, without
    /// holding the image: the bytes are those [`dcdiff_image::write_ppm`]
    /// or [`dcdiff_image::write_pgm`] writes for that image.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::Io`] when a write fails.
    ///
    /// # Panics
    ///
    /// Panics if `dc` does not hold one level per block of every
    /// component.
    pub fn write_pnm_with_dc(
        &self,
        dc: &[Vec<i32>],
        format: PnmFormat,
        out: impl Write,
    ) -> Result<(), ImageError> {
        self.assert_levels(dc);
        let colour = self.planes.len() == 3;
        let band = || vec![0.0; self.band_rows() * self.width];
        let mut sink = PnmSink {
            writer: PnmWriter::new(out, format, (self.width, self.height))?,
            width: self.width,
            channels: (0..if colour { 3 } else { 1 }).map(|_| band()).collect(),
            ycbcr: (colour && format == PnmFormat::Pgm).then(|| [band(), band(), band()]),
        };
        self.decode_bands(Some(dc), &mut sink)?;
        sink.writer.finish()?;
        Ok(())
    }

    #[expect(
        clippy::disallowed_macros,
        reason = "documented `# Panics` contract of the DC-substituting decodes; the recovery methods build one level per block of every plane"
    )]
    fn assert_levels(&self, dc: &[Vec<i32>]) {
        assert!(
            dc.len() == self.planes.len()
                && dc.iter().zip(&self.planes).all(|(d, p)| d.len() == p.blocks.len()),
            "one DC level per block of every component"
        );
    }

    /// The chroma subsampling factors `(sx, sy)`: output pixel `(x, y)`
    /// reads chroma sample `(x / sx, y / sy)`.
    fn subsampling(&self) -> (usize, usize) {
        if self.planes.len() == 1 {
            (1, 1)
        } else {
            self.sampling.factors()
        }
    }

    /// Output rows per band: one MCU row, 8 luma rows or 16 at 4:2:0.
    fn band_rows(&self) -> usize {
        BLOCK * self.subsampling().1
    }

    /// [`CoeffImage::decode_bands`] into a whole [`Image`].
    #[expect(
        clippy::expect_used,
        reason = "structural invariant: the sink holds one or three planes of the image's dimensions"
    )]
    fn decode_image(&self, dc: Option<&[Vec<i32>]>) -> Image {
        let channels = if self.planes.len() == 3 { 3 } else { 1 };
        let mut sink = ImageSink {
            planes: (0..channels).map(|_| Plane::new(self.width, self.height)).collect(),
            width: self.width,
        };
        let Ok(()) = self.decode_bands(dc, &mut sink);
        match sink.planes.len() {
            1 => Image::from_planes(sink.planes, ColorSpace::Gray),
            _ => Image::from_planes(sink.planes, ColorSpace::Rgb),
        }
        .expect("one or three planes of the image's dimensions")
    }

    /// The one pixel decode, behind [`CoeffImage::to_image`],
    /// [`CoeffImage::to_image_with_dc`] and
    /// [`CoeffImage::write_pnm_with_dc`]: one MCU row (a band) at a time,
    /// decode each component's block rows into a band buffer, then hand
    /// `sink` each output row, cropped to the width. A colour row takes
    /// chroma sample `(x / sx, k / sy)` of its band row `k` and converts
    /// with [`ycbcr_to_rgb_rows`] over the whole row.
    fn decode_bands<S: BandSink>(
        &self,
        dc: Option<&[Vec<i32>]>,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        let t0 = Instant::now();
        let width = self.width;
        let (sx, sy) = self.subsampling();
        let band_rows = self.band_rows();
        // Block rows per band: `sy` of luma, one of chroma.
        let block_rows = |c: usize| if c == 0 { sy } else { 1 };
        // One band of decoded samples per component, at its padded width.
        let mut bands: Vec<Vec<f32>> = self
            .planes
            .iter()
            .enumerate()
            .map(|(c, p)| vec![0.0; block_rows(c) * p.blocks_x * BLOCK_AREA])
            .collect();
        // Upsampled Cb and Cr rows, when chroma is subsampled.
        let upsampled = if sx > 1 { width } else { 0 };
        let mut chroma = [vec![0.0; upsampled], vec![0.0; upsampled]];
        // Padded widths of the luma and chroma bands.
        let lw = self.planes[0].blocks_x * BLOCK;
        let cw = self.planes.get(1).map_or(0, |p| p.blocks_x * BLOCK);
        for (mcu_row, y0) in (0..self.height).step_by(band_rows).enumerate() {
            let rows = band_rows.min(self.height - y0);
            for (c, (plane, band)) in self.planes.iter().zip(&mut bands).enumerate() {
                let dc = dc.map(|dc| dc[c].as_slice());
                for (r, strip) in band.chunks_exact_mut(plane.blocks_x * BLOCK_AREA).enumerate() {
                    let by = mcu_row * block_rows(c) + r;
                    plane.decode_row(&self.qtables[c], by, dc, strip);
                }
            }
            let out = sink.rows(y0, rows);
            match bands.as_slice() {
                [y, cb, cr] => {
                    let [r, g, b] = out;
                    for k in 0..rows {
                        let c0 = (k / sy) * cw;
                        let (cb, cr): (&[f32], &[f32]) = if sx == 1 {
                            (&cb[c0..c0 + width], &cr[c0..c0 + width])
                        } else {
                            let [cb_row, cr_row] = &mut chroma;
                            // Both rows of a 4:2:0 pair read one chroma row.
                            if k % sy == 0 {
                                for (dst, &v) in cb_row.chunks_mut(sx).zip(&cb[c0..]) {
                                    dst.fill(v);
                                }
                                for (dst, &v) in cr_row.chunks_mut(sx).zip(&cr[c0..]) {
                                    dst.fill(v);
                                }
                            }
                            (cb_row, cr_row)
                        };
                        let span = k * width..(k + 1) * width;
                        ycbcr_to_rgb_rows(
                            &y[k * lw..k * lw + width],
                            cb,
                            cr,
                            &mut r[span.clone()],
                            &mut g[span.clone()],
                            &mut b[span],
                        );
                    }
                }
                [gray, ..] => {
                    for (dst, src) in out[0].chunks_exact_mut(width).zip(gray.chunks_exact(lw)) {
                        dst.copy_from_slice(&src[..width]);
                    }
                }
                [] => {}
            }
            sink.band_done(rows)?;
        }
        let blocks = self.planes.iter().map(|p| p.blocks.len() as u64).sum();
        crate::metrics::record_pixels(t0, blocks);
        Ok(())
    }

    /// Decode a DC-only thumbnail: one pixel per 8×8 block taken from the
    /// DC levels alone, skipping the IDCT entirely. This is the classic
    /// fast-preview trick JPEG browsers use — and it visualises exactly
    /// the information the DC-drop pipeline removes.
    #[expect(
        clippy::expect_used,
        reason = "structural invariant: every plane was just resized to the luma grid above"
    )]
    pub fn dc_thumbnail(&self) -> Image {
        let planes: Vec<Plane> = (0..self.planes.len())
            .map(|c| {
                let p = &self.planes[c];
                let q0 = self.qtables[c].values()[0] as f32;
                Plane::from_fn(p.blocks_x(), p.blocks_y(), |bx, by| {
                    (p.dc(bx, by) as f32 * q0 / 8.0 + 128.0).clamp(0.0, 255.0)
                })
            })
            .collect();
        if let [only] = planes.as_slice() {
            return Image::from_gray(only.clone());
        }
        // chroma grids may be smaller under 4:2:0; upsample to the luma grid
        let (lw, lh) = planes[0].dims();
        let resized: Vec<Plane> = planes
            .iter()
            .map(|p| {
                if p.dims() == (lw, lh) {
                    p.clone()
                } else {
                    Plane::from_fn(lw, lh, |x, y| {
                        p.get_clamped(
                            (x * p.width() / lw) as isize,
                            (y * p.height() / lh) as isize,
                        )
                    })
                }
            })
            .collect();
        Image::from_planes(resized, ColorSpace::YCbCr).expect("planes share dimensions").to_rgb()
    }
}

/// Row `k` of a band of rows `width` samples wide; rows past the band's
/// last (the image's bottom edge) repeat it.
fn band_row(band: &[f32], width: usize, k: usize) -> &[f32] {
    let k = k.min(band.len() / width - 1);
    &band[k * width..(k + 1) * width]
}

/// Chroma row `j` of a band of full-resolution chroma rows `width`
/// samples wide, 2× box-filtered over clamped neighbours into `dst`:
/// horizontally, `(a + b) / 2`, when `sy` is 1 (4:2:2), and both ways,
/// `(a + b + c + d) / 4` over rows `2j` and `2j + 1`, when it is 2
/// (4:2:0). A band holds whole rows from a multiple of `2 · sy`, so the
/// neighbours past its last row or column are those past the image's.
fn downsample_row(band: &[f32], width: usize, sy: usize, j: usize, dst: &mut [f32]) {
    let top = band_row(band, width, sy * j);
    let pairs = dst.iter_mut().enumerate().map(|(x, d)| (d, 2 * x, (2 * x + 1).min(width - 1)));
    if sy == 1 {
        for (d, x0, x1) in pairs {
            *d = (top[x0] + top[x1]) / 2.0;
        }
    } else {
        let bottom = band_row(band, width, sy * j + 1);
        for (d, x0, x1) in pairs {
            *d = (top[x0] + top[x1] + bottom[x0] + bottom[x1]) / 4.0;
        }
    }
}

/// Whether a block carries a nonzero AC level. The levels are OR-ed
/// rather than searched: most blocks of a low-rate stream have none, and
/// then every level is read either way.
fn carries_ac(levels: &[i32; BLOCK_AREA]) -> bool {
    levels[1..].iter().fold(0, |acc, &l| acc | l) != 0
}

/// Where [`CoeffImage::decode_bands`] puts each band of output rows.
trait BandSink {
    /// Why a band could not be taken.
    type Error;

    /// Channel `c`'s samples of output rows `y0 .. y0 + rows`, row-major
    /// at the image width: channel 0 only for a gray stream, R, G and B
    /// for colour (a gray sink's other two are empty).
    fn rows(&mut self, y0: usize, rows: usize) -> [&mut [f32]; 3];

    /// The `rows` rows last handed out are filled.
    fn band_done(&mut self, rows: usize) -> Result<(), Self::Error>;
}

/// The band decoder's [`Image`] sink: the output planes themselves.
struct ImageSink {
    planes: Vec<Plane>,
    width: usize,
}

impl BandSink for ImageSink {
    type Error = std::convert::Infallible;

    fn rows(&mut self, y0: usize, rows: usize) -> [&mut [f32]; 3] {
        let span = y0 * self.width..(y0 + rows) * self.width;
        let mut planes = self.planes.iter_mut().map(|p| &mut p.as_mut_slice()[span.clone()]);
        std::array::from_fn(|_| planes.next().unwrap_or_default())
    }

    fn band_done(&mut self, _rows: usize) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// The band decoder's PNM sink: each band's rows go out through a
/// [`PnmWriter`] once decoded, so only one band is ever held.
struct PnmSink<W: Write> {
    writer: PnmWriter<W>,
    width: usize,
    /// One band of samples per output channel: gray, or R, G and B.
    channels: Vec<Vec<f32>>,
    /// A colour stream written as PGM: the band's luma, and the two
    /// chroma runs [`rgb_to_ycbcr_rows`] writes beside it.
    ycbcr: Option<[Vec<f32>; 3]>,
}

impl<W: Write> BandSink for PnmSink<W> {
    type Error = ImageError;

    fn rows(&mut self, _y0: usize, rows: usize) -> [&mut [f32]; 3] {
        let n = rows * self.width;
        let mut channels = self.channels.iter_mut().map(|c| &mut c[..n]);
        std::array::from_fn(|_| channels.next().unwrap_or_default())
    }

    fn band_done(&mut self, rows: usize) -> Result<(), ImageError> {
        let (width, n) = (self.width, rows * self.width);
        match (self.channels.as_slice(), &mut self.ycbcr) {
            ([r, g, b], Some([y, cb, cr])) => {
                // `write_pgm` converts the whole RGB image with
                // `Image::to_gray`, whose AVX2 chunks start at flat
                // indices that are multiples of 8. A band starts at a row
                // that is a multiple of 8, so converting its samples as
                // one run gives the same chunks; converting row by row
                // would not, at widths that are not multiples of 8.
                let (y, cb, cr) = (&mut y[..n], &mut cb[..n], &mut cr[..n]);
                rgb_to_ycbcr_rows(&r[..n], &g[..n], &b[..n], y, cb, cr);
                for row in y.chunks_exact(width) {
                    self.writer.write_row(&[row])?;
                }
            }
            ([r, g, b], None) => {
                for k in 0..rows {
                    let span = k * width..(k + 1) * width;
                    self.writer.write_row(&[&r[span.clone()], &g[span.clone()], &b[span]])?;
                }
            }
            (channels, _) => {
                for row in channels.iter().flat_map(|c| c[..n].chunks_exact(width)) {
                    self.writer.write_row(&[row])?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_image::{ColorSpace, Image};

    fn gradient_image(w: usize, h: usize) -> Image {
        Image::from_planes(
            vec![
                Plane::from_fn(w, h, |x, y| (x * 7 + y * 3) as f32 % 256.0),
                Plane::from_fn(w, h, |x, y| (x * 2 + y * 11) as f32 % 256.0),
                Plane::from_fn(w, h, |x, _| (x * 5) as f32 % 256.0),
            ],
            ColorSpace::Rgb,
        )
        .unwrap()
    }

    #[test]
    fn coeff_round_trip_is_close_at_high_quality() {
        let img = gradient_image(32, 24);
        let coeffs = CoeffImage::from_image(&img, 95, ChromaSampling::Cs444);
        let back = coeffs.to_image();
        assert_eq!(back.dims(), (32, 24));
        assert!(img.mean_abs_diff(&back) < 4.0);
    }

    #[test]
    fn lower_quality_increases_error_and_sparsity() {
        let img = gradient_image(32, 32);
        let hi = CoeffImage::from_image(&img, 90, ChromaSampling::Cs444);
        let lo = CoeffImage::from_image(&img, 10, ChromaSampling::Cs444);
        let err_hi = img.mean_abs_diff(&hi.to_image());
        let err_lo = img.mean_abs_diff(&lo.to_image());
        assert!(err_lo > err_hi, "{err_lo} vs {err_hi}");
        assert!(lo.plane(0).nonzero_coeffs() < hi.plane(0).nonzero_coeffs());
    }

    #[test]
    fn dc_equals_scaled_block_mean() {
        // constant 200 block: level shift 72, DC = 72*8 = 576, q=16 -> 36
        let img = Image::from_gray(Plane::filled(8, 8, 200.0));
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        assert_eq!(coeffs.plane(0).dc(0, 0), 36);
    }

    #[test]
    fn drop_dc_all_zeroes_everything() {
        let img = gradient_image(32, 32);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.drop_dc(DcDropMode::All);
        for c in 0..3 {
            let p = dropped.plane(c);
            for by in 0..p.blocks_y() {
                for bx in 0..p.blocks_x() {
                    assert_eq!(p.dc(bx, by), 0);
                }
            }
        }
    }

    #[test]
    fn drop_dc_keep_corners_preserves_four_anchors() {
        let img = gradient_image(40, 32);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
        let p = dropped.plane(0);
        let orig = coeffs.plane(0);
        let (bx_max, by_max) = (p.blocks_x() - 1, p.blocks_y() - 1);
        for (bx, by) in [(0, 0), (bx_max, 0), (0, by_max), (bx_max, by_max)] {
            assert_eq!(p.dc(bx, by), orig.dc(bx, by), "corner {bx},{by}");
        }
        assert_eq!(p.dc(1, 1), 0);
    }

    #[test]
    fn ac_survives_dc_drop() {
        let img = gradient_image(24, 24);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let dropped = coeffs.clone().drop_dc(DcDropMode::All);
        for c in 0..3 {
            for by in 0..coeffs.plane(c).blocks_y() {
                for bx in 0..coeffs.plane(c).blocks_x() {
                    assert_eq!(
                        coeffs.plane(c).block(bx, by)[1..],
                        dropped.plane(c).block(bx, by)[1..],
                        "ac changed at {c} {bx},{by}"
                    );
                }
            }
        }
    }

    #[test]
    fn cs420_shapes() {
        let img = gradient_image(40, 24);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs420);
        // luma padded to 48x32 -> 6x4 blocks; chroma 20x12 -> padded 24x16 -> 3x2
        assert_eq!(coeffs.plane(0).blocks_x(), 6);
        assert_eq!(coeffs.plane(0).blocks_y(), 4);
        assert_eq!(coeffs.plane(1).blocks_x(), 3);
        assert_eq!(coeffs.plane(1).blocks_y(), 2);
        let back = coeffs.to_image();
        assert_eq!(back.dims(), (40, 24));
    }

    #[test]
    fn cs422_shapes_and_round_trip() {
        let img = gradient_image(40, 24);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs422);
        // luma padded to 48 wide (16-align) x 24: 6x3 blocks
        assert_eq!(coeffs.plane(0).blocks_x(), 6);
        assert_eq!(coeffs.plane(0).blocks_y(), 3);
        // chroma 20x24 -> padded 24x24: 3x3 blocks
        assert_eq!(coeffs.plane(1).blocks_x(), 3);
        assert_eq!(coeffs.plane(1).blocks_y(), 3);
        let back = coeffs.to_image();
        assert_eq!(back.dims(), (40, 24));
        assert!(img.mean_abs_diff(&back) < 12.0);
    }

    #[test]
    fn grayscale_single_plane() {
        let img = Image::from_gray(Plane::from_fn(16, 16, |x, y| ((x + y) * 8) as f32));
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs420);
        assert_eq!(coeffs.channels(), 1);
        assert_eq!(coeffs.sampling(), ChromaSampling::Cs444);
        let back = coeffs.to_image();
        assert!(img.mean_abs_diff(&back) < 10.0);
    }

    #[test]
    fn dc_thumbnail_matches_block_means() {
        let img = Image::from_gray(Plane::filled(32, 16, 200.0));
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let thumb = coeffs.dc_thumbnail();
        assert_eq!(thumb.dims(), (4, 2));
        // constant 200 image: every thumbnail pixel ~200
        for y in 0..2 {
            for x in 0..4 {
                assert!((thumb.plane(0).get(x, y) - 200.0).abs() < 2.0);
            }
        }
    }

    #[test]
    fn dc_thumbnail_of_dropped_is_gray() {
        let img = gradient_image(32, 32);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let thumb = coeffs.drop_dc(DcDropMode::All).dc_thumbnail();
        for c in 0..3 {
            assert!((thumb.plane(c).mean() - 128.0).abs() < 2.0, "channel {c}");
        }
    }

    #[test]
    fn substituted_dc_decodes_as_the_copy_with_those_levels() {
        let bits = |image: &Image| -> Vec<u32> {
            image.planes().iter().flat_map(|p| p.as_slice().iter().map(|v| v.to_bits())).collect()
        };
        for sampling in [ChromaSampling::Cs444, ChromaSampling::Cs422, ChromaSampling::Cs420] {
            let coeffs = CoeffImage::from_image(&gradient_image(41, 27), 50, sampling);
            let own: Vec<Vec<i32>> = (0..3)
                .map(|c| {
                    let p = coeffs.plane(c);
                    (0..p.blocks_x() * p.blocks_y())
                        .map(|b| p.dc(b % p.blocks_x(), b / p.blocks_x()))
                        .collect()
                })
                .collect();
            assert_eq!(bits(&coeffs.to_image_with_dc(&own)), bits(&coeffs.to_image()));
            let shifted: Vec<Vec<i32>> = own
                .iter()
                .map(|levels| levels.iter().enumerate().map(|(b, l)| l + b as i32 % 7 - 3).collect())
                .collect();
            let mut copy = coeffs.clone();
            for (c, levels) in shifted.iter().enumerate() {
                let p = copy.plane_mut(c);
                let bx = p.blocks_x();
                for (b, &level) in levels.iter().enumerate() {
                    p.set_dc(b % bx, b / bx, level);
                }
            }
            assert_eq!(bits(&coeffs.to_image_with_dc(&shifted)), bits(&copy.to_image()));
        }
    }

    #[test]
    fn dc_map_matches_levels() {
        let img = gradient_image(32, 16);
        let coeffs = CoeffImage::from_image(&img, 50, ChromaSampling::Cs444);
        let map = coeffs.plane(0).dc_map();
        assert_eq!(map.dims(), (4, 2));
        assert_eq!(map.get(2, 1), coeffs.plane(0).dc(2, 1) as f32);
    }
}

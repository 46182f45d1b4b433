//! Binary NetPBM (PPM/PGM) readers and writers.
//!
//! Every image a job writes goes out through one row writer,
//! [`PnmWriter`]: [`write_ppm`] and [`write_pgm`] feed it an [`Image`]'s
//! rows, and `dcdiff_jpeg`'s streamed decode
//! (`CoeffImage::write_pnm_with_dc`) feeds it each band of rows as it
//! decodes them, so a served recovery never holds its whole image. The
//! experiment binaries dump qualitative results (Figure 5) as PPM so they
//! can be inspected with any viewer without extra dependencies.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::{ColorSpace, Image, ImageError, Plane, MAX_DECODE_PIXELS};

/// Which binary NetPBM file a [`PnmWriter`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PnmFormat {
    /// `P6`: three interleaved bytes (R, G, B) per pixel.
    Ppm,
    /// `P5`: one byte per pixel.
    Pgm,
}

impl PnmFormat {
    /// The format a path names: PGM for a `.pgm` extension (in any case),
    /// PPM otherwise.
    pub fn for_path(path: impl AsRef<Path>) -> Self {
        let path = path.as_ref().as_os_str().to_string_lossy();
        if path.to_ascii_lowercase().ends_with(".pgm") {
            PnmFormat::Pgm
        } else {
            PnmFormat::Ppm
        }
    }
}

/// Bytes the writer buffers between `write` calls: a 512² PPM (786 KB)
/// goes out in 13 calls instead of the 103 an 8 KiB buffer makes.
const WRITE_BUFFER: usize = 1 << 16;

/// The one binary NetPBM row writer, over any [`Write`]: the header, then
/// one row at a time, each sample rounded half away from zero and clamped
/// to `[0, 255]` (eight samples at a time on AVX2 hosts), through a
/// 64 KiB buffer.
///
/// A row is given as its channels' samples: one channel, which a PPM
/// repeats as R, G and B, or the three planar R, G and B rows, which a
/// PPM interleaves. A PGM takes one channel only; its caller converts
/// colour to luma first.
pub struct PnmWriter<W: Write> {
    out: BufWriter<W>,
    format: PnmFormat,
    width: usize,
    /// One quantised channel row per channel, before the interleave.
    planar: Vec<u8>,
    /// The row's bytes as the file holds them.
    row: Vec<u8>,
}

impl<W: Write> PnmWriter<W> {
    /// Start a `width × height` file of `format` on `out` at maxval 255:
    /// writes the header.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::Io`] when the header cannot be written.
    pub fn new(
        out: W,
        format: PnmFormat,
        (width, height): (usize, usize),
    ) -> Result<Self, ImageError> {
        let mut out = BufWriter::with_capacity(WRITE_BUFFER, out);
        let (magic, channels) = match format {
            PnmFormat::Ppm => ("P6", 3),
            PnmFormat::Pgm => ("P5", 1),
        };
        write!(out, "{magic}\n{width} {height}\n255\n")?;
        let (planar, row) = (vec![0; 3 * width], vec![0; channels * width]);
        Ok(Self { out, format, width, planar, row })
    }

    /// Write the next row from its channels' samples, `width` each: one
    /// channel, or R, G and B for a PPM.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::ChannelMismatch`] for any other channel
    /// count, and [`ImageError::Io`] when the write fails.
    ///
    /// # Panics
    ///
    /// Panics if a channel is not `width` samples long.
    pub fn write_row(&mut self, channels: &[&[f32]]) -> Result<(), ImageError> {
        let width = self.width;
        match (self.format, channels) {
            (PnmFormat::Pgm, [luma]) => quantize_row(luma, &mut self.row),
            (PnmFormat::Ppm, [gray]) => {
                let q = &mut self.planar[..width];
                quantize_row(gray, q);
                for (px, &v) in self.row.chunks_exact_mut(3).zip(&*q) {
                    px.fill(v);
                }
            }
            (PnmFormat::Ppm, [r, g, b]) => {
                let (qr, rest) = self.planar.split_at_mut(width);
                let (qg, qb) = rest.split_at_mut(width);
                quantize_row(r, qr);
                quantize_row(g, qg);
                quantize_row(b, qb);
                let bytes = qr.iter().zip(&*qg).zip(&*qb);
                for (px, ((&r, &g), &b)) in self.row.chunks_exact_mut(3).zip(bytes) {
                    px.copy_from_slice(&[r, g, b]);
                }
            }
            (format, _) => {
                return Err(ImageError::ChannelMismatch {
                    expected: if format == PnmFormat::Pgm { 1 } else { 3 },
                    actual: channels.len(),
                })
            }
        }
        self.out.write_all(&self.row)?;
        Ok(())
    }

    /// Flush the buffer and hand back the inner writer.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::Io`] when the flush fails.
    pub fn finish(self) -> Result<W, ImageError> {
        self.out.into_inner().map_err(|e| ImageError::Io(e.into_error()))
    }
}

/// Write an image as binary PPM (`P6`).
///
/// RGB planes are read in place and a grayscale plane stands for all
/// three channels; YCbCr images are converted to RGB first. Each row goes
/// through [`PnmWriter`].
///
/// # Errors
///
/// Returns [`ImageError::Io`] on filesystem failure.
pub fn write_ppm(path: impl AsRef<Path>, image: &Image) -> Result<(), ImageError> {
    let converted;
    let image = if image.color_space() == ColorSpace::YCbCr {
        converted = image.to_rgb();
        &converted
    } else {
        image
    };
    write_planes(path.as_ref(), PnmFormat::Ppm, image.planes())
}

/// Write a grayscale image as binary PGM (`P5`).
///
/// Multi-channel images are converted to luma first; a grayscale plane
/// is read in place.
///
/// # Errors
///
/// Returns [`ImageError::Io`] on filesystem failure.
pub fn write_pgm(path: impl AsRef<Path>, image: &Image) -> Result<(), ImageError> {
    let converted;
    let luma = if image.color_space() == ColorSpace::Gray {
        image.plane(0)
    } else {
        converted = image.to_gray();
        converted.plane(0)
    };
    write_planes(path.as_ref(), PnmFormat::Pgm, std::slice::from_ref(luma))
}

/// Create `path` and write `planes` (one, or R, G and B) to it as a
/// `format` file, row by row through [`PnmWriter`].
fn write_planes(path: &Path, format: PnmFormat, planes: &[Plane]) -> Result<(), ImageError> {
    let Some(first) = planes.first() else {
        return Err(ImageError::ChannelMismatch { expected: 1, actual: 0 });
    };
    let mut writer = PnmWriter::new(std::fs::File::create(path)?, format, first.dims())?;
    for y in 0..first.height() {
        match planes {
            [r, g, b] => writer.write_row(&[r.row(y), g.row(y), b.row(y)])?,
            _ => writer.write_row(&[first.row(y)])?,
        }
    }
    writer.finish()?;
    Ok(())
}

/// Round half away from zero and clamp to `[0, 255]`: the byte
/// `v.round().clamp(0.0, 255.0) as u8` gives, for every `f32` (NaN
/// included, which maps to 0), without `f32::round`, which the baseline
/// x86-64 target lowers to a `roundf` call per sample.
///
/// Clamping first puts `v + 0.5` in `[0.5, 255.5]`. There `f64` holds the
/// sum exactly for every `f32` from 2⁻³⁰ up; a smaller `v` rounds it to
/// less than 1. So truncating the sum is rounding `v` half away from zero.
#[inline]
fn quantize(v: f32) -> u8 {
    (f64::from(v.clamp(0.0, 255.0)) + 0.5) as u8
}

/// [`quantize`] of every sample of `src` into `out`, runtime-dispatched
/// like the colour conversion: eight lanes at a time on AVX2, one sample
/// at a time otherwise.
///
/// # Panics
///
/// Panics if the slices differ in length.
fn quantize_row(src: &[f32], out: &mut [u8]) {
    assert_eq!(src.len(), out.len(), "one byte per sample");
    #[cfg(target_arch = "x86_64")]
    if crate::color::use_avx2() {
        // SAFETY: avx2 was confirmed by `is_x86_feature_detected!` (the
        // only way `use_avx2` returns true) and the lengths are equal.
        unsafe { quantize_row_avx2(src, out) };
        return;
    }
    quantize_row_scalar(src, out);
}

/// Scalar tier of [`quantize_row`]; also its parity oracle.
fn quantize_row_scalar(src: &[f32], out: &mut [u8]) {
    for (dst, &v) in out.iter_mut().zip(src) {
        *dst = quantize(v);
    }
}

/// AVX2 tier of [`quantize_row`]: eight samples per iteration, the tail
/// by [`quantize_row_scalar`].
///
/// Per lane: `c = min(max(v, 0), 255)`, where `maxps` returns its second
/// operand, 0, for a NaN `v`; `t = trunc(c)`; the byte is
/// `t + (c − t ≥ 0.5)`. The difference `c − t` is exact (Sterbenz for
/// `c ≥ 1`, and `t = 0` below), so the byte is `floor(c + 0.5)`, which
/// is what [`quantize`] computes.
///
/// # Safety
///
/// The CPU must support AVX2, and `out` must be as long as `src`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: unsafe fn — requires avx2 and equal lengths; `quantize_row`
// checks both before calling.
unsafe fn quantize_row_avx2(src: &[f32], out: &mut [u8]) {
    use std::arch::x86_64::{
        __m128i, _mm256_castps_si256, _mm256_castsi256_si128, _mm256_cmp_ps, _mm256_cvtepi32_ps,
        _mm256_cvttps_epi32, _mm256_extracti128_si256, _mm256_loadu_ps, _mm256_max_ps,
        _mm256_min_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_sub_epi32, _mm256_sub_ps,
        _mm_packus_epi16, _mm_packus_epi32, _mm_storel_epi64, _CMP_GE_OQ,
    };
    let zero = _mm256_setzero_ps();
    let max = _mm256_set1_ps(255.0);
    let half = _mm256_set1_ps(0.5);
    let chunks = src.len() / 8;
    for i in 0..chunks {
        let off = i * 8;
        // SAFETY: `off + 8 <= chunks * 8 <= src.len() == out.len()`, so
        // the 8-float load and the 8-byte store stay in bounds;
        // intrinsics are guarded by this fn's ISA.
        unsafe {
            let v = _mm256_loadu_ps(src.as_ptr().add(off));
            let c = _mm256_min_ps(_mm256_max_ps(v, zero), max);
            let t = _mm256_cvttps_epi32(c);
            let up = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_sub_ps(c, _mm256_cvtepi32_ps(t)), half);
            // A true lane is all ones, −1: subtracting it adds one.
            let q = _mm256_sub_epi32(t, _mm256_castps_si256(up));
            let words =
                _mm_packus_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
            let bytes = _mm_packus_epi16(words, words);
            _mm_storel_epi64(out.as_mut_ptr().add(off).cast::<__m128i>(), bytes);
        }
    }
    let done = chunks * 8;
    quantize_row_scalar(&src[done..], &mut out[done..]);
}

/// Read a binary PPM (`P6`) file into an RGB image.
///
/// # Errors
///
/// Returns [`ImageError::ParsePnm`] for malformed headers, headers past
/// [`MAX_DECODE_PIXELS`] and truncated payloads, and [`ImageError::Io`]
/// on filesystem failure.
pub fn read_ppm(path: impl AsRef<Path>) -> Result<Image, ImageError> {
    let mut reader = BufReader::new(std::fs::File::open(path)?);
    let (magic, w, h, maxval) = read_pnm_header(&mut reader)?;
    if magic != "P6" {
        return Err(ImageError::ParsePnm(format!("expected P6, got {magic}")));
    }
    let mut buf = vec![0u8; w * h * 3];
    reader.read_exact(&mut buf).map_err(|_| {
        ImageError::ParsePnm("truncated ppm payload".to_string())
    })?;
    let scale = 255.0 / maxval as f32;
    let (mut r, mut g, mut b) = (Plane::new(w, h), Plane::new(w, h), Plane::new(w, h));
    let samples = r.as_mut_slice().iter_mut().zip(g.as_mut_slice()).zip(b.as_mut_slice());
    for (px, ((r, g), b)) in buf.chunks_exact(3).zip(samples) {
        *r = px[0] as f32 * scale;
        *g = px[1] as f32 * scale;
        *b = px[2] as f32 * scale;
    }
    Image::from_planes(vec![r, g, b], ColorSpace::Rgb)
}

/// Read a binary PGM (`P5`) file into a grayscale image.
///
/// # Errors
///
/// Returns [`ImageError::ParsePnm`] for malformed headers, headers past
/// [`MAX_DECODE_PIXELS`] and truncated payloads, and [`ImageError::Io`]
/// on filesystem failure.
pub fn read_pgm(path: impl AsRef<Path>) -> Result<Image, ImageError> {
    let mut reader = BufReader::new(std::fs::File::open(path)?);
    let (magic, w, h, maxval) = read_pnm_header(&mut reader)?;
    if magic != "P5" {
        return Err(ImageError::ParsePnm(format!("expected P5, got {magic}")));
    }
    let mut buf = vec![0u8; w * h];
    reader.read_exact(&mut buf).map_err(|_| {
        ImageError::ParsePnm("truncated pgm payload".to_string())
    })?;
    let scale = 255.0 / maxval as f32;
    let mut plane = Plane::new(w, h);
    for (dst, &src) in plane.as_mut_slice().iter_mut().zip(&buf) {
        *dst = src as f32 * scale;
    }
    Ok(Image::from_gray(plane))
}

/// Parse `magic width height maxval` allowing `#` comments and arbitrary
/// whitespace, consuming exactly one whitespace byte after maxval.
/// Dimensions whose product overflows or exceeds [`MAX_DECODE_PIXELS`]
/// are rejected before anything is allocated for them.
fn read_pnm_header<R: BufRead>(reader: &mut R) -> Result<(String, usize, usize, u32), ImageError> {
    let mut tokens = Vec::new();
    while tokens.len() < 4 {
        let tok = read_token(reader)?;
        if tok.is_empty() {
            return Err(ImageError::ParsePnm("unexpected end of header".to_string()));
        }
        tokens.push(tok);
    }
    let magic = tokens[0].clone();
    let w: usize = tokens[1]
        .parse()
        .map_err(|_| ImageError::ParsePnm(format!("bad width {}", tokens[1])))?;
    let h: usize = tokens[2]
        .parse()
        .map_err(|_| ImageError::ParsePnm(format!("bad height {}", tokens[2])))?;
    let maxval: u32 = tokens[3]
        .parse()
        .map_err(|_| ImageError::ParsePnm(format!("bad maxval {}", tokens[3])))?;
    if w == 0 || h == 0 || maxval == 0 || maxval > 255 {
        return Err(ImageError::ParsePnm(format!(
            "unsupported header {w}x{h} maxval {maxval}"
        )));
    }
    if w.checked_mul(h).is_none_or(|pixels| pixels > MAX_DECODE_PIXELS) {
        return Err(ImageError::ParsePnm(format!(
            "image {w}x{h} exceeds the {MAX_DECODE_PIXELS}-pixel decode limit"
        )));
    }
    Ok((magic, w, h, maxval))
}

fn read_token<R: BufRead>(reader: &mut R) -> Result<String, ImageError> {
    let mut tok = String::new();
    let mut byte = [0u8; 1];
    // skip whitespace and comments
    loop {
        if reader.read(&mut byte)? == 0 {
            return Ok(tok);
        }
        match byte[0] {
            b'#' => {
                // comment to end of line
                let mut junk = String::new();
                reader.read_line(&mut junk)?;
            }
            b if b.is_ascii_whitespace() => {}
            b => {
                tok.push(b as char);
                break;
            }
        }
    }
    loop {
        if reader.read(&mut byte)? == 0 {
            break;
        }
        if byte[0].is_ascii_whitespace() {
            break;
        }
        tok.push(byte[0] as char);
    }
    Ok(tok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dcdiff-image-test-{}-{name}", std::process::id()));
        p
    }

    /// The quantiser `write_ppm` and `write_pgm` used before
    /// [`quantize`]: round, then clamp.
    fn round_then_clamp(v: f32) -> u8 {
        v.round().clamp(0.0, 255.0) as u8
    }

    fn assert_quantize_matches(v: f32) {
        assert_eq!(
            quantize(v),
            round_then_clamp(v),
            "{v:e} (bits {:#010x})",
            v.to_bits()
        );
    }

    /// Every integer from −2 to 258, the halves between them, two ULPs
    /// either side of each, and the special values.
    fn edge_values() -> Vec<f32> {
        let mut values = Vec::new();
        for k in -2..=258 {
            let k = k as f32;
            for v in [k, k - 0.5, k + 0.5] {
                for bits in v.to_bits().saturating_sub(2)..=v.to_bits().saturating_add(2) {
                    values.push(f32::from_bits(bits));
                }
            }
        }
        values.extend([
            0.499_999_97,
            0.5,
            254.5,
            255.5,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MAX,
            f32::MIN,
        ]);
        values
    }

    #[test]
    fn quantize_equals_round_then_clamp_at_the_edges() {
        for v in edge_values() {
            assert_quantize_matches(v);
        }
        assert_eq!(quantize(0.499_999_97), 0);
        assert_eq!(quantize(254.5), 255);
        assert_eq!(quantize(f32::NAN), 0);
    }

    /// Each tier of [`quantize_row`] the host runs, on `src`, against
    /// [`quantize`] of every sample.
    fn assert_row_tiers_match(src: &[f32]) {
        let want: Vec<u8> = src.iter().map(|&v| quantize(v)).collect();
        let mut got = vec![0u8; src.len()];
        quantize_row(src, &mut got);
        assert_eq!(got, want, "dispatched, {} samples", src.len());
        quantize_row_scalar(src, &mut got);
        assert_eq!(got, want, "scalar, {} samples", src.len());
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            got.fill(0);
            // SAFETY: AVX2 was detected above and the lengths are equal.
            unsafe { quantize_row_avx2(src, &mut got) };
            assert_eq!(got, want, "avx2, {} samples", src.len());
        }
    }

    #[test]
    fn quantize_row_equals_quantize_at_the_edges() {
        let values = edge_values();
        // Rows whose lengths are not a multiple of 8 put every value in
        // a vector lane and in the scalar tail.
        for len in [1, 7, 9, 15, 37, 1003] {
            for start in (0..values.len()).step_by(len) {
                assert_row_tiers_match(&values[start..(start + len).min(values.len())]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn quantize_row_equals_quantize_for_any_bits(
            bits in proptest::collection::vec(any::<u32>(), 0..45)
        ) {
            let src: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
            assert_row_tiers_match(&src);
        }

        #[test]
        fn quantize_row_equals_quantize_in_range(
            src in proptest::collection::vec(-2.0f32..258.0, 0..45)
        ) {
            assert_row_tiers_match(&src);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn quantize_equals_round_then_clamp_for_any_bits(bits in any::<u32>()) {
            let v = f32::from_bits(bits);
            prop_assert_eq!(quantize(v), round_then_clamp(v));
        }

        #[test]
        fn quantize_equals_round_then_clamp_in_range(v in -2.0f32..258.0) {
            prop_assert_eq!(quantize(v), round_then_clamp(v));
        }
    }

    #[test]
    fn ppm_round_trip() {
        let img = Image::from_planes(
            vec![
                Plane::from_fn(5, 3, |x, _| (x * 50) as f32),
                Plane::from_fn(5, 3, |_, y| (y * 80) as f32),
                Plane::filled(5, 3, 7.0),
            ],
            ColorSpace::Rgb,
        )
        .unwrap();
        let path = temp_path("rt.ppm");
        write_ppm(&path, &img).unwrap();
        let back = read_ppm(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.dims(), (5, 3));
        assert!(img.mean_abs_diff(&back) < 0.5);
    }

    #[test]
    fn pgm_round_trip() {
        let img = Image::from_gray(Plane::from_fn(4, 4, |x, y| ((x + y) * 30) as f32));
        let path = temp_path("rt.pgm");
        write_pgm(&path, &img).unwrap();
        let back = read_pgm(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(img.mean_abs_diff(&back) < 0.5);
    }

    #[test]
    fn header_with_comments_parses() {
        let data = b"P5\n# a comment\n2 2\n255\n\x00\x40\x80\xff";
        let mut reader = std::io::BufReader::new(&data[..]);
        let (magic, w, h, maxval) = read_pnm_header(&mut reader).unwrap();
        assert_eq!((magic.as_str(), w, h, maxval), ("P5", 2, 2, 255));
    }

    #[test]
    fn bad_magic_rejected() {
        let path = temp_path("bad.ppm");
        std::fs::write(&path, b"P3\n1 1\n255\n0 0 0\n").unwrap();
        let err = read_ppm(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, ImageError::ParsePnm(_)));
    }

    #[test]
    fn oversized_headers_are_parse_errors() {
        // 2^40 pixels would ask for a 3 TB buffer; 2^32 x 2^32 wraps
        // `w * h * 3` to zero on a 64-bit target.
        for (name, dims) in [("huge", "1048576 1048576"), ("wrapping", "4294967296 4294967296")] {
            for magic in ["P6", "P5"] {
                let path = temp_path(&format!("{name}-{magic}.pnm"));
                std::fs::write(&path, format!("{magic}\n{dims}\n255\n\0\0\0")).unwrap();
                let read = if magic == "P6" { read_ppm(&path) } else { read_pgm(&path) };
                std::fs::remove_file(&path).ok();
                match read {
                    Err(ImageError::ParsePnm(msg)) => assert!(msg.contains("decode limit"), "{msg}"),
                    other => panic!("{name} {magic}: expected a parse error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn the_largest_allowed_header_parses() {
        let data = format!("P5\n4096 {}\n255\n", MAX_DECODE_PIXELS / 4096);
        let mut reader = std::io::BufReader::new(data.as_bytes());
        let (_, w, h, _) = read_pnm_header(&mut reader).unwrap();
        assert_eq!(w * h, MAX_DECODE_PIXELS);
        let past = format!("P5\n4097 {}\n255\n", MAX_DECODE_PIXELS / 4096);
        let mut reader = std::io::BufReader::new(past.as_bytes());
        assert!(matches!(read_pnm_header(&mut reader), Err(ImageError::ParsePnm(_))));
    }
}

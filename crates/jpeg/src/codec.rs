use dcdiff_image::Image;

use crate::bitstream::{magnitude_code, magnitude_decode, BitReader, BitWriter};
use crate::coeff::{CoeffImage, CoeffPlane};
use crate::huffman::HuffmanTable;
use crate::quant::QuantTable;
use crate::zigzag::{from_zigzag, to_zigzag, ZIGZAG};
use crate::{JpegError, BLOCK, BLOCK_AREA};

/// Upper bound on the decoded frame area (`width × height`) accepted by
/// [`JpegDecoder`]; larger frames are rejected with a
/// [`JpegErrorKind::Unsupported`](crate::JpegErrorKind::Unsupported) error
/// before any coefficient is allocated. The one definition lives in
/// `dcdiff_image`, whose PPM/PGM readers apply the same cap.
pub use dcdiff_image::MAX_DECODE_PIXELS;

/// Chroma subsampling of the coded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChromaSampling {
    /// No subsampling — every component at full resolution.
    #[default]
    Cs444,
    /// Horizontally halved chroma (2×1 luma blocks per MCU).
    Cs422,
    /// 2×2 luma blocks per MCU with half-resolution chroma.
    Cs420,
}

impl std::fmt::Display for ChromaSampling {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChromaSampling::Cs444 => f.write_str("4:4:4"),
            ChromaSampling::Cs422 => f.write_str("4:2:2"),
            ChromaSampling::Cs420 => f.write_str("4:2:0"),
        }
    }
}

/// Baseline sequential JPEG encoder producing standard JFIF byte streams.
///
/// # Example
///
/// ```
/// use dcdiff_image::{ColorSpace, Image};
/// use dcdiff_jpeg::JpegEncoder;
///
/// let img = Image::filled(16, 16, ColorSpace::Rgb, 200.0);
/// let bytes = JpegEncoder::new(75).encode(&img)?;
/// assert_eq!(&bytes[..2], &[0xFF, 0xD8]); // SOI
/// assert_eq!(&bytes[bytes.len() - 2..], &[0xFF, 0xD9]); // EOI
/// # Ok::<(), dcdiff_jpeg::JpegError>(())
/// ```
#[derive(Debug, Clone)]
pub struct JpegEncoder {
    quality: u8,
    sampling: ChromaSampling,
    restart_interval: usize,
}

impl JpegEncoder {
    /// Create an encoder with the given IJG quality (1..=100) and 4:4:4
    /// sampling.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= quality <= 100`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented `# Panics` API contract on programmer input; the CLI validates quality before constructing an encoder"
    )]
    pub fn new(quality: u8) -> Self {
        assert!((1..=100).contains(&quality), "quality must be 1..=100");
        Self {
            quality,
            sampling: ChromaSampling::Cs444,
            restart_interval: 0,
        }
    }

    /// Builder-style restart-marker interval in MCUs (0 disables; the
    /// default). Restart markers bound error propagation on lossy IoT
    /// links at a small byte cost.
    pub fn with_restart_interval(mut self, mcus: usize) -> Self {
        self.restart_interval = mcus;
        self
    }

    /// Configured restart interval (0 = disabled).
    pub fn restart_interval(&self) -> usize {
        self.restart_interval
    }

    /// Builder-style chroma sampling selection.
    pub fn with_sampling(mut self, sampling: ChromaSampling) -> Self {
        self.sampling = sampling;
        self
    }

    /// Configured quality factor.
    pub fn quality(&self) -> u8 {
        self.quality
    }

    /// Configured chroma sampling.
    pub fn sampling(&self) -> ChromaSampling {
        self.sampling
    }

    /// Transform `image` to quantised coefficients (the analysis path the
    /// DC-drop pipeline uses before entropy coding).
    pub fn to_coefficients(&self, image: &Image) -> CoeffImage {
        CoeffImage::from_image(image, self.quality, self.sampling)
    }

    /// Encode `image` to a complete JFIF byte stream.
    ///
    /// # Errors
    ///
    /// Returns a [`JpegErrorKind::Unsupported`](crate::JpegErrorKind::Unsupported) error for images larger
    /// than 65535 pixels on a side.
    pub fn encode(&self, image: &Image) -> Result<Vec<u8>, JpegError> {
        let coeffs = self.to_coefficients(image);
        if self.restart_interval > 0 {
            encode_coefficients_with_restarts(&coeffs, self.restart_interval)
        } else {
            encode_coefficients(&coeffs)
        }
    }
}

/// Entropy-code a [`CoeffImage`] into a complete JFIF byte stream.
///
/// This is the sender-side path shared by standard JPEG and the DC-drop
/// pipeline: dropping DC happens on the [`CoeffImage`] before this call
/// and costs nothing extra here.
///
/// # Errors
///
/// Returns a [`JpegErrorKind::Unsupported`](crate::JpegErrorKind::Unsupported) error when dimensions exceed
/// the 16-bit JFIF fields, or naming the symbol when a level needs one
/// the Annex-K tables lack (an AC magnitude category above 10, as a
/// decoded foreign stream can carry);
/// [`encode_coefficients_optimized`](crate::encode_coefficients_optimized)
/// builds tables that cover every symbol.
pub fn encode_coefficients(coeffs: &CoeffImage) -> Result<Vec<u8>, JpegError> {
    let dc_l = HuffmanTable::dc_luma();
    let ac_l = HuffmanTable::ac_luma();
    let dc_c = HuffmanTable::dc_chroma();
    let ac_c = HuffmanTable::ac_chroma();
    let scan = encode_scan_with(coeffs, &dc_l, &ac_l, &dc_c, &ac_c)?;
    write_file_with_tables(coeffs, &dc_l, &ac_l, &dc_c, &ac_c, 0, &scan)
}

/// Assemble a complete JFIF stream around a pre-coded scan using the
/// given Huffman tables (shared by the standard and optimised encoders).
/// A non-zero `restart_interval` writes its DRI segment just before SOS.
pub(crate) fn write_file_with_tables(
    coeffs: &CoeffImage,
    dc_l: &HuffmanTable,
    ac_l: &HuffmanTable,
    dc_c: &HuffmanTable,
    ac_c: &HuffmanTable,
    restart_interval: u16,
    scan: &[u8],
) -> Result<Vec<u8>, JpegError> {
    if coeffs.width() > 65_535 || coeffs.height() > 65_535 {
        return Err(JpegError::unsupported(format!(
            "dimensions {}x{} exceed JFIF limits",
            coeffs.width(),
            coeffs.height()
        )));
    }
    let color = coeffs.channels() == 3;
    let mut out = Vec::new();
    write_marker(&mut out, 0xD8); // SOI
    write_app0(&mut out);
    write_dqt(&mut out, 0, coeffs.qtable(0));
    if color {
        write_dqt(&mut out, 1, coeffs.qtable(1));
    }
    write_sof0(&mut out, coeffs);
    write_dht(&mut out, 0, 0, dc_l);
    write_dht(&mut out, 1, 0, ac_l);
    if color {
        write_dht(&mut out, 0, 1, dc_c);
        write_dht(&mut out, 1, 1, ac_c);
    }
    if restart_interval > 0 {
        write_segment(&mut out, 0xDD, &restart_interval.to_be_bytes()); // DRI
    }
    write_sos(&mut out, coeffs.channels());
    out.extend_from_slice(scan);
    write_marker(&mut out, 0xD9); // EOI
    Ok(out)
}

/// Length in bytes of the entropy-coded scan alone (no headers) — the
/// payload the compression-ratio experiments compare.
///
/// # Errors
///
/// As for [`encode_coefficients`]: a level the Annex-K tables cannot code.
pub fn scan_length(coeffs: &CoeffImage) -> Result<usize, JpegError> {
    let dc_l = HuffmanTable::dc_luma();
    let ac_l = HuffmanTable::ac_luma();
    let dc_c = HuffmanTable::dc_chroma();
    let ac_c = HuffmanTable::ac_chroma();
    Ok(encode_scan_with(coeffs, &dc_l, &ac_l, &dc_c, &ac_c)?.len())
}

/// Baseline JPEG decoder for streams produced by [`JpegEncoder`] (and any
/// other baseline, non-progressive, non-restart JFIF stream using 4:4:4
/// or 4:2:0 sampling).
#[derive(Debug, Clone, Copy, Default)]
pub struct JpegDecoder;

impl JpegDecoder {
    /// Decode a JFIF stream to pixels.
    ///
    /// This entry point accepts untrusted bytes: every corruption mode —
    /// truncation, bit flips, bad segment lengths — surfaces as a typed
    /// [`JpegError`] whose [`JpegErrorKind`](crate::JpegErrorKind) tells retry logic whether
    /// re-fetching the payload could help.
    ///
    /// # Errors
    ///
    /// Returns a [`JpegErrorKind::Truncated`](crate::JpegErrorKind::Truncated) error when the stream ends
    /// early, [`JpegErrorKind::Malformed`](crate::JpegErrorKind::Malformed) on syntax violations, and
    /// [`JpegErrorKind::Unsupported`](crate::JpegErrorKind::Unsupported) for non-baseline features.
    pub fn decode(bytes: &[u8]) -> Result<Image, JpegError> {
        Ok(Self::decode_coefficients(bytes)?.to_image())
    }

    /// Decode a JFIF stream to quantised coefficients — the receiver-side
    /// entry point for DC recovery, which needs the coefficients rather
    /// than pixels.
    ///
    /// # Errors
    ///
    /// As for [`JpegDecoder::decode`]. Additionally, any panic escaping
    /// the parser (a codec bug) is caught and reported as a
    /// [`JpegErrorKind::Internal`](crate::JpegErrorKind::Internal) error rather than unwinding into the
    /// caller — decode of untrusted bytes never takes down a worker.
    pub fn decode_coefficients(bytes: &[u8]) -> Result<CoeffImage, JpegError> {
        let t0 = std::time::Instant::now();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| Parser::new(bytes).parse()))
                .unwrap_or_else(|payload| {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "parser panicked".to_string());
                    Err(JpegError::internal(format!("decoder panic: {msg}")))
                });
        if result.is_ok() {
            crate::metrics::record_entropy(t0, bytes.len() as u64);
        }
        result
    }
}

fn write_marker(out: &mut Vec<u8>, code: u8) {
    out.push(0xFF);
    out.push(code);
}

fn write_segment(out: &mut Vec<u8>, code: u8, payload: &[u8]) {
    write_marker(out, code);
    let len = (payload.len() + 2) as u16;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
}

fn write_app0(out: &mut Vec<u8>) {
    let payload = [
        b'J', b'F', b'I', b'F', 0, // identifier
        1, 1, // version 1.1
        0, // density units: none
        0, 1, 0, 1, // density 1x1
        0, 0, // no thumbnail
    ];
    write_segment(out, 0xE0, &payload);
}

fn write_dqt(out: &mut Vec<u8>, id: u8, table: &QuantTable) {
    let mut payload = Vec::with_capacity(65);
    payload.push(id); // Pq=0 (8-bit), Tq=id
    let zz = to_zigzag(table.values());
    for &v in &zz {
        payload.push(v as u8);
    }
    write_segment(out, 0xDB, &payload);
}

pub(crate) fn sampling_factors(coeffs: &CoeffImage) -> Vec<(u8, u8)> {
    if coeffs.channels() == 1 {
        vec![(1, 1)]
    } else {
        match coeffs.sampling() {
            ChromaSampling::Cs444 => vec![(1, 1), (1, 1), (1, 1)],
            ChromaSampling::Cs422 => vec![(2, 1), (1, 1), (1, 1)],
            ChromaSampling::Cs420 => vec![(2, 2), (1, 1), (1, 1)],
        }
    }
}

fn write_sof0(out: &mut Vec<u8>, coeffs: &CoeffImage) {
    let factors = sampling_factors(coeffs);
    let mut payload = Vec::new();
    payload.push(8); // precision
    payload.extend_from_slice(&(coeffs.height() as u16).to_be_bytes());
    payload.extend_from_slice(&(coeffs.width() as u16).to_be_bytes());
    payload.push(coeffs.channels() as u8);
    for (i, &(h, v)) in factors.iter().enumerate() {
        payload.push(i as u8 + 1); // component id
        payload.push((h << 4) | v);
        payload.push(u8::from(i > 0)); // quant table id
    }
    write_segment(out, 0xC0, &payload);
}

fn write_dht(out: &mut Vec<u8>, class: u8, id: u8, table: &HuffmanTable) {
    let mut payload = Vec::with_capacity(17 + table.vals().len());
    payload.push((class << 4) | id);
    payload.extend_from_slice(table.bits());
    payload.extend_from_slice(table.vals());
    write_segment(out, 0xC4, &payload);
}

fn write_sos(out: &mut Vec<u8>, channels: usize) {
    let mut payload = Vec::new();
    payload.push(channels as u8);
    for i in 0..channels {
        payload.push(i as u8 + 1);
        let table = u8::from(i > 0);
        payload.push((table << 4) | table);
    }
    payload.push(0); // Ss
    payload.push(63); // Se
    payload.push(0); // Ah/Al
    write_segment(out, 0xDA, &payload);
}

/// Entropy-code one block; the error is a symbol the tables have no code
/// for.
fn encode_block(
    writer: &mut BitWriter,
    block: &[i32; BLOCK_AREA],
    pred: &mut i32,
    dc_table: &HuffmanTable,
    ac_table: &HuffmanTable,
) -> Result<(), u8> {
    let zz = to_zigzag(block);
    // DC differential
    let diff = zz[0] - *pred;
    *pred = zz[0];
    let (size, bits) = magnitude_code(diff);
    dc_table.put(writer, size as u8)?;
    writer.put(bits, size);
    // AC run-length
    let mut run = 0u32;
    for &coef in &zz[1..] {
        if coef == 0 {
            run += 1;
            continue;
        }
        while run >= 16 {
            ac_table.put(writer, 0xF0)?; // ZRL
            run -= 16;
        }
        let (size, bits) = magnitude_code(coef);
        ac_table.put(writer, ((run as u8) << 4) | size as u8)?;
        writer.put(bits, size);
        run = 0;
    }
    if run > 0 {
        ac_table.put(writer, 0x00)?; // EOB
    }
    Ok(())
}

/// Scan encoder without restart markers.
///
/// # Errors
///
/// As for [`encode_scan_restarts`].
pub(crate) fn encode_scan_with(
    coeffs: &CoeffImage,
    dc_l: &HuffmanTable,
    ac_l: &HuffmanTable,
    dc_c: &HuffmanTable,
    ac_c: &HuffmanTable,
) -> Result<Vec<u8>, JpegError> {
    encode_scan_restarts(coeffs, dc_l, ac_l, dc_c, ac_c, 0)
}

/// Scan encoder with an optional restart interval (0 disables).
///
/// # Errors
///
/// A [`JpegErrorKind::Unsupported`](crate::JpegErrorKind::Unsupported)
/// error when a block needs a symbol the given tables have no code for.
pub(crate) fn encode_scan_restarts(
    coeffs: &CoeffImage,
    dc_l: &HuffmanTable,
    ac_l: &HuffmanTable,
    dc_c: &HuffmanTable,
    ac_c: &HuffmanTable,
    restart_interval: usize,
) -> Result<Vec<u8>, JpegError> {
    let factors = sampling_factors(coeffs);
    let hmax = factors.iter().map(|&(h, _)| h).max().unwrap_or(1) as usize;
    let vmax = factors.iter().map(|&(_, v)| v).max().unwrap_or(1) as usize;
    let mcus_x = coeffs.width().div_ceil(BLOCK * hmax);
    let mcus_y = coeffs.height().div_ceil(BLOCK * vmax);

    let mut writer = BitWriter::new();
    let mut preds = vec![0i32; coeffs.channels()];
    let mut mcu_index = 0usize;
    let mut restart_count = 0u8;
    for my in 0..mcus_y {
        for mx in 0..mcus_x {
            if restart_interval > 0 && mcu_index > 0 && mcu_index.is_multiple_of(restart_interval) {
                writer.put_restart_marker(restart_count % 8);
                restart_count = restart_count.wrapping_add(1);
                preds.iter_mut().for_each(|p| *p = 0);
            }
            mcu_index += 1;
            for (c, &(h, v)) in factors.iter().enumerate() {
                let (dc_t, ac_t) = if c == 0 { (dc_l, ac_l) } else { (dc_c, ac_c) };
                let plane = coeffs.plane(c);
                for bv in 0..v as usize {
                    for bh in 0..h as usize {
                        let bx = (mx * h as usize + bh).min(plane.blocks_x() - 1);
                        let by = (my * v as usize + bv).min(plane.blocks_y() - 1);
                        encode_block(&mut writer, plane.block(bx, by), &mut preds[c], dc_t, ac_t)
                            .map_err(crate::huffman::missing_symbol)?;
                    }
                }
            }
        }
    }
    Ok(writer.finish())
}

/// Entropy-code with restart markers every `interval` MCUs (DRI + RSTn).
///
/// # Errors
///
/// Returns a [`JpegErrorKind::Unsupported`](crate::JpegErrorKind::Unsupported) error for out-of-range
/// dimensions, a zero/overlong interval, or a level the Annex-K tables
/// cannot code (as for [`encode_coefficients`]).
pub fn encode_coefficients_with_restarts(
    coeffs: &CoeffImage,
    interval: usize,
) -> Result<Vec<u8>, JpegError> {
    if interval == 0 || interval > 65_535 {
        return Err(JpegError::unsupported(format!(
            "restart interval {interval} out of range 1..=65535"
        )));
    }
    let dc_l = HuffmanTable::dc_luma();
    let ac_l = HuffmanTable::ac_luma();
    let dc_c = HuffmanTable::dc_chroma();
    let ac_c = HuffmanTable::ac_chroma();
    let scan = encode_scan_restarts(coeffs, &dc_l, &ac_l, &dc_c, &ac_c, interval)?;
    write_file_with_tables(coeffs, &dc_l, &ac_l, &dc_c, &ac_c, interval as u16, &scan)
}

struct ComponentInfo {
    #[allow(dead_code)]
    id: u8,
    h: usize,
    v: usize,
    qtable_id: usize,
    dc_table: usize,
    ac_table: usize,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    width: usize,
    height: usize,
    qtables: Vec<Option<QuantTable>>,
    dc_tables: Vec<Option<HuffmanTable>>,
    ac_tables: Vec<Option<HuffmanTable>>,
    components: Vec<ComponentInfo>,
    restart_interval: usize,
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            width: 0,
            height: 0,
            qtables: vec![None, None, None, None],
            dc_tables: vec![None, None, None, None],
            ac_tables: vec![None, None, None, None],
            components: Vec::new(),
            restart_interval: 0,
        }
    }

    fn err(msg: impl Into<String>) -> JpegError {
        JpegError::malformed(msg)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], JpegError> {
        if self.pos + n > self.bytes.len() {
            return Err(JpegError::truncated("stream ended inside a header segment"));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, JpegError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, JpegError> {
        let s = self.take(2)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }

    fn parse(mut self) -> Result<CoeffImage, JpegError> {
        if self.take(2)? != [0xFF, 0xD8] {
            return Err(Self::err("missing SOI marker"));
        }
        loop {
            let mut marker = self.u8()?;
            if marker != 0xFF {
                return Err(Self::err(format!("expected marker, got {marker:#04x}")));
            }
            // skip fill bytes
            loop {
                marker = self.u8()?;
                if marker != 0xFF {
                    break;
                }
            }
            match marker {
                0xD9 => return Err(Self::err("EOI before SOS")),
                0xDB => self.parse_dqt()?,
                0xDD => {
                    let len = self.u16()? as usize;
                    if len != 4 {
                        return Err(Self::err("bad DRI length"));
                    }
                    self.restart_interval = self.u16()? as usize;
                }
                0xC0 => self.parse_sof0()?,
                0xC4 => self.parse_dht()?,
                0xDA => {
                    self.parse_sos_header()?;
                    return self.parse_scan();
                }
                0xC1..=0xCF => {
                    return Err(JpegError::unsupported(format!(
                        "frame type {marker:#04x} (baseline sequential only)"
                    )))
                }
                // Standalone markers carry no length field; none of them is
                // legal between header segments, so reading a bogus length
                // here would desynchronise the parser.
                0x01 | 0xD0..=0xD8 => {
                    return Err(Self::err(format!(
                        "standalone marker {marker:#04x} before SOS"
                    )))
                }
                _ => {
                    // skip unknown segment
                    let len = self.u16()? as usize;
                    if len < 2 {
                        return Err(Self::err("segment length too small"));
                    }
                    self.take(len - 2)?;
                }
            }
        }
    }

    fn parse_dqt(&mut self) -> Result<(), JpegError> {
        let len = self.u16()? as usize;
        let mut remaining = len.checked_sub(2).ok_or_else(|| Self::err("bad DQT length"))?;
        while remaining > 0 {
            let pqtq = self.u8()?;
            let precision = pqtq >> 4;
            let id = (pqtq & 0x0F) as usize;
            if precision != 0 {
                return Err(Self::err("16-bit quantisation tables unsupported"));
            }
            if id > 3 {
                return Err(Self::err("quant table id out of range"));
            }
            let raw = self.take(BLOCK_AREA)?;
            let mut zz = [0u16; BLOCK_AREA];
            for (dst, &src) in zz.iter_mut().zip(raw) {
                if src == 0 {
                    return Err(Self::err("zero quantiser entry"));
                }
                *dst = src as u16;
            }
            self.qtables[id] = Some(QuantTable::from_values(from_zigzag(&zz)));
            remaining = remaining
                .checked_sub(1 + BLOCK_AREA)
                .ok_or_else(|| Self::err("bad DQT length"))?;
        }
        Ok(())
    }

    fn parse_sof0(&mut self) -> Result<(), JpegError> {
        let _len = self.u16()?;
        let precision = self.u8()?;
        if precision != 8 {
            return Err(JpegError::unsupported(format!(
                "{precision}-bit sample precision (baseline is 8-bit)"
            )));
        }
        self.height = self.u16()? as usize;
        self.width = self.u16()? as usize;
        if self.width == 0 || self.height == 0 {
            return Err(Self::err("zero image dimension"));
        }
        if self.width.saturating_mul(self.height) > MAX_DECODE_PIXELS {
            return Err(JpegError::unsupported(format!(
                "frame {}x{} exceeds the {MAX_DECODE_PIXELS}-pixel decode limit",
                self.width, self.height
            )));
        }
        let nf = self.u8()? as usize;
        if nf != 1 && nf != 3 {
            return Err(JpegError::unsupported(format!("component count {nf}")));
        }
        self.components.clear();
        for _ in 0..nf {
            let id = self.u8()?;
            let hv = self.u8()?;
            let tq = self.u8()? as usize;
            let (h, v) = ((hv >> 4) as usize, (hv & 0x0F) as usize);
            if tq > 3 {
                return Err(Self::err("SOF quant table id out of range"));
            }
            self.components.push(ComponentInfo {
                id,
                h,
                v,
                qtable_id: tq,
                dc_table: 0,
                ac_table: 0,
            });
        }
        // Only the factor combinations this codec can emit are accepted;
        // anything else (e.g. vertical-only subsampling) would build
        // component planes whose dimensions disagree with the sampling
        // tag and corrupt the reconstruction downstream.
        let factors: Vec<(usize, usize)> =
            self.components.iter().map(|c| (c.h, c.v)).collect();
        let known = matches!(
            factors.as_slice(),
            [(1, 1)]
                | [(1, 1), (1, 1), (1, 1)]
                | [(2, 1), (1, 1), (1, 1)]
                | [(2, 2), (1, 1), (1, 1)]
        );
        if !known {
            return Err(JpegError::unsupported(format!(
                "sampling factor combination {factors:?} (4:4:4, 4:2:2 and 4:2:0 only)"
            )));
        }
        Ok(())
    }

    fn parse_dht(&mut self) -> Result<(), JpegError> {
        let len = self.u16()? as usize;
        let mut remaining = len.checked_sub(2).ok_or_else(|| Self::err("bad DHT length"))?;
        while remaining > 0 {
            let tcth = self.u8()?;
            let class = tcth >> 4;
            let id = (tcth & 0x0F) as usize;
            if id > 3 || class > 1 {
                return Err(Self::err("huffman table id/class out of range"));
            }
            let bits_raw = self.take(16)?;
            let mut bits = [0u8; 16];
            bits.copy_from_slice(bits_raw);
            let total: usize = bits.iter().map(|&b| b as usize).sum();
            if total > 256 {
                return Err(Self::err("huffman table too large"));
            }
            let vals = self.take(total)?.to_vec();
            let table = HuffmanTable::try_new(bits, &vals)
                .map_err(|e| JpegError::malformed(format!("DHT: {e}")))?;
            if class == 0 {
                self.dc_tables[id] = Some(table);
            } else {
                self.ac_tables[id] = Some(table);
            }
            remaining = remaining
                .checked_sub(17 + total)
                .ok_or_else(|| Self::err("bad DHT length"))?;
        }
        Ok(())
    }

    fn parse_sos_header(&mut self) -> Result<(), JpegError> {
        let _len = self.u16()?;
        let ns = self.u8()? as usize;
        if ns != self.components.len() {
            return Err(Self::err("SOS component count mismatch"));
        }
        for _ in 0..ns {
            let id = self.u8()?;
            let tdta = self.u8()?;
            let comp = self
                .components
                .iter_mut()
                .find(|c| c.id == id)
                .ok_or_else(|| Self::err("SOS references unknown component"))?;
            comp.dc_table = (tdta >> 4) as usize;
            comp.ac_table = (tdta & 0x0F) as usize;
            if comp.dc_table > 3 || comp.ac_table > 3 {
                return Err(Self::err("SOS huffman table id out of range"));
            }
        }
        // spectral selection / approximation (baseline: 0, 63, 0)
        self.take(3)?;
        Ok(())
    }

    fn parse_scan(self) -> Result<CoeffImage, JpegError> {
        let hmax = self.components.iter().map(|c| c.h).max().unwrap_or(1);
        let vmax = self.components.iter().map(|c| c.v).max().unwrap_or(1);
        let mcus_x = self.width.div_ceil(BLOCK * hmax);
        let mcus_y = self.height.div_ceil(BLOCK * vmax);

        let mut planes: Vec<CoeffPlane> = self
            .components
            .iter()
            .map(|c| {
                let cw = (self.width * c.h).div_ceil(hmax);
                let ch = (self.height * c.v).div_ceil(vmax);
                CoeffPlane::zeros(mcus_x * c.h, mcus_y * c.v, cw, ch)
            })
            .collect();

        let scan = &self.bytes[self.pos..];
        let mut reader = BitReader::new(scan);
        let mut preds = vec![0i32; self.components.len()];
        let mut mcu_index = 0usize;
        let mut expected_rst = 0u8;
        for my in 0..mcus_y {
            for mx in 0..mcus_x {
                if self.restart_interval > 0
                    && mcu_index > 0
                    && mcu_index.is_multiple_of(self.restart_interval)
                {
                    match reader.take_restart_marker() {
                        Some(m) if m == expected_rst % 8 => {
                            expected_rst = expected_rst.wrapping_add(1);
                            preds.iter_mut().for_each(|p| *p = 0);
                        }
                        Some(m) => {
                            return Err(Self::err(format!(
                                "restart marker out of sequence: got RST{m}"
                            )))
                        }
                        None => {
                            return Err(JpegError::truncated(
                                "scan ended where a restart marker was expected",
                            ))
                        }
                    }
                }
                mcu_index += 1;
                for (c, comp) in self.components.iter().enumerate() {
                    let dc_t = self.dc_tables[comp.dc_table]
                        .as_ref()
                        .ok_or_else(|| Self::err("missing DC table"))?;
                    let ac_t = self.ac_tables[comp.ac_table]
                        .as_ref()
                        .ok_or_else(|| Self::err("missing AC table"))?;
                    for bv in 0..comp.v {
                        for bh in 0..comp.h {
                            let block = planes[c].block_mut(mx * comp.h + bh, my * comp.v + bv);
                            decode_block(&mut reader, dc_t, ac_t, &mut preds[c], block)?;
                        }
                    }
                }
            }
        }

        // Byte stuffing guarantees `FF D9` cannot occur inside entropy
        // data, so its absence means the stream tail was cut off — the
        // scan may have "decoded" only because truncation landed on an
        // MCU boundary.
        if !scan.windows(2).any(|w| w == [0xFF, 0xD9]) {
            return Err(JpegError::truncated("stream ends without an EOI marker"));
        }

        let qtables: Vec<QuantTable> = self
            .components
            .iter()
            .map(|c| {
                self.qtables[c.qtable_id]
                    .clone()
                    .ok_or_else(|| Self::err("missing quant table"))
            })
            .collect::<Result<_, _>>()?;
        let sampling = if self.components.len() == 3 && self.components[0].h == 2 {
            if self.components[0].v == 2 {
                ChromaSampling::Cs420
            } else {
                ChromaSampling::Cs422
            }
        } else {
            ChromaSampling::Cs444
        };
        Ok(CoeffImage::from_parts(
            planes, qtables, sampling, self.width, self.height,
        ))
    }
}

/// Decode one block's DC difference and AC run-lengths into `block`, in
/// natural order: each level lands at `ZIGZAG[k]` directly. `block` must
/// be all zeros, as every block of [`CoeffPlane::zeros`] is when the scan
/// reaches it; levels the stream skips stay zero. On an error the block
/// is partly written, and the caller discards the whole image.
fn decode_block(
    reader: &mut BitReader<'_>,
    dc_table: &HuffmanTable,
    ac_table: &HuffmanTable,
    pred: &mut i32,
    block: &mut [i32; BLOCK_AREA],
) -> Result<(), JpegError> {
    let truncated = || JpegError::truncated("entropy-coded scan ended mid-block");
    let size = dc_table.decode(reader).ok_or_else(truncated)? as u32;
    if size > 15 {
        return Err(JpegError::malformed(format!(
            "DC size category {size} exceeds the baseline limit"
        )));
    }
    let bits = reader.bits(size).ok_or_else(truncated)?;
    *pred += magnitude_decode(size, bits);
    block[0] = *pred;
    let mut k = 1usize;
    while k < BLOCK_AREA {
        let sym = ac_table.decode(reader).ok_or_else(truncated)?;
        if sym == 0x00 {
            break; // EOB
        }
        if sym == 0xF0 {
            k += 16; // ZRL
            continue;
        }
        let run = (sym >> 4) as usize;
        let size = (sym & 0x0F) as u32; // 4 bits: size <= 15 by construction
        k += run;
        if k >= BLOCK_AREA {
            return Err(JpegError::malformed("AC run overflows block"));
        }
        let bits = reader.bits(size).ok_or_else(truncated)?;
        block[ZIGZAG[k]] = magnitude_decode(size, bits);
        k += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_image::ColorSpace;
    use crate::coeff::DcDropMode;
    use dcdiff_image::Plane;

    fn test_image(w: usize, h: usize) -> Image {
        Image::from_planes(
            vec![
                Plane::from_fn(w, h, |x, y| ((x * x + y * 3) % 256) as f32),
                Plane::from_fn(w, h, |x, y| ((x * 5 + y * y) % 256) as f32),
                Plane::from_fn(w, h, |x, y| ((x + y * 7) % 256) as f32),
            ],
            ColorSpace::Rgb,
        )
        .unwrap()
    }

    #[test]
    fn encode_produces_valid_markers() {
        let bytes = JpegEncoder::new(50).encode(&test_image(24, 16)).unwrap();
        assert_eq!(&bytes[..2], &[0xFF, 0xD8]);
        assert_eq!(&bytes[bytes.len() - 2..], &[0xFF, 0xD9]);
        // APP0 JFIF identifier
        assert_eq!(&bytes[6..11], b"JFIF\0");
    }

    #[test]
    fn round_trip_coefficients_are_exact() {
        // entropy coding must be lossless over quantised coefficients
        let img = test_image(40, 24);
        let coeffs = JpegEncoder::new(50).to_coefficients(&img);
        let bytes = encode_coefficients(&coeffs).unwrap();
        let decoded = JpegDecoder::decode_coefficients(&bytes).unwrap();
        assert_eq!(decoded.channels(), 3);
        for c in 0..3 {
            assert_eq!(coeffs.plane(c), decoded.plane(c), "component {c}");
            assert_eq!(coeffs.qtable(c), decoded.qtable(c));
        }
    }

    #[test]
    fn decode_reconstructs_close_pixels() {
        let img = test_image(32, 32);
        let bytes = JpegEncoder::new(90).encode(&img).unwrap();
        let decoded = JpegDecoder::decode(&bytes).unwrap();
        assert_eq!(decoded.dims(), (32, 32));
        assert!(img.mean_abs_diff(&decoded) < 8.0);
    }

    #[test]
    fn cs420_round_trip() {
        let img = test_image(40, 24);
        let enc = JpegEncoder::new(60).with_sampling(ChromaSampling::Cs420);
        let coeffs = enc.to_coefficients(&img);
        let bytes = encode_coefficients(&coeffs).unwrap();
        let decoded = JpegDecoder::decode_coefficients(&bytes).unwrap();
        assert_eq!(decoded.sampling(), ChromaSampling::Cs420);
        for c in 0..3 {
            assert_eq!(coeffs.plane(c), decoded.plane(c), "component {c}");
        }
        let pix = decoded.to_image();
        assert_eq!(pix.dims(), (40, 24));
    }

    #[test]
    fn grayscale_round_trip() {
        let img = Image::from_gray(Plane::from_fn(24, 24, |x, y| ((x * y) % 256) as f32));
        let bytes = JpegEncoder::new(50).encode(&img).unwrap();
        let decoded = JpegDecoder::decode(&bytes).unwrap();
        assert_eq!(decoded.channels(), 1);
        assert!(img.mean_abs_diff(&decoded) < 12.0);
    }

    #[test]
    fn odd_dimensions_round_trip() {
        let img = test_image(37, 21);
        for sampling in [ChromaSampling::Cs444, ChromaSampling::Cs420] {
            let enc = JpegEncoder::new(50).with_sampling(sampling);
            let bytes = enc.encode(&img).unwrap();
            let decoded = JpegDecoder::decode(&bytes).unwrap();
            assert_eq!(decoded.dims(), (37, 21), "{sampling}");
        }
    }

    #[test]
    fn dropping_dc_shrinks_the_file() {
        let img = test_image(64, 64);
        let coeffs = JpegEncoder::new(50).to_coefficients(&img);
        let full = encode_coefficients(&coeffs).unwrap().len();
        let dropped =
            encode_coefficients(&coeffs.drop_dc(DcDropMode::KeepCorners)).unwrap().len();
        assert!(
            dropped < full,
            "dropping DC must reduce coded size: {dropped} vs {full}"
        );
    }

    #[test]
    fn dc_dropped_stream_is_still_standard_jpeg() {
        let img = test_image(32, 32);
        let coeffs = JpegEncoder::new(50)
            .to_coefficients(&img)
            .drop_dc(DcDropMode::KeepCorners);
        let bytes = encode_coefficients(&coeffs).unwrap();
        // a standard decoder reads it fine; DC of interior blocks is zero
        let decoded = JpegDecoder::decode_coefficients(&bytes).unwrap();
        assert_eq!(decoded.plane(0).dc(1, 1), 0);
        assert_eq!(
            decoded.plane(0).dc(0, 0),
            coeffs.plane(0).dc(0, 0),
            "corner anchor survives"
        );
    }

    #[test]
    fn decoder_rejects_garbage() {
        assert!(JpegDecoder::decode(b"not a jpeg").is_err());
        assert!(JpegDecoder::decode(&[0xFF, 0xD8, 0xFF, 0xD9]).is_err());
    }

    #[test]
    fn decoder_rejects_truncated_scan() {
        let img = test_image(32, 32);
        let bytes = JpegEncoder::new(50).encode(&img).unwrap();
        let truncated = &bytes[..bytes.len() / 2];
        assert!(JpegDecoder::decode(truncated).is_err());
    }

    #[test]
    fn scan_length_is_consistent_with_file_size() {
        let img = test_image(48, 48);
        let coeffs = JpegEncoder::new(50).to_coefficients(&img);
        let scan = scan_length(&coeffs).unwrap();
        let file = encode_coefficients(&coeffs).unwrap().len();
        assert!(scan < file && scan > file / 2, "scan {scan}, file {file}");
    }
}

#[cfg(test)]
mod restart_tests {
    use super::*;
    use dcdiff_image::{ColorSpace, Image, Plane};

    fn test_image(w: usize, h: usize) -> Image {
        Image::from_planes(
            vec![
                Plane::from_fn(w, h, |x, y| ((x * 11 + y * 3) % 256) as f32),
                Plane::from_fn(w, h, |x, y| ((x * 2 + y * 13) % 256) as f32),
                Plane::from_fn(w, h, |x, y| ((x + y * 7) % 256) as f32),
            ],
            ColorSpace::Rgb,
        )
        .unwrap()
    }

    #[test]
    fn restart_stream_contains_dri_and_rst_markers() {
        let coeffs = JpegEncoder::new(50).to_coefficients(&test_image(64, 64));
        let bytes = encode_coefficients_with_restarts(&coeffs, 4).unwrap();
        assert!(
            bytes.windows(2).any(|w| w == [0xFF, 0xDD]),
            "DRI segment missing"
        );
        assert!(
            bytes.windows(2).any(|w| w == [0xFF, 0xD0]),
            "RST0 marker missing"
        );
    }

    #[test]
    fn restart_stream_round_trips_exactly() {
        for interval in [1usize, 3, 4, 7] {
            let coeffs = JpegEncoder::new(50).to_coefficients(&test_image(64, 48));
            let bytes = encode_coefficients_with_restarts(&coeffs, interval).unwrap();
            let decoded = JpegDecoder::decode_coefficients(&bytes).unwrap();
            for c in 0..3 {
                assert_eq!(
                    coeffs.plane(c),
                    decoded.plane(c),
                    "interval {interval}, component {c}"
                );
            }
        }
    }

    #[test]
    fn encoder_builder_emits_restarts() {
        let enc = JpegEncoder::new(50).with_restart_interval(2);
        assert_eq!(enc.restart_interval(), 2);
        let bytes = enc.encode(&test_image(48, 48)).unwrap();
        let decoded = JpegDecoder::decode(&bytes).unwrap();
        assert_eq!(decoded.dims(), (48, 48));
    }

    #[test]
    fn cs420_with_restarts_round_trips() {
        let enc = JpegEncoder::new(60)
            .with_sampling(ChromaSampling::Cs420)
            .with_restart_interval(2);
        let coeffs = enc.to_coefficients(&test_image(48, 32));
        let bytes = encode_coefficients_with_restarts(&coeffs, 2).unwrap();
        let decoded = JpegDecoder::decode_coefficients(&bytes).unwrap();
        for c in 0..3 {
            assert_eq!(coeffs.plane(c), decoded.plane(c));
        }
    }

    #[test]
    fn height_0xffda_round_trips_with_restarts() {
        // SOF0 stores the height big-endian, so 65498 rows write the bytes
        // FF DA inside the frame header, ahead of the real SOS marker.
        let (w, h) = (8, 0xFFDA);
        let image = Image::from_planes(
            vec![Plane::from_fn(w, h, |x, y| ((x * 7 + y * 3) % 256) as f32)],
            ColorSpace::Gray,
        )
        .unwrap();
        let encoder = JpegEncoder::new(50).with_restart_interval(1);
        let coeffs = encoder.to_coefficients(&image);
        let bytes = encode_coefficients_with_restarts(&coeffs, 1).unwrap();
        assert_eq!(
            JpegDecoder::decode_coefficients(&bytes).unwrap().plane(0),
            coeffs.plane(0)
        );
        assert_eq!(encoder.encode(&image).unwrap(), bytes);
        assert_eq!(JpegDecoder::decode(&bytes).unwrap().dims(), (w, h));
    }

    #[test]
    fn zero_interval_rejected() {
        let coeffs = JpegEncoder::new(50).to_coefficients(&test_image(16, 16));
        assert!(encode_coefficients_with_restarts(&coeffs, 0).is_err());
    }

    #[test]
    fn corrupted_restart_sequence_detected() {
        let coeffs = JpegEncoder::new(50).to_coefficients(&test_image(64, 64));
        let mut bytes = encode_coefficients_with_restarts(&coeffs, 2).unwrap();
        // find the first RST0 marker and break its index
        let pos = bytes
            .windows(2)
            .position(|w| w == [0xFF, 0xD0])
            .expect("has restart");
        bytes[pos + 1] = 0xD5; // out-of-sequence restart
        assert!(JpegDecoder::decode(&bytes).is_err());
    }
}

#[cfg(test)]
mod cs422_tests {
    use super::*;
    use dcdiff_image::{ColorSpace, Image, Plane};

    fn test_image(w: usize, h: usize) -> Image {
        Image::from_planes(
            vec![
                Plane::from_fn(w, h, |x, y| ((x * 7 + y) % 256) as f32),
                Plane::from_fn(w, h, |x, y| ((x + y * 9) % 256) as f32),
                Plane::from_fn(w, h, |x, y| ((x * 2 + y * 3) % 256) as f32),
            ],
            ColorSpace::Rgb,
        )
        .unwrap()
    }

    #[test]
    fn cs422_entropy_round_trip_exact() {
        let enc = JpegEncoder::new(50).with_sampling(ChromaSampling::Cs422);
        let coeffs = enc.to_coefficients(&test_image(40, 24));
        let bytes = encode_coefficients(&coeffs).unwrap();
        let decoded = JpegDecoder::decode_coefficients(&bytes).unwrap();
        assert_eq!(decoded.sampling(), ChromaSampling::Cs422);
        for c in 0..3 {
            assert_eq!(coeffs.plane(c), decoded.plane(c), "component {c}");
        }
        let pix = JpegDecoder::decode(&bytes).unwrap();
        assert_eq!(pix.dims(), (40, 24));
    }

    #[test]
    fn cs422_odd_dimensions() {
        let enc = JpegEncoder::new(60).with_sampling(ChromaSampling::Cs422);
        let bytes = enc.encode(&test_image(37, 21)).unwrap();
        let decoded = JpegDecoder::decode(&bytes).unwrap();
        assert_eq!(decoded.dims(), (37, 21));
    }

    #[test]
    fn cs422_smaller_than_cs444() {
        let img = test_image(64, 64);
        let full = JpegEncoder::new(50).encode(&img).unwrap().len();
        let sub = JpegEncoder::new(50)
            .with_sampling(ChromaSampling::Cs422)
            .encode(&img)
            .unwrap()
            .len();
        assert!(sub < full, "4:2:2 {sub} should be below 4:4:4 {full}");
    }
}

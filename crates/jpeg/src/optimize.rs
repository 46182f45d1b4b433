//! Optimised (two-pass) Huffman coding — ITU-T T.81 Annex K.2.
//!
//! The paper's discussion section (§V) notes that better entropy-coding
//! techniques are orthogonal to DC dropping and would compound its
//! savings. This module implements the classic optimisation JPEG itself
//! standardises: a first pass counts the actual symbol frequencies of
//! the image, the Annex-K.2 algorithm assigns code lengths (≤ 16 bits,
//! with the reserved all-ones codepoint excluded), and the scan is coded
//! with the custom tables, which are emitted in the file's DHT segments.
//! Streams remain fully baseline-compatible; [`crate::JpegDecoder`]
//! reads them like any other JPEG.

use crate::codec::{encode_scan_with, walk_scan, write_file_with_tables, SymbolSink};
use crate::coeff::CoeffImage;
use crate::huffman::HuffmanTable;
use crate::JpegError;

/// Symbol frequency counts for one Huffman table.
#[derive(Debug, Clone)]
struct FreqTable {
    counts: [u64; 256],
}

impl FreqTable {
    fn new() -> Self {
        Self { counts: [0; 256] }
    }

    fn record(&mut self, symbol: u8) {
        self.counts[symbol as usize] += 1;
    }

    /// Annex K.2: derive the `BITS`/`HUFFVAL` lists from frequencies.
    #[expect(
        clippy::disallowed_macros,
        reason = "encoder-side debug check: `bits` and `vals` are both derived from the same code-size table"
    )]
    fn build(&self) -> HuffmanTable {
        // freq[256] is the reserved symbol guaranteeing no code is all
        // ones; it must receive a code, so it gets frequency 1.
        let mut freq = [0i64; 257];
        for (i, &c) in self.counts.iter().enumerate() {
            freq[i] = c as i64;
        }
        freq[256] = 1;
        let mut codesize = [0usize; 257];
        let mut others = [usize::MAX; 257];

        loop {
            // find v1: least nonzero freq (break ties towards larger value)
            let mut v1 = usize::MAX;
            for (i, &f) in freq.iter().enumerate() {
                if f > 0 && (v1 == usize::MAX || f < freq[v1] || (f == freq[v1] && i > v1)) {
                    v1 = i;
                }
            }
            // find v2: next least nonzero freq, v2 != v1
            let mut v2 = usize::MAX;
            for (i, &f) in freq.iter().enumerate() {
                if i != v1 && f > 0 && (v2 == usize::MAX || f < freq[v2] || (f == freq[v2] && i > v2))
                {
                    v2 = i;
                }
            }
            if v2 == usize::MAX {
                break; // only one tree left
            }
            freq[v1] += freq[v2];
            freq[v2] = 0;
            codesize[v1] += 1;
            let mut node = v1;
            while others[node] != usize::MAX {
                node = others[node];
                codesize[node] += 1;
            }
            others[node] = v2;
            codesize[v2] += 1;
            let mut node = v2;
            while others[node] != usize::MAX {
                node = others[node];
                codesize[node] += 1;
            }
        }

        // count codes per length
        let mut bits_long = [0i32; 64];
        for &size in codesize.iter() {
            if size > 0 {
                bits_long[size.min(63)] += 1;
            }
        }
        // adjust to max length 16 (Annex K.2 "Adjust_BITS")
        let mut i = 62usize;
        while i > 16 {
            while bits_long[i] > 0 {
                // find the longest shorter-than-i-1 nonempty length
                let mut j = i - 2;
                while bits_long[j] == 0 {
                    j -= 1;
                }
                bits_long[i] -= 2;
                bits_long[i - 1] += 1;
                bits_long[j + 1] += 2;
                bits_long[j] -= 1;
            }
            i -= 1;
        }
        // remove the reserved codepoint from the longest nonempty length
        let mut j = 16;
        while j > 0 && bits_long[j] == 0 {
            j -= 1;
        }
        if j > 0 {
            bits_long[j] -= 1;
        }

        let mut bits = [0u8; 16];
        for (k, b) in bits.iter_mut().enumerate() {
            *b = bits_long[k + 1].max(0) as u8;
        }
        // symbols sorted by (code size, symbol value), excluding 256
        let mut symbols: Vec<usize> = (0..256).filter(|&s| codesize[s] > 0).collect();
        symbols.sort_by_key(|&s| (codesize[s], s));
        let vals: Vec<u8> = symbols.iter().map(|&s| s as u8).collect();
        // the adjustment may have shifted counts; recompute `bits` from
        // the final list length to stay consistent
        let total: usize = bits.iter().map(|&b| b as usize).sum();
        debug_assert_eq!(total, vals.len(), "BITS/HUFFVAL must agree");
        HuffmanTable::new(bits, &vals)
    }
}

/// [`walk_scan`]'s counting sink: one frequency table per Huffman table
/// (DC luma, AC luma, DC chroma, AC chroma).
struct SymbolCounter([FreqTable; 4]);

impl SymbolSink for SymbolCounter {
    type Error = std::convert::Infallible;

    #[inline]
    fn symbol(&mut self, table: usize, symbol: u8) -> Result<(), Self::Error> {
        self.0[table].record(symbol);
        Ok(())
    }

    #[inline]
    fn bits(&mut self, _bits: u32, _size: u32) {}

    fn restart(&mut self, _m: u8) {}
}

/// Count the DC and AC symbols a coefficient image will emit.
fn gather_frequencies(coeffs: &CoeffImage) -> [FreqTable; 4] {
    let mut counter = SymbolCounter(std::array::from_fn(|_| FreqTable::new()));
    let Ok(()) = walk_scan(coeffs, 0, &mut counter);
    counter.0
}

/// Entropy-code a [`CoeffImage`] with image-optimised Huffman tables
/// (two passes). The output is a standard baseline JFIF stream carrying
/// the custom tables in its DHT segments.
///
/// # Errors
///
/// Returns a [`crate::JpegErrorKind::Unsupported`] error when dimensions
/// exceed the JFIF 16-bit limits.
///
/// # Example
///
/// ```
/// use dcdiff_image::{ColorSpace, Image};
/// use dcdiff_jpeg::{encode_coefficients, encode_coefficients_optimized, JpegDecoder, JpegEncoder};
///
/// let img = Image::filled(32, 32, ColorSpace::Rgb, 77.0);
/// let coeffs = JpegEncoder::new(50).to_coefficients(&img);
/// let standard = encode_coefficients(&coeffs)?;
/// let optimized = encode_coefficients_optimized(&coeffs)?;
/// let a = JpegDecoder::decode_coefficients(&standard)?;
/// let b = JpegDecoder::decode_coefficients(&optimized)?;
/// assert_eq!(a.plane(0), b.plane(0)); // identical coefficients
/// # Ok::<(), dcdiff_jpeg::JpegError>(())
/// ```
pub fn encode_coefficients_optimized(coeffs: &CoeffImage) -> Result<Vec<u8>, JpegError> {
    let freqs = gather_frequencies(coeffs);
    let dc_l = freqs[0].build();
    let ac_l = freqs[1].build();
    let (dc_c, ac_c) = if coeffs.channels() == 3 {
        (freqs[2].build(), freqs[3].build())
    } else {
        (HuffmanTable::dc_chroma(), HuffmanTable::ac_chroma())
    };
    let scan = encode_scan_with(coeffs, &dc_l, &ac_l, &dc_c, &ac_c)?;
    write_file_with_tables(coeffs, &dc_l, &ac_l, &dc_c, &ac_c, 0, &scan)
}

/// Coded sizes `(standard, optimized)` for quick comparisons.
///
/// # Errors
///
/// Propagates the encoder errors of either path.
pub fn size_comparison(coeffs: &CoeffImage) -> Result<(usize, usize), JpegError> {
    Ok((
        crate::codec::encode_coefficients(coeffs)?.len(),
        encode_coefficients_optimized(coeffs)?.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_coefficients, ChromaSampling, JpegDecoder, JpegEncoder};
    use crate::coeff::DcDropMode;
    use dcdiff_image::{ColorSpace, Image, Plane};

    fn test_image(w: usize, h: usize) -> Image {
        Image::from_planes(
            vec![
                Plane::from_fn(w, h, |x, y| ((x * x + y * 5) % 256) as f32),
                Plane::from_fn(w, h, |x, y| ((x * 3 + y * y) % 256) as f32),
                Plane::from_fn(w, h, |x, y| ((x + y) * 2 % 256) as f32),
            ],
            ColorSpace::Rgb,
        )
        .unwrap()
    }

    #[test]
    fn optimized_stream_decodes_to_identical_coefficients() {
        let coeffs = JpegEncoder::new(50).to_coefficients(&test_image(48, 40));
        let bytes = encode_coefficients_optimized(&coeffs).unwrap();
        let decoded = JpegDecoder::decode_coefficients(&bytes).unwrap();
        for c in 0..3 {
            assert_eq!(coeffs.plane(c), decoded.plane(c), "component {c}");
        }
    }

    #[test]
    fn optimized_is_no_larger_than_standard() {
        for quality in [30u8, 50, 80] {
            let coeffs = JpegEncoder::new(quality).to_coefficients(&test_image(64, 64));
            let (standard, optimized) = size_comparison(&coeffs).unwrap();
            assert!(
                optimized <= standard,
                "q{quality}: optimized {optimized} > standard {standard}"
            );
        }
    }

    #[test]
    fn optimization_compounds_with_dc_dropping() {
        let coeffs = JpegEncoder::new(50).to_coefficients(&test_image(64, 64));
        let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
        let standard_dropped = encode_coefficients(&dropped).unwrap().len();
        let optimized_dropped = encode_coefficients_optimized(&dropped).unwrap().len();
        assert!(optimized_dropped <= standard_dropped);
        // and the stream still decodes
        let decoded = JpegDecoder::decode_coefficients(
            &encode_coefficients_optimized(&dropped).unwrap(),
        )
        .unwrap();
        assert_eq!(decoded.plane(0).dc(1, 1), 0);
    }

    #[test]
    fn grayscale_optimization_works() {
        let img = Image::from_gray(Plane::from_fn(32, 32, |x, y| ((x * y) % 256) as f32));
        let coeffs = JpegEncoder::new(50).to_coefficients(&img);
        let bytes = encode_coefficients_optimized(&coeffs).unwrap();
        let decoded = JpegDecoder::decode_coefficients(&bytes).unwrap();
        assert_eq!(coeffs.plane(0), decoded.plane(0));
    }

    #[test]
    fn cs420_optimization_round_trips() {
        let enc = JpegEncoder::new(50).with_sampling(ChromaSampling::Cs420);
        let coeffs = enc.to_coefficients(&test_image(40, 24));
        let bytes = encode_coefficients_optimized(&coeffs).unwrap();
        let decoded = JpegDecoder::decode_coefficients(&bytes).unwrap();
        for c in 0..3 {
            assert_eq!(coeffs.plane(c), decoded.plane(c));
        }
    }

    #[test]
    fn freq_table_build_handles_single_symbol() {
        // an image of identical blocks uses very few symbols
        let img = Image::from_gray(Plane::filled(16, 16, 128.0));
        let coeffs = JpegEncoder::new(50).to_coefficients(&img);
        let bytes = encode_coefficients_optimized(&coeffs).unwrap();
        let decoded = JpegDecoder::decode_coefficients(&bytes).unwrap();
        assert_eq!(coeffs.plane(0), decoded.plane(0));
    }
}

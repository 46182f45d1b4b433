//! Canonical Huffman coding with the ITU-T T.81 Annex K typical tables.
//!
//! Decoding is table-accelerated: [`HuffmanTable::try_new`] additionally
//! builds a [`LOOKUP_BITS`]-wide prefix table mapping every bit window
//! that starts with a short code to its `(length, symbol)` pair, so the
//! common case in [`HuffmanTable::decode`] is one
//! [`BitReader::peek`] + one array probe + one
//! [`BitReader::consume`] — and the following amplitude bits come out of
//! the same refill via the bulk [`BitReader::bits`] path, so a typical
//! (symbol, amplitude) token pair costs two buffered extractions instead
//! of up to 25 single-bit reads. Codes longer than the window (rare in
//! the Annex-K tables: ≤1.5% of coded symbols at typical qualities) and
//! windows cut short by end-of-data or a marker fall back to
//! [`HuffmanTable::decode_bitwise`], which preserves the exact
//! truncation semantics the fault corpus pins.

// Driven directly by untrusted bits: index with `.get()` (ANALYSIS.md).
#![deny(clippy::indexing_slicing)]

use crate::bitstream::{BitReader, BitWriter};
use crate::JpegError;

/// Window width of the single-probe decode lookup table.
///
/// 9 bits covers every DC code and all but the longest AC codes of the
/// Annex-K tables while keeping each table's LUT at 1 KiB (512 × u16).
pub const LOOKUP_BITS: u32 = 9;
const LOOKUP_LEN: usize = 1 << LOOKUP_BITS;

/// DC luminance table (Annex K.3.1): code lengths per bit count.
pub const DC_LUMA_BITS: [u8; 16] = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0];
/// DC luminance symbol values.
pub const DC_LUMA_VALS: [u8; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];

/// DC chrominance table (Annex K.3.2).
pub const DC_CHROMA_BITS: [u8; 16] = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0];
/// DC chrominance symbol values.
pub const DC_CHROMA_VALS: [u8; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];

/// AC luminance table (Annex K.3.3).
pub const AC_LUMA_BITS: [u8; 16] = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7d];
/// AC luminance symbol values (run/size pairs).
pub const AC_LUMA_VALS: [u8; 162] = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61,
    0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08, 0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52,
    0xd1, 0xf0, 0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0a, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x25,
    0x26, 0x27, 0x28, 0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63, 0x64,
    0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7a, 0x83,
    0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99,
    0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6,
    0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2, 0xd3,
    0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1, 0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8,
    0xe9, 0xea, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa,
];

/// AC chrominance table (Annex K.3.4).
pub const AC_CHROMA_BITS: [u8; 16] = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77];
/// AC chrominance symbol values (run/size pairs).
pub const AC_CHROMA_VALS: [u8; 162] = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61,
    0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91, 0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33,
    0x52, 0xf0, 0x15, 0x62, 0x72, 0xd1, 0x0a, 0x16, 0x24, 0x34, 0xe1, 0x25, 0xf1, 0x17, 0x18,
    0x19, 0x1a, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63,
    0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7a,
    0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97,
    0x98, 0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4,
    0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca,
    0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7,
    0xe8, 0xe9, 0xea, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa,
];

/// A canonical Huffman table usable for both encoding and decoding.
#[derive(Debug, Clone)]
pub struct HuffmanTable {
    /// `bits[l-1]` = number of codes of length `l` (1..=16).
    bits: [u8; 16],
    /// Symbols in code order.
    vals: Vec<u8>,
    /// `code[symbol]` and `size[symbol]` for encoding (size 0 = absent).
    enc_code: [u16; 256],
    enc_size: [u8; 256],
    /// For decoding: smallest/largest code value and first symbol index per
    /// length.
    min_code: [i32; 17],
    max_code: [i32; 17],
    val_ptr: [usize; 17],
    /// Single-probe decode LUT: indexed by the next [`LOOKUP_BITS`] bits
    /// of the stream, holds `(code_len << 8) | symbol` when that window
    /// starts with a code of length ≤ [`LOOKUP_BITS`], else 0 (fall back
    /// to the bit-by-bit decoder).
    lut: Box<[u16; LOOKUP_LEN]>,
}

impl HuffmanTable {
    /// Build a table from the T.81 `BITS`/`HUFFVAL` lists.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len()` does not match the total of `bits`.
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` contract; used only with the compile-time Annex-K tables, untrusted DHT segments go through `try_new`"
    )]
    pub fn new(bits: [u8; 16], vals: &[u8]) -> Self {
        Self::try_new(bits, vals).expect("BITS total must equal HUFFVAL length")
    }

    /// Build a table from untrusted `BITS`/`HUFFVAL` lists (a DHT segment).
    ///
    /// # Errors
    ///
    /// Returns a message when `vals.len()` does not match the total of
    /// `bits` — the one way a canonical table description can be
    /// internally inconsistent.
    #[expect(
        clippy::indexing_slicing,
        reason = "l = i+1 is 1..=16 into [_; 17] tables; sym is a u8 index into 256-entry tables"
    )]
    pub fn try_new(bits: [u8; 16], vals: &[u8]) -> Result<Self, String> {
        let total: usize = bits.iter().map(|&b| b as usize).sum();
        if total != vals.len() {
            return Err(format!(
                "BITS total {total} does not match HUFFVAL length {}",
                vals.len()
            ));
        }
        // Generate canonical code sizes/codes (T.81 C.1/C.2).
        let mut enc_code = [0u16; 256];
        let mut enc_size = [0u8; 256];
        let mut min_code = [0i32; 17];
        let mut max_code = [-1i32; 17];
        let mut val_ptr = [0usize; 17];

        let mut code: u32 = 0;
        let mut k = 0usize;
        let mut lut = Box::new([0u16; LOOKUP_LEN]);
        for (i, &count) in bits.iter().enumerate() {
            let (l, count) = (i + 1, count as usize);
            min_code[l] = code as i32;
            val_ptr[l] = k;
            let chunk = vals
                .get(k..k + count)
                .ok_or("BITS total overflows HUFFVAL")?;
            for &sym in chunk {
                enc_code[sym as usize] = code as u16;
                enc_size[sym as usize] = l as u8;
                if l <= LOOKUP_BITS as usize {
                    // Every window whose high `l` bits equal `code` decodes
                    // to `sym`: fill the 2^(LOOKUP_BITS - l) aliases. A
                    // degenerate DHT can push `code` past 2^l; those codes
                    // are unreachable by the bit-by-bit decoder (its
                    // min/max range check never matches them), and the
                    // start offset lands past the LUT so `skip` writes
                    // nothing — the two decode paths stay in agreement.
                    let span = 1usize << (LOOKUP_BITS as usize - l);
                    let start = (code as usize) << (LOOKUP_BITS as usize - l);
                    for entry in lut.iter_mut().skip(start).take(span) {
                        *entry = ((l as u16) << 8) | sym as u16;
                    }
                }
                code += 1;
            }
            k += count;
            max_code[l] = if count > 0 { code as i32 - 1 } else { -1 };
            code <<= 1;
        }
        Ok(Self {
            bits,
            vals: vals.to_vec(),
            enc_code,
            enc_size,
            min_code,
            max_code,
            val_ptr,
            lut,
        })
    }

    /// The Annex-K DC luminance table.
    pub fn dc_luma() -> Self {
        Self::new(DC_LUMA_BITS, &DC_LUMA_VALS)
    }

    /// The Annex-K DC chrominance table.
    pub fn dc_chroma() -> Self {
        Self::new(DC_CHROMA_BITS, &DC_CHROMA_VALS)
    }

    /// The Annex-K AC luminance table.
    pub fn ac_luma() -> Self {
        Self::new(AC_LUMA_BITS, &AC_LUMA_VALS)
    }

    /// The Annex-K AC chrominance table.
    pub fn ac_chroma() -> Self {
        Self::new(AC_CHROMA_BITS, &AC_CHROMA_VALS)
    }

    /// The `BITS` list (for writing DHT segments).
    pub fn bits(&self) -> &[u8; 16] {
        &self.bits
    }

    /// The `HUFFVAL` list (for writing DHT segments).
    pub fn vals(&self) -> &[u8] {
        &self.vals
    }

    /// Code length in bits for `symbol`, or 0 when absent from the table.
    #[expect(clippy::indexing_slicing, reason = "u8 index into a 256-entry table")]
    pub fn code_len(&self, symbol: u8) -> u8 {
        self.enc_size[symbol as usize]
    }

    /// Append the code for `symbol` to `writer`.
    ///
    /// # Errors
    ///
    /// Returns a [`JpegErrorKind::Unsupported`](crate::JpegErrorKind::Unsupported)
    /// error naming the symbol when it has no code in this table — for
    /// example an AC level of magnitude category 11, which the Annex-K
    /// AC tables do not cover. Nothing is written then.
    pub fn encode(&self, writer: &mut BitWriter, symbol: u8) -> Result<(), JpegError> {
        self.put(writer, symbol).map_err(missing_symbol)
    }

    /// [`Self::encode`] with the bare symbol as the error: the scan
    /// encoder's per-symbol step, which passes a byte rather than a
    /// [`JpegError`] through its hot loop.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "u8 index into a 256-entry table")]
    pub(crate) fn put(&self, writer: &mut BitWriter, symbol: u8) -> Result<(), u8> {
        let size = self.code_len(symbol);
        if size == 0 {
            return Err(symbol);
        }
        writer.put(self.enc_code[symbol as usize] as u32, size as u32);
        Ok(())
    }

    /// Decode the next symbol from `reader`; `None` at end of data or on
    /// an invalid code.
    ///
    /// Fast path: one [`BitReader::peek`] of [`LOOKUP_BITS`] bits and a
    /// single LUT probe resolves every code of length ≤ [`LOOKUP_BITS`].
    /// Longer codes, invalid prefixes, and windows truncated by
    /// end-of-data or a marker take [`Self::decode_bitwise`], which is
    /// bit-for-bit the pre-LUT decoder. While [`crate::simd::force_scalar`]
    /// pins the reference pipeline, every symbol takes the bitwise tier.
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Option<u8> {
        if crate::simd::scalar_forced() {
            // `force_scalar` pins the whole reference pipeline, entropy
            // included, so benches measure the pre-LUT baseline.
            return self.decode_bitwise(reader);
        }
        if let Some(window) = reader.peek(LOOKUP_BITS) {
            // `peek` masks to LOOKUP_BITS, so `window < LOOKUP_LEN` and the
            // probe cannot miss; `get` keeps the access checked anyway.
            if let Some(&entry) = self.lut.get(window as usize) {
                if entry != 0 {
                    reader.consume((entry >> 8) as u32);
                    return Some((entry & 0xFF) as u8);
                }
            }
        }
        self.decode_bitwise(reader)
    }

    /// Bit-by-bit canonical decode (T.81 F.2.2.3), the slow tier behind
    /// [`Self::decode`] and the oracle the LUT path is tested against.
    #[expect(clippy::indexing_slicing, reason = "l is 1..=16 into [_; 17] tables")]
    pub fn decode_bitwise(&self, reader: &mut BitReader<'_>) -> Option<u8> {
        let mut code: i32 = 0;
        for l in 1..=16usize {
            code = (code << 1) | reader.bit()? as i32;
            if self.max_code[l] >= 0 && code <= self.max_code[l] && code >= self.min_code[l] {
                let idx = self.val_ptr[l] + (code - self.min_code[l]) as usize;
                return self.vals.get(idx).copied();
            }
        }
        None
    }
}

/// The error of [`HuffmanTable::encode`] for a symbol the table lacks;
/// out of line, so the per-symbol encode path stays one compare.
#[cold]
#[inline(never)]
pub(crate) fn missing_symbol(symbol: u8) -> JpegError {
    JpegError::unsupported(format!(
        "symbol {symbol:#04x} has no code in the Huffman table"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annex_k_tables_are_well_formed() {
        for t in [
            HuffmanTable::dc_luma(),
            HuffmanTable::dc_chroma(),
            HuffmanTable::ac_luma(),
            HuffmanTable::ac_chroma(),
        ] {
            let total: usize = t.bits().iter().map(|&b| b as usize).sum();
            assert_eq!(total, t.vals().len());
        }
    }

    #[test]
    fn known_dc_luma_codes() {
        // From T.81 Table K.3: category 0 -> 00 (2 bits), category 1 -> 010.
        let t = HuffmanTable::dc_luma();
        assert_eq!(t.code_len(0), 2);
        assert_eq!(t.code_len(1), 3);
        assert_eq!(t.code_len(11), 9);
    }

    #[test]
    fn every_symbol_round_trips() {
        for t in [
            HuffmanTable::dc_luma(),
            HuffmanTable::ac_luma(),
            HuffmanTable::ac_chroma(),
        ] {
            let symbols: Vec<u8> = t.vals().to_vec();
            let mut w = BitWriter::new();
            for &s in &symbols {
                t.encode(&mut w, s).unwrap();
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &s in &symbols {
                assert_eq!(t.decode(&mut r), Some(s));
            }
        }
    }

    #[test]
    fn codes_are_prefix_free() {
        let t = HuffmanTable::ac_luma();
        let mut codes: Vec<(u16, u8)> = Vec::new();
        for &sym in t.vals() {
            let len = t.code_len(sym);
            codes.push((t.enc_code[sym as usize], len));
        }
        for (i, &(c1, l1)) in codes.iter().enumerate() {
            for &(c2, l2) in codes.iter().skip(i + 1) {
                let (short, slen, long, llen) = if l1 <= l2 {
                    (c1, l1, c2, l2)
                } else {
                    (c2, l2, c1, l1)
                };
                if slen == llen {
                    assert_ne!(short, long);
                } else {
                    assert_ne!(
                        short as u32,
                        (long as u32) >> (llen - slen),
                        "prefix violation"
                    );
                }
            }
        }
    }

    #[test]
    fn table_decode_matches_bitwise_on_random_symbol_streams() {
        // Encode pseudo-random symbol sequences (biased toward the long
        // AC tail so >LOOKUP_BITS codes are exercised) and check the LUT
        // and bit-by-bit decoders agree symbol by symbol.
        for t in [
            HuffmanTable::dc_luma(),
            HuffmanTable::dc_chroma(),
            HuffmanTable::ac_luma(),
            HuffmanTable::ac_chroma(),
        ] {
            let pool: Vec<u8> = t.vals().to_vec();
            let mut state = 0x2545_F491u32;
            let mut symbols = Vec::new();
            for _ in 0..4096 {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                symbols.push(pool[(state >> 16) as usize % pool.len()]);
            }
            let mut w = BitWriter::new();
            for &s in &symbols {
                t.encode(&mut w, s).unwrap();
            }
            let bytes = w.finish();
            let mut fast = BitReader::new(&bytes);
            let mut slow = BitReader::new(&bytes);
            for (i, &s) in symbols.iter().enumerate() {
                assert_eq!(t.decode(&mut fast), Some(s), "fast sym {i}");
                assert_eq!(t.decode_bitwise(&mut slow), Some(s), "slow sym {i}");
            }
        }
    }

    #[test]
    fn table_decode_matches_bitwise_on_truncations() {
        // Chop an encoded stream at every byte boundary: both decode
        // tiers must yield the identical symbol sequence (including the
        // trailing None) on each prefix.
        let t = HuffmanTable::ac_luma();
        let mut w = BitWriter::new();
        let mut state = 7u32;
        for _ in 0..256 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let sym = t.vals()[(state >> 16) as usize % t.vals().len()];
            t.encode(&mut w, sym).unwrap();
        }
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut fast = BitReader::new(&bytes[..cut]);
            let mut slow = BitReader::new(&bytes[..cut]);
            loop {
                let a = t.decode(&mut fast);
                let b = t.decode_bitwise(&mut slow);
                assert_eq!(a, b, "cut {cut}");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn lut_covers_every_short_code() {
        // Every symbol with a code of length <= LOOKUP_BITS must be
        // resolvable by a single probe (entry != 0 at its exact window).
        let t = HuffmanTable::ac_luma();
        let mut short = 0usize;
        for &sym in t.vals() {
            let len = t.code_len(sym) as u32;
            if len <= LOOKUP_BITS {
                let window =
                    (t.enc_code[sym as usize] as usize) << (LOOKUP_BITS - len);
                let entry = t.lut[window];
                assert_eq!(entry >> 8, len as u16, "len for {sym:#04x}");
                assert_eq!((entry & 0xFF) as u8, sym, "sym for {sym:#04x}");
                short += 1;
            }
        }
        // 23 of the 162 AC luma symbols are short-coded — but those are
        // the high-probability run/size pairs that dominate real scans.
        assert!(short >= 20, "Annex-K AC luma short-code count: {short}");
        // Every DC category code fits the window outright.
        let dc = HuffmanTable::dc_luma();
        for &sym in dc.vals() {
            assert!((dc.code_len(sym) as u32) <= LOOKUP_BITS);
        }
    }

    #[test]
    fn decode_rejects_truncated_stream() {
        let t = HuffmanTable::dc_luma();
        let mut r = BitReader::new(&[]);
        assert_eq!(t.decode(&mut r), None);
    }

    #[test]
    fn encoding_unknown_symbol_is_an_error() {
        let t = HuffmanTable::dc_luma();
        let mut w = BitWriter::new();
        let err = t.encode(&mut w, 0xEE).unwrap_err();
        assert_eq!(err.kind(), crate::JpegErrorKind::Unsupported);
        assert!(err.detail().contains("0xee"), "{err}");
        assert!(
            w.finish().is_empty(),
            "nothing is written for a missing symbol"
        );
    }
}

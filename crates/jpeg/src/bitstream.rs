//! Entropy-coded segment bit I/O with JPEG byte stuffing.
//!
//! Inside a JPEG scan, any `0xFF` byte produced by the entropy coder must
//! be followed by a stuffed `0x00` so decoders can distinguish data from
//! markers. [`BitWriter`] inserts the stuffing; [`BitReader`] removes it.

// Driven directly by untrusted bits: index with `.get()` (ANALYSIS.md).
#![deny(clippy::indexing_slicing)]

/// Most-significant-bit-first bit writer with `0xFF 0x00` byte stuffing.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    acc: u32,
    nbits: u32,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `count` bits of `bits`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 24`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented `# Panics` contract, but not unreachable from input: a transcode re-codes levels read from input bytes, and a valid stream whose DC predictor passes 2^24 asks for 25 bits here; the runtime's job boundary fails that job and keeps its worker"
    )]
    // The scan encoder calls this twice per symbol; an outlined `put`
    // measured up to 25 % slower there.
    #[inline]
    pub fn put(&mut self, bits: u32, count: u32) {
        assert!(count <= 24, "at most 24 bits per call");
        if count == 0 {
            return;
        }
        self.acc = (self.acc << count) | (bits & ((1u32 << count) - 1));
        self.nbits += count;
        while self.nbits >= 8 {
            let byte = ((self.acc >> (self.nbits - 8)) & 0xFF) as u8;
            self.emit(byte);
            self.nbits -= 8;
        }
    }

    fn emit(&mut self, byte: u8) {
        self.bytes.push(byte);
        if byte == 0xFF {
            self.bytes.push(0x00);
        }
    }

    /// Pad any partial byte with 1-bits (per T.81), aligning the stream
    /// to a byte boundary.
    pub fn align(&mut self) {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            let byte = (((self.acc << pad) | ((1u32 << pad) - 1)) & 0xFF) as u8;
            self.emit(byte);
            self.nbits = 0;
        }
    }

    /// Emit a restart marker (`0xFF 0xD0+m`) — markers are written raw,
    /// without byte stuffing, after aligning to a byte boundary.
    ///
    /// # Panics
    ///
    /// Panics unless `m < 8`.
    #[expect(
        clippy::disallowed_macros,
        reason = "encoder-side documented `# Panics` contract; the encoder computes m modulo 8"
    )]
    pub fn put_restart_marker(&mut self, m: u8) {
        assert!(m < 8, "restart marker index must be 0..8");
        self.align();
        self.bytes.push(0xFF);
        self.bytes.push(0xD0 + m);
    }

    /// Pad the final partial byte with 1-bits (per T.81) and return the
    /// stuffed byte stream.
    pub fn finish(mut self) -> Vec<u8> {
        self.align();
        self.bytes
    }

    /// Number of complete bytes written so far (excluding buffered bits).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty() && self.nbits == 0
    }
}

/// MSB-first bit reader that removes `0xFF 0x00` stuffing.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    acc: u32,
    nbits: u32,
    /// Marker code the reader is parked on (bit production pauses).
    marker: Option<u8>,
}

impl<'a> BitReader<'a> {
    /// Read from a stuffed entropy-coded segment.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            acc: 0,
            nbits: 0,
            marker: None,
        }
    }

    /// Discard remaining bits of the current byte, consume an expected
    /// restart marker (`0xD0..=0xD7`) and return its index. `None` when
    /// the stream is not positioned at a restart marker.
    pub fn take_restart_marker(&mut self) -> Option<u8> {
        // drop buffered bits — a restart is byte-aligned
        self.acc = 0;
        self.nbits = 0;
        if self.marker.is_none() {
            // we may not have refilled up to the marker yet: scan forward
            while let (Some(&b0), Some(&b1)) =
                (self.bytes.get(self.pos), self.bytes.get(self.pos + 1))
            {
                if b0 == 0xFF && b1 != 0x00 {
                    self.marker = Some(b1);
                    break;
                }
                self.pos += 1;
            }
        }
        match self.marker {
            Some(code) if (0xD0..=0xD7).contains(&code) => {
                self.marker = None;
                self.pos += 2; // consume FF Dn
                Some(code - 0xD0)
            }
            _ => None,
        }
    }

    fn refill(&mut self) -> bool {
        while self.nbits <= 24 {
            let Some(&byte) = self.bytes.get(self.pos) else {
                return self.nbits > 0;
            };
            self.pos += 1;
            if byte == 0xFF {
                // a stuffed zero is data; a non-zero byte is a marker.
                match self.bytes.get(self.pos) {
                    Some(0x00) => self.pos += 1,
                    Some(&code) => {
                        // park on the marker; bit production stops until
                        // `take_restart_marker` consumes it
                        self.pos -= 1;
                        self.marker = Some(code);
                        return self.nbits > 0;
                    }
                    None => {
                        self.pos = self.bytes.len();
                        return self.nbits > 0;
                    }
                }
            }
            self.acc = (self.acc << 8) | byte as u32;
            self.nbits += 8;
        }
        true
    }

    /// Read one bit; `None` at end of data.
    pub fn bit(&mut self) -> Option<u32> {
        if self.nbits == 0 && !self.refill() {
            return None;
        }
        if self.nbits == 0 {
            return None;
        }
        self.nbits -= 1;
        Some((self.acc >> self.nbits) & 1)
    }

    /// Read `count` bits MSB-first; `None` if the stream ends first.
    ///
    /// When the accumulator already buffers `count` bits the extraction is
    /// a single shift/mask; the bit-by-bit path only runs near end of
    /// data or a parked marker, so truncation semantics are unchanged.
    pub fn bits(&mut self, count: u32) -> Option<u32> {
        if count == 0 {
            return Some(0);
        }
        if count <= 24 {
            if self.nbits < count {
                self.refill();
            }
            if self.nbits >= count {
                self.nbits -= count;
                return Some((self.acc >> self.nbits) & ((1u32 << count) - 1));
            }
        }
        let mut out = 0u32;
        for _ in 0..count {
            out = (out << 1) | self.bit()?;
        }
        Some(out)
    }

    /// Peek the next `count` bits (1..=24) MSB-first without consuming
    /// them; `None` when fewer than `count` bits remain before the end of
    /// data or a marker.
    ///
    /// This is the probe primitive for the table-accelerated Huffman
    /// decoder: a `None` sends the caller to the bit-by-bit path, whose
    /// end-of-stream behaviour is the contract the fault corpus pins.
    pub fn peek(&mut self, count: u32) -> Option<u32> {
        if count == 0 || count > 24 {
            return None;
        }
        if self.nbits < count {
            self.refill();
        }
        if self.nbits < count {
            return None;
        }
        Some((self.acc >> (self.nbits - count)) & ((1u32 << count) - 1))
    }

    /// Discard `count` bits previously returned by [`Self::peek`].
    ///
    /// Callers must not consume more bits than the preceding `peek`
    /// made visible; excess counts are clamped to the buffered amount
    /// rather than underflowing.
    pub fn consume(&mut self, count: u32) {
        self.nbits -= count.min(self.nbits);
    }
}

/// Encode a signed DCT value as `(size, amplitude-bits)` per T.81 F.1.2.1:
/// negative values use the one's-complement convention.
pub fn magnitude_code(value: i32) -> (u32, u32) {
    if value == 0 {
        return (0, 0);
    }
    let abs = value.unsigned_abs();
    let size = 32 - abs.leading_zeros();
    let bits = if value < 0 {
        (value - 1 + (1i64 << size) as i32) as u32
    } else {
        value as u32
    };
    (size, bits & ((1u32 << size) - 1))
}

/// Decode `size` amplitude bits back to the signed value (inverse of
/// [`magnitude_code`]).
///
/// # Panics
///
/// Panics if `size > 16` (callers must validate entropy-decoded
/// categories first).
#[expect(
    clippy::disallowed_macros,
    reason = "documented `# Panics` contract; both decode_block call sites bound size (DC checked <= 15, AC is a 4-bit field)"
)]
pub fn magnitude_decode(size: u32, bits: u32) -> i32 {
    assert!(size <= 16, "baseline magnitude categories are at most 16 bits");
    if size == 0 {
        return 0;
    }
    let threshold = 1u32 << (size - 1);
    if bits >= threshold {
        bits as i32
    } else {
        bits as i32 - (1i32 << size) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0b11110000, 8);
        w.put(0x3FF, 10);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(3), Some(0b101));
        assert_eq!(r.bits(8), Some(0b11110000));
        assert_eq!(r.bits(10), Some(0x3FF));
    }

    #[test]
    fn ff_bytes_are_stuffed() {
        let mut w = BitWriter::new();
        w.put(0xFF, 8);
        w.put(0xFF, 8);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0xFF, 0x00, 0xFF, 0x00]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(8), Some(0xFF));
        assert_eq!(r.bits(8), Some(0xFF));
    }

    #[test]
    fn final_byte_padded_with_ones() {
        let mut w = BitWriter::new();
        w.put(0b0, 1);
        assert_eq!(w.finish(), vec![0b0111_1111]);
    }

    #[test]
    fn reader_stops_at_marker() {
        // 0xFF followed by a non-zero byte is a marker, not data
        let bytes = [0xAB, 0xFF, 0xD9];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(8), Some(0xAB));
        assert_eq!(r.bits(8), None);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut w = BitWriter::new();
        w.put(0b1_0110_1001, 9);
        w.put(0b0101_0101, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek(9), Some(0b1_0110_1001));
        assert_eq!(r.peek(9), Some(0b1_0110_1001), "peek must be idempotent");
        r.consume(9);
        assert_eq!(r.bits(8), Some(0b0101_0101));
    }

    #[test]
    fn peek_refuses_past_end_and_markers() {
        // only 8 data bits before the marker: a 9-bit probe must fail
        // while bit-by-bit reads still drain the 8 real bits.
        let bytes = [0xAB, 0xFF, 0xD9];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek(9), None);
        assert_eq!(r.bits(8), Some(0xAB));
        assert_eq!(r.bit(), None);
    }

    #[test]
    fn peek_rejects_degenerate_counts() {
        let mut r = BitReader::new(&[0xAA, 0xBB, 0xCC, 0xDD]);
        assert_eq!(r.peek(0), None);
        assert_eq!(r.peek(25), None);
        assert_eq!(r.peek(24), Some(0xAABBCC));
    }

    #[test]
    fn consume_clamps_to_buffered_bits() {
        let mut r = BitReader::new(&[0xAB]);
        assert_eq!(r.peek(8), Some(0xAB));
        r.consume(32); // over-consume must not underflow
        assert_eq!(r.bit(), None);
    }

    #[test]
    fn bulk_bits_match_single_bit_reads() {
        let payload = [0x12u8, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0];
        for count in 1..=16u32 {
            let mut bulk = BitReader::new(&payload);
            let mut single = BitReader::new(&payload);
            loop {
                let expect = {
                    let mut out = 0u32;
                    let mut ok = true;
                    for _ in 0..count {
                        match single.bit() {
                            Some(b) => out = (out << 1) | b,
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    ok.then_some(out)
                };
                let got = bulk.bits(count);
                assert_eq!(got, expect, "width {count}");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn magnitude_round_trip_all_small_values() {
        for v in -1024..=1024 {
            let (size, bits) = magnitude_code(v);
            assert_eq!(magnitude_decode(size, bits), v, "value {v}");
        }
    }

    #[test]
    fn magnitude_sizes_match_t81_categories() {
        assert_eq!(magnitude_code(0).0, 0);
        assert_eq!(magnitude_code(1).0, 1);
        assert_eq!(magnitude_code(-1).0, 1);
        assert_eq!(magnitude_code(2).0, 2);
        assert_eq!(magnitude_code(3).0, 2);
        assert_eq!(magnitude_code(-3).0, 2);
        assert_eq!(magnitude_code(4).0, 3);
        assert_eq!(magnitude_code(255).0, 8);
        assert_eq!(magnitude_code(-255).0, 8);
        assert_eq!(magnitude_code(256).0, 9);
    }

    #[test]
    fn empty_writer() {
        let w = BitWriter::new();
        assert!(w.is_empty());
        assert!(w.finish().is_empty());
    }
}

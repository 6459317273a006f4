//! Bit-granular writer/reader for the time-series block payloads.
//!
//! The Gorilla-style codecs emit variable-width fields (1-bit skip flags,
//! 7-bit delta buckets, arbitrary-width XOR windows), so the payload is a
//! packed bit stream rather than a byte stream. Bits fill each byte from
//! the most-significant end, and multi-bit fields are written MSB-first —
//! the layout every published Gorilla implementation uses, which keeps the
//! golden-fixture bytes comparable to the literature.
//!
//! The interface is bit-granular, the kernels are not: a field is pushed
//! as at most one partial-byte OR plus a run of whole bytes, and read by
//! one big-endian word load, so their cost does not grow with its width.

/// Append-only bit sink backed by a byte vector.
#[derive(Clone, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Total bits written (the last byte may be partially filled).
    len_bits: usize,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// Current size in whole bytes (final partial byte rounded up).
    pub fn len_bytes(&self) -> usize {
        self.len_bits.div_ceil(8)
    }

    /// Appends a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        let slot = self.len_bits % 8;
        if slot == 0 {
            self.buf.push(0);
        }
        if bit {
            let last = self.buf.len() - 1;
            self.buf[last] |= 1 << (7 - slot);
        }
        self.len_bits += 1;
    }

    /// Appends the low `count` bits of `value`, MSB-first. `count` ≤ 64;
    /// bits of `value` above `count` are ignored.
    ///
    /// Byte-wise: the first bits top up the partially filled last byte,
    /// the rest land as whole big-endian bytes, so a 64-bit field costs
    /// one OR and one slice copy instead of 64 single-bit pushes.
    #[inline]
    pub fn push_bits(&mut self, value: u64, count: u8) {
        debug_assert!(count <= 64);
        let mut left = u32::from(count);
        if left == 0 {
            return;
        }
        let value = value & (u64::MAX >> (64 - left));
        let used = (self.len_bits % 8) as u32;
        if used != 0 {
            let free = 8 - used;
            let take = free.min(left);
            let last = self.buf.last_mut().expect("a partial byte is buffered");
            *last |= ((value >> (left - take)) as u8) << (free - take);
            left -= take;
        }
        if left > 0 {
            // A fixed eight-byte copy, cut back to the bytes in use, is
            // cheaper than a copy of variable length.
            let end = self.buf.len() + left.div_ceil(8) as usize;
            self.buf
                .extend_from_slice(&(value << (64 - left)).to_be_bytes());
            self.buf.truncate(end);
        }
        self.len_bits += usize::from(count);
    }

    /// A writer that continues the packed stream `bytes` of `len_bits`
    /// bits, as [`BitWriter::finish`] would have returned it. Bytes past
    /// the stream are dropped and the padding bits of its last byte
    /// cleared, so the next push lands on zeros.
    pub fn resume(bytes: &[u8], len_bits: usize) -> Self {
        let len_bits = len_bits.min(bytes.len() * 8);
        let mut buf = bytes[..len_bits.div_ceil(8)].to_vec();
        let used = len_bits % 8;
        if used != 0 {
            let last = buf.len() - 1;
            buf[last] &= 0xFF << (8 - used);
        }
        BitWriter { buf, len_bits }
    }

    /// The packed bytes (last byte zero-padded) and the exact bit length.
    pub fn finish(self) -> (Vec<u8>, usize) {
        (self.buf, self.len_bits)
    }

    /// Borrowing view of the packed bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Sequential reader over a packed bit stream.
pub struct BitReader<'a> {
    data: &'a [u8],
    pos_bits: usize,
    len_bits: usize,
}

impl<'a> BitReader<'a> {
    /// Reader over `data`, honoring an exact bit length (the tail byte of
    /// a packed stream is zero-padded; `len_bits` keeps the padding from
    /// being read as data).
    pub fn new(data: &'a [u8], len_bits: usize) -> Self {
        BitReader {
            data,
            pos_bits: 0,
            len_bits: len_bits.min(data.len() * 8),
        }
    }

    /// Bits left to read.
    pub fn remaining(&self) -> usize {
        self.len_bits - self.pos_bits
    }

    /// Reads one bit; `None` at end of stream.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.pos_bits >= self.len_bits {
            return None;
        }
        let byte = self.data[self.pos_bits / 8];
        let bit = (byte >> (7 - (self.pos_bits % 8))) & 1 == 1;
        self.pos_bits += 1;
        Some(bit)
    }

    /// Reads `count` bits MSB-first into the low bits of the result.
    ///
    /// Word-wise: one big-endian load of the eight bytes under the read
    /// position (plus a ninth when the field straddles them) replaces a
    /// loop over single bits.
    #[inline]
    pub fn read_bits(&mut self, count: u8) -> Option<u64> {
        debug_assert!(count <= 64);
        let count = usize::from(count);
        if self.remaining() < count {
            return None;
        }
        if count == 0 {
            return Some(0);
        }
        let byte = self.pos_bits / 8;
        let shift = self.pos_bits % 8;
        let mut word = self.load_be(byte) << shift;
        if shift + count > 64 {
            // In bounds: the field ends past bit 64 of the load, and
            // inside the data.
            word |= u64::from(self.data[byte + 8]) >> (8 - shift);
        }
        self.pos_bits += count;
        Some(word >> (64 - count))
    }

    /// The eight bytes from `byte` as a big-endian word, zero-filled past
    /// the end of the data.
    fn load_be(&self, byte: usize) -> u64 {
        match self.data.get(byte..byte + 8) {
            Some(word) => u64::from_be_bytes(word.try_into().expect("eight bytes")),
            None => {
                let mut word = [0u8; 8];
                let rest = &self.data[byte..];
                word[..rest.len()].copy_from_slice(rest);
                u64::from_be_bytes(word)
            }
        }
    }
}

/// ZigZag maps signed to unsigned so small-magnitude deltas (of either
/// sign — batches may be locally out of order) stay in the small buckets.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bits(0b101, 3);
        w.push_bits(0xDEAD_BEEF, 32);
        w.push_bits(u64::MAX, 64);
        w.push_bit(false);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(32), Some(0xDEAD_BEEF));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bit(), Some(false));
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn padding_bits_are_not_data() {
        let mut w = BitWriter::new();
        w.push_bits(0b11, 2);
        let (bytes, len) = w.finish();
        assert_eq!(bytes.len(), 1);
        assert_eq!(len, 2);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read_bits(2), Some(0b11));
        assert_eq!(r.read_bit(), None, "padding must be invisible");
    }

    #[test]
    fn push_bits_masks_above_count_and_takes_widths_0_and_64() {
        let mut w = BitWriter::new();
        w.push_bits(u64::MAX, 0);
        assert_eq!(w.len_bits(), 0);
        w.push_bit(true);
        w.push_bits(0xFF, 3); // only the low three bits count
        w.push_bits(u64::MAX, 0);
        w.push_bits(0x8000_0000_0000_0001, 64);
        let (bytes, len) = w.finish();
        assert_eq!(len, 68);
        assert_eq!(bytes, [0xF8, 0, 0, 0, 0, 0, 0, 0, 0x10]);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read_bits(0), Some(0));
        assert_eq!(r.read_bits(4), Some(0b1111));
        assert_eq!(r.read_bits(64), Some(0x8000_0000_0000_0001));
        assert_eq!(r.read_bits(0), Some(0));
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn resume_continues_the_stream_over_cleared_padding() {
        let mut w = BitWriter::new();
        w.push_bits(0b101, 3);
        let (mut bytes, len) = w.finish();
        bytes[0] |= 0b1_1111; // garbage in the padding
        bytes.push(0xAA); // and a byte past the stream
        let mut w = BitWriter::resume(&bytes, len);
        w.push_bits(0b01100, 5);
        assert_eq!(w.finish(), (vec![0b1010_1100], 8));
    }

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes map to small codes (bucket-friendliness).
        assert!(zigzag(-1) <= 2);
        assert!(zigzag(32) <= 64);
    }
}

//! Columnar point compression and the sealed-block byte format.
//!
//! Timestamps use delta-of-delta encoding with ZigZag bucket codes;
//! values use Gorilla-style XOR compression. Both streams interleave per
//! point into one packed bit payload, so a block is decoded by a single
//! forward pass.
//!
//! ## Timestamp codes (per point after the first)
//!
//! `dod = (ts[n] − ts[n−1]) − (ts[n−1] − ts[n−2])`, ZigZag-mapped:
//!
//! | prefix  | payload | covers |dod| up to |
//! |---------|---------|------------------|
//! | `0`     | —       | 0 (steady rate)  |
//! | `10`    | 7 bits  | ±63              |
//! | `110`   | 9 bits  | ±255             |
//! | `1110`  | 12 bits | ±2047            |
//! | `11110` | 32 bits | ±2^31−1          |
//! | `11111` | 64 bits | anything (epoch-scale jumps, reordered points) |
//!
//! The first point stores its timestamp raw (64 bits) with the previous
//! delta defined as 0, so a constant-rate stream costs 1 bit/point from
//! the second point on.
//!
//! ## Value codes
//!
//! `xor = bits(v[n]) ^ bits(v[n−1])` (raw 64 bits for the first point):
//!
//! * `0` — identical value (constant series cost: 1 bit).
//! * `10` — XOR fits the previous meaningful-bit window: window bits.
//! * `11` — new window: 6-bit leading-zero count, 6-bit length−1, then
//!   the meaningful bits.
//!
//! NaN and ±∞ round-trip bit-exactly — the codec never interprets the
//! float, it only moves its bit pattern.
//!
//! ## Sealed-block layout
//!
//! ```text
//! magic "TSB1" | count u32 | min_ts u64 | max_ts u64
//! | min_val f64 | max_val f64 | payload_bits u32 | payload | crc32 u32
//! ```
//!
//! All integers little-endian; the CRC covers everything before it. The
//! `min/max` header fields are the per-block sparse index: range scans
//! skip a block without touching its payload when `[min_ts, max_ts]`
//! misses the query window. `min_val`/`max_val` ignore NaNs (a block of
//! only-NaN values stores an inverted `(+∞, −∞)` pair, which matches
//! nothing — exactly right for value pruning).

use crate::api::{StoreError, StoreResult};
use crate::codec::{Reader, Writer};
use crate::tseries::bits::{unzigzag, zigzag, BitReader, BitWriter};

/// Magic prefix of a sealed block; the last byte is the format version.
// aodb-schema: layout(TSB1) = magic[4] count:u32 min_ts:u64 max_ts:u64 min_val:f64 max_val:f64 payload_bits:u32 payload crc32:u32
pub const BLOCK_MAGIC: &[u8; 4] = b"TSB1";
/// Fixed header length in bytes (everything before the payload).
pub const BLOCK_HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8 + 8 + 4;

/// Per-block sparse index, carried in the block header.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockIndex {
    /// Points in the block.
    pub count: u32,
    /// Smallest timestamp.
    pub min_ts: u64,
    /// Largest timestamp.
    pub max_ts: u64,
    /// Smallest non-NaN value (`+∞` when every value is NaN).
    pub min_val: f64,
    /// Largest non-NaN value (`−∞` when every value is NaN).
    pub max_val: f64,
}

impl BlockIndex {
    fn empty() -> Self {
        BlockIndex {
            count: 0,
            min_ts: u64::MAX,
            max_ts: 0,
            min_val: f64::INFINITY,
            max_val: f64::NEG_INFINITY,
        }
    }

    /// Whether `[from, to]` overlaps this block's timestamp range.
    pub fn overlaps(&self, from_ms: u64, to_ms: u64) -> bool {
        self.count > 0 && self.min_ts <= to_ms && self.max_ts >= from_ms
    }
}

/// Incremental compressor: the mutable tail block. Points append one at
/// a time; the state is exactly what the next point's encoding needs, so
/// a tail survives process restart by re-appending its decoded points.
#[derive(Clone)]
pub struct PointCompressor {
    bits: BitWriter,
    index: BlockIndex,
    prev_ts: u64,
    prev_delta: i64,
    prev_val_bits: u64,
    window_lead: u8,
    window_len: u8,
    window_valid: bool,
}

impl Default for PointCompressor {
    fn default() -> Self {
        Self::new()
    }
}

impl PointCompressor {
    /// Empty tail.
    pub fn new() -> Self {
        PointCompressor {
            bits: BitWriter::new(),
            index: BlockIndex::empty(),
            prev_ts: 0,
            prev_delta: 0,
            prev_val_bits: 0,
            window_lead: 0,
            window_len: 0,
            window_valid: false,
        }
    }

    /// Points appended so far.
    pub fn count(&self) -> u32 {
        self.index.count
    }

    /// Compressed payload size so far, in whole bytes.
    pub fn payload_bytes(&self) -> usize {
        self.bits.len_bytes()
    }

    /// The running sparse index over the appended points.
    pub fn index(&self) -> &BlockIndex {
        &self.index
    }

    /// Appends one point.
    pub fn append(&mut self, ts_ms: u64, value: f64) {
        // Timestamp stream.
        if self.index.count == 0 {
            self.bits.push_bits(ts_ms, 64);
            self.prev_delta = 0;
        } else {
            let delta = ts_ms.wrapping_sub(self.prev_ts) as i64;
            let dod = delta.wrapping_sub(self.prev_delta);
            let zz = zigzag(dod);
            if zz == 0 {
                self.bits.push_bit(false);
            } else if zz < (1 << 7) {
                self.bits.push_bits(0b10, 2);
                self.bits.push_bits(zz, 7);
            } else if zz < (1 << 9) {
                self.bits.push_bits(0b110, 3);
                self.bits.push_bits(zz, 9);
            } else if zz < (1 << 12) {
                self.bits.push_bits(0b1110, 4);
                self.bits.push_bits(zz, 12);
            } else if zz < (1 << 32) {
                self.bits.push_bits(0b11110, 5);
                self.bits.push_bits(zz, 32);
            } else {
                self.bits.push_bits(0b11111, 5);
                self.bits.push_bits(zz, 64);
            }
            self.prev_delta = delta;
        }
        self.prev_ts = ts_ms;

        // Value stream.
        let val_bits = value.to_bits();
        if self.index.count == 0 {
            self.bits.push_bits(val_bits, 64);
        } else {
            let xor = val_bits ^ self.prev_val_bits;
            if xor == 0 {
                self.bits.push_bit(false);
            } else {
                self.bits.push_bit(true);
                let lead = (xor.leading_zeros() as u8).min(63);
                let trail = xor.trailing_zeros() as u8;
                let len = 64 - lead - trail;
                let window_trail = 64 - self.window_lead - self.window_len;
                if self.window_valid && lead >= self.window_lead && trail >= window_trail {
                    // Reuse the previous meaningful-bit window.
                    self.bits.push_bit(false);
                    self.bits.push_bits(xor >> window_trail, self.window_len);
                } else {
                    self.bits.push_bit(true);
                    self.bits.push_bits(lead as u64, 6);
                    self.bits.push_bits((len - 1) as u64, 6);
                    self.bits.push_bits(xor >> trail, len);
                    self.window_lead = lead;
                    self.window_len = len;
                    self.window_valid = true;
                }
            }
        }
        self.prev_val_bits = val_bits;

        // Sparse index.
        self.index.count += 1;
        self.index.min_ts = self.index.min_ts.min(ts_ms);
        self.index.max_ts = self.index.max_ts.max(ts_ms);
        if !value.is_nan() {
            if value < self.index.min_val {
                self.index.min_val = value;
            }
            if value > self.index.max_val {
                self.index.max_val = value;
            }
        }
    }

    /// Serializes the current contents as a full block (header, payload,
    /// CRC). Works for sealed blocks and for the durable image of a
    /// still-open tail alike. Empty tails produce an empty byte string.
    pub fn encode_block(&self) -> Vec<u8> {
        if self.index.count == 0 {
            return Vec::new();
        }
        encode_block_parts(&self.index, self.bits.as_bytes(), self.bits.len_bits())
    }
}

fn encode_block_parts(index: &BlockIndex, payload: &[u8], payload_bits: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(BLOCK_HEADER_LEN + payload.len() + 4);
    let mut w = Writer::over(&mut out);
    w.bytes(BLOCK_MAGIC);
    w.u32(index.count);
    w.u64(index.min_ts);
    w.u64(index.max_ts);
    w.f64(index.min_val);
    w.f64(index.max_val);
    w.u32(payload_bits as u32);
    w.bytes(payload);
    w.crc_trailer();
    out
}

/// Verifies a block and splits it into its sparse index, its payload and
/// the payload's length in bits.
fn parse_block(block: &[u8]) -> StoreResult<(BlockIndex, &[u8], usize)> {
    Reader::whole(block, "tseries block", |r| {
        r.magic(BLOCK_MAGIC)?;
        r.crc_trailer()?;
        let index = BlockIndex {
            count: r.u32()?,
            min_ts: r.u64()?,
            max_ts: r.u64()?,
            min_val: r.f64()?,
            max_val: r.f64()?,
        };
        let payload_bits = r.u32()? as usize;
        Ok((index, r.take(payload_bits.div_ceil(8))?, payload_bits))
    })
}

/// Parses and verifies a block's header, returning its sparse index
/// without decompressing the payload (the block-skip fast path).
pub fn decode_index(block: &[u8]) -> StoreResult<BlockIndex> {
    parse_block(block).map(|(index, ..)| index)
}

/// Decompresses every point of a block, in append order.
pub fn decode_block(block: &[u8]) -> StoreResult<Vec<(u64, f64)>> {
    if block.is_empty() {
        return Ok(Vec::new());
    }
    let (index, payload, payload_bits) = parse_block(block)?;
    decode_points(payload, payload_bits, index.count)
}

/// Decompresses `count` points from a packed payload.
pub fn decode_points(
    payload: &[u8],
    payload_bits: usize,
    count: u32,
) -> StoreResult<Vec<(u64, f64)>> {
    let fail = |m: &str| StoreError::Corrupt(format!("tseries payload: {m}"));
    let mut r = BitReader::new(payload, payload_bits);
    // Every point takes at least one payload bit, so the header's count
    // sizes nothing beyond what the payload can hold.
    let mut out = Vec::with_capacity((count as usize).min(payload_bits));
    let mut prev_ts = 0u64;
    let mut prev_delta = 0i64;
    let mut prev_val_bits = 0u64;
    let mut window_lead = 0u8;
    let mut window_len = 0u8;
    for n in 0..count {
        // Timestamp.
        let ts = if n == 0 {
            r.read_bits(64).ok_or_else(|| fail("eof in first ts"))?
        } else {
            let mut prefix = 0u8;
            while prefix < 5 && r.read_bit().ok_or_else(|| fail("eof in ts prefix"))? {
                prefix += 1;
            }
            let dod = match prefix {
                0 => 0,
                width => {
                    let bits = match width {
                        1 => 7,
                        2 => 9,
                        3 => 12,
                        4 => 32,
                        _ => 64,
                    };
                    unzigzag(r.read_bits(bits).ok_or_else(|| fail("eof in dod"))?)
                }
            };
            let delta = prev_delta.wrapping_add(dod);
            prev_delta = delta;
            prev_ts.wrapping_add(delta as u64)
        };
        prev_ts = ts;

        // Value.
        let val_bits = if n == 0 {
            r.read_bits(64).ok_or_else(|| fail("eof in first value"))?
        } else if !r.read_bit().ok_or_else(|| fail("eof in value flag"))? {
            prev_val_bits
        } else if !r.read_bit().ok_or_else(|| fail("eof in window flag"))? {
            if window_len == 0 {
                return Err(fail("window reuse before any window"));
            }
            let window_trail = 64 - window_lead - window_len;
            let xor = r
                .read_bits(window_len)
                .ok_or_else(|| fail("eof in window bits"))?
                << window_trail;
            prev_val_bits ^ xor
        } else {
            let lead = r.read_bits(6).ok_or_else(|| fail("eof in lead"))? as u8;
            let len = r.read_bits(6).ok_or_else(|| fail("eof in len"))? as u8 + 1;
            if lead + len > 64 {
                return Err(fail("window exceeds 64 bits"));
            }
            let trail = 64 - lead - len;
            let xor = r.read_bits(len).ok_or_else(|| fail("eof in xor bits"))? << trail;
            window_lead = lead;
            window_len = len;
            prev_val_bits ^ xor
        };
        prev_val_bits = val_bits;
        out.push((ts, f64::from_bits(val_bits)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(points: &[(u64, f64)]) -> Vec<(u64, f64)> {
        let mut c = PointCompressor::new();
        for &(t, v) in points {
            c.append(t, v);
        }
        decode_block(&c.encode_block()).unwrap()
    }

    fn assert_bit_equal(a: &[(u64, f64)], b: &[(u64, f64)]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "value bits differ");
        }
    }

    #[test]
    fn steady_stream_roundtrips_and_compresses() {
        let points: Vec<(u64, f64)> = (0..1000).map(|i| (i * 100, 21.5)).collect();
        let mut c = PointCompressor::new();
        for &(t, v) in &points {
            c.append(t, v);
        }
        let block = c.encode_block();
        assert_bit_equal(&roundtrip(&points), &points);
        // Steady rate + constant value ≈ 2 bits/point after the first.
        let bytes_per_point = block.len() as f64 / points.len() as f64;
        assert!(
            bytes_per_point < 1.0,
            "constant stream should compress below 1 B/pt, got {bytes_per_point}"
        );
    }

    #[test]
    fn varying_values_roundtrip() {
        let points: Vec<(u64, f64)> = (0..500)
            .map(|i| (i * 100 + (i % 7), (i as f64).sin() * 1e3))
            .collect();
        assert_bit_equal(&roundtrip(&points), &points);
    }

    #[test]
    fn nan_and_infinities_roundtrip_bit_exactly() {
        let points = [
            (0, f64::NAN),
            (10, f64::INFINITY),
            (20, f64::NEG_INFINITY),
            (30, -0.0),
            (40, f64::MIN_POSITIVE),
            (50, f64::NAN),
        ];
        assert_bit_equal(&roundtrip(&points), &points);
    }

    #[test]
    fn out_of_order_and_epoch_scale_deltas_roundtrip() {
        let points = [
            (1_700_000_000_000, 1.0), // epoch-scale first timestamp
            (5, 2.0),                 // massive negative delta
            (1_700_000_000_100, 3.0), // massive positive delta
            (1_700_000_000_050, 4.0), // small negative delta
            (u64::MAX, 5.0),
            (0, 6.0),
        ];
        assert_bit_equal(&roundtrip(&points), &points);
    }

    #[test]
    fn sparse_index_tracks_ranges_and_ignores_nan() {
        let mut c = PointCompressor::new();
        c.append(50, f64::NAN);
        c.append(10, 3.5);
        c.append(90, -2.0);
        let idx = *c.index();
        assert_eq!(idx.count, 3);
        assert_eq!((idx.min_ts, idx.max_ts), (10, 90));
        assert_eq!((idx.min_val, idx.max_val), (-2.0, 3.5));
        assert!(idx.overlaps(0, 10));
        assert!(idx.overlaps(90, 200));
        assert!(!idx.overlaps(91, 200));
        assert!(!idx.overlaps(0, 9));
        let decoded_idx = decode_index(&c.encode_block()).unwrap();
        assert_eq!(decoded_idx, idx);
    }

    #[test]
    fn all_nan_block_has_inverted_value_range() {
        let mut c = PointCompressor::new();
        c.append(1, f64::NAN);
        let idx = decode_index(&c.encode_block()).unwrap();
        assert_eq!(idx.min_val, f64::INFINITY);
        assert_eq!(idx.max_val, f64::NEG_INFINITY);
    }

    #[test]
    fn corruption_is_detected() {
        let mut c = PointCompressor::new();
        for i in 0..10 {
            c.append(i, i as f64);
        }
        let mut block = c.encode_block();
        let mid = block.len() / 2;
        block[mid] ^= 0x40;
        assert!(matches!(decode_block(&block), Err(StoreError::Corrupt(_))));
        // Truncation too.
        let good = c.encode_block();
        assert!(decode_block(&good[..good.len() - 1]).is_err());
    }

    #[test]
    fn bumped_format_version_is_a_typed_error_not_corruption() {
        let mut c = PointCompressor::new();
        for i in 0..10 {
            c.append(i, i as f64);
        }
        let mut block = c.encode_block();
        block[3] = b'2'; // a hypothetical TSB2 writer
        match decode_index(&block) {
            Err(StoreError::UnsupportedVersion(msg)) => {
                assert!(msg.contains("TSB"), "{msg}");
                assert!(msg.contains('2'), "{msg}");
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // A magic that isn't TSB-anything is still plain corruption.
        let mut garbled = c.encode_block();
        garbled[0] = b'X';
        assert!(matches!(
            decode_index(&garbled),
            Err(StoreError::Corrupt(_))
        ));
    }

    /// A CRC-valid block whose header claims `u32::MAX` points sizes its
    /// output by the payload, not by the claim: it fails as corrupt
    /// instead of asking for tens of gigabytes.
    #[test]
    fn huge_point_count_is_corrupt_not_an_allocation() {
        let mut c = PointCompressor::new();
        c.append(1, 1.0);
        let index = BlockIndex {
            count: u32::MAX,
            ..*c.index()
        };
        let block = encode_block_parts(&index, c.bits.as_bytes(), c.bits.len_bits());
        assert!(decode_index(&block).is_ok());
        assert!(matches!(decode_block(&block), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn empty_block_is_empty_bytes() {
        let c = PointCompressor::new();
        assert!(c.encode_block().is_empty());
        assert!(decode_block(&[]).unwrap().is_empty());
    }
}

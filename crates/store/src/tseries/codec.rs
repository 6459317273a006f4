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

/// What the next point's codes are relative to: the previous timestamp,
/// delta and value bits, and the current meaningful-bit window
/// (`window_len == 0` until the first window is opened). The compressor
/// carries it forward on append; [`walk_points`] rebuilds it from a
/// payload for both decoding and [`PointCompressor::resume`].
#[derive(Clone, Copy, Default)]
struct CodecState {
    prev_ts: u64,
    prev_delta: i64,
    prev_val_bits: u64,
    window_lead: u8,
    window_len: u8,
}

/// The most one appended point can grow a block's payload, in whole
/// bytes: a 69-bit timestamp (`11111` + 64 bits) and a 78-bit value
/// (`11` + 12 window bits + 64 bits), 147 bits, round up to 19 bytes.
pub(crate) const MAX_POINT_BYTES: usize = 19;

/// Incremental compressor: the mutable tail block. Points append one at
/// a time; the state is exactly what the next point's encoding needs, so
/// a tail survives process restart by [`PointCompressor::resume`]: the
/// durable block's payload is adopted as is and the state rebuilt by one
/// decoding walk, without re-compressing a point.
#[derive(Clone)]
pub struct PointCompressor {
    bits: BitWriter,
    index: BlockIndex,
    state: CodecState,
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
            state: CodecState::default(),
        }
    }

    /// The compressor that appending `block`'s points to an empty one
    /// would leave behind, without re-compressing them: the block is
    /// verified as [`decode_block`] does, its header index taken as is,
    /// its payload copied, and the codec state rebuilt by one walk that
    /// allocates nothing. An empty `block` resumes an empty tail.
    pub fn resume(block: &[u8]) -> StoreResult<PointCompressor> {
        if block.is_empty() {
            return Ok(PointCompressor::new());
        }
        let (index, payload, payload_bits) = parse_block(block)?;
        let state = walk_points(payload, payload_bits, index.count, |_, _| {})?;
        if index.count == 0 {
            return Ok(PointCompressor::new());
        }
        Ok(PointCompressor {
            bits: BitWriter::resume(payload, payload_bits),
            index,
            state,
        })
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
        let st = &mut self.state;
        // Timestamp stream.
        if self.index.count == 0 {
            self.bits.push_bits(ts_ms, 64);
            st.prev_delta = 0;
        } else {
            let delta = ts_ms.wrapping_sub(st.prev_ts) as i64;
            let dod = delta.wrapping_sub(st.prev_delta);
            let zz = zigzag(dod);
            if zz == 0 {
                self.bits.push_bit(false);
            } else if zz < (1 << 7) {
                self.bits.push_bits(0b10 << 7 | zz, 2 + 7);
            } else if zz < (1 << 9) {
                self.bits.push_bits(0b110 << 9 | zz, 3 + 9);
            } else if zz < (1 << 12) {
                self.bits.push_bits(0b1110 << 12 | zz, 4 + 12);
            } else if zz < (1 << 32) {
                self.bits.push_bits(0b11110 << 32 | zz, 5 + 32);
            } else {
                self.bits.push_bits(0b11111, 5);
                self.bits.push_bits(zz, 64);
            }
            st.prev_delta = delta;
        }
        st.prev_ts = ts_ms;

        // Value stream.
        let val_bits = value.to_bits();
        if self.index.count == 0 {
            self.bits.push_bits(val_bits, 64);
        } else {
            let xor = val_bits ^ st.prev_val_bits;
            if xor == 0 {
                self.bits.push_bit(false);
            } else {
                let lead = (xor.leading_zeros() as u8).min(63);
                let trail = xor.trailing_zeros() as u8;
                let len = 64 - lead - trail;
                let window_trail = 64 - st.window_lead - st.window_len;
                if st.window_len != 0 && lead >= st.window_lead && trail >= window_trail {
                    // `10`, then the XOR within the previous window.
                    self.bits.push_bits(0b10, 2);
                    self.bits.push_bits(xor >> window_trail, st.window_len);
                } else {
                    // `11`, the new window's lead and length−1, its bits.
                    self.bits
                        .push_bits(0b11 << 12 | (lead as u64) << 6 | (len - 1) as u64, 2 + 12);
                    self.bits.push_bits(xor >> trail, len);
                    st.window_lead = lead;
                    st.window_len = len;
                }
            }
        }
        st.prev_val_bits = val_bits;

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
    // Every point takes at least one payload bit, so the header's count
    // sizes nothing beyond what the payload can hold.
    let mut out = Vec::with_capacity((count as usize).min(payload_bits));
    walk_points(payload, payload_bits, count, |ts, val_bits| {
        out.push((ts, f64::from_bits(val_bits)))
    })?;
    Ok(out)
}

/// Decodes `count` points from a packed payload in append order, handing
/// each `(ts, value bits)` to `each`, and returns the codec state after
/// the last one. The payload must end exactly at its last point: bits
/// left over, set padding bits, or bytes past `payload_bits` are
/// corruption — a resumed writer would otherwise append after garbage.
fn walk_points(
    payload: &[u8],
    payload_bits: usize,
    count: u32,
    mut each: impl FnMut(u64, u64),
) -> StoreResult<CodecState> {
    let fail = |m: &str| StoreError::Corrupt(format!("tseries payload: {m}"));
    if payload.len() != payload_bits.div_ceil(8) {
        return Err(fail("length disagrees with its bit count"));
    }
    let used = payload_bits % 8;
    if used != 0 && payload[payload.len() - 1] & (0xFF >> used) != 0 {
        return Err(fail("padding bits are set"));
    }
    let mut r = BitReader::new(payload, payload_bits);
    let mut st = CodecState::default();
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
            let delta = st.prev_delta.wrapping_add(dod);
            st.prev_delta = delta;
            st.prev_ts.wrapping_add(delta as u64)
        };
        st.prev_ts = ts;

        // Value.
        let val_bits = if n == 0 {
            r.read_bits(64).ok_or_else(|| fail("eof in first value"))?
        } else if !r.read_bit().ok_or_else(|| fail("eof in value flag"))? {
            st.prev_val_bits
        } else if !r.read_bit().ok_or_else(|| fail("eof in window flag"))? {
            if st.window_len == 0 {
                return Err(fail("window reuse before any window"));
            }
            let window_trail = 64 - st.window_lead - st.window_len;
            let xor = r
                .read_bits(st.window_len)
                .ok_or_else(|| fail("eof in window bits"))?
                << window_trail;
            st.prev_val_bits ^ xor
        } else {
            let header = r
                .read_bits(12)
                .ok_or_else(|| fail("eof in window header"))?;
            let lead = (header >> 6) as u8;
            let len = (header & 0x3F) as u8 + 1;
            if lead + len > 64 {
                return Err(fail("window exceeds 64 bits"));
            }
            let trail = 64 - lead - len;
            let xor = r.read_bits(len).ok_or_else(|| fail("eof in xor bits"))? << trail;
            st.window_lead = lead;
            st.window_len = len;
            st.prev_val_bits ^ xor
        };
        st.prev_val_bits = val_bits;
        each(ts, val_bits);
    }
    if r.remaining() != 0 {
        return Err(fail("bits left after the last point"));
    }
    Ok(st)
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

    /// A CRC-valid block whose payload runs on past its last point — a
    /// count one short, or a set padding bit — is corrupt for decoding
    /// and resuming alike: a resumed writer would append after garbage.
    #[test]
    fn payload_must_end_at_its_last_point() {
        let mut c = PointCompressor::new();
        for i in 0..6 {
            c.append(i * 10, 1.5);
        }
        let (payload, bits) = (c.bits.as_bytes(), c.bits.len_bits());
        assert_ne!(bits % 8, 0, "the fixture needs padding bits");

        let short = BlockIndex {
            count: 5,
            ..*c.index()
        };
        let block = encode_block_parts(&short, payload, bits);
        assert!(decode_index(&block).is_ok());
        assert!(matches!(decode_block(&block), Err(StoreError::Corrupt(_))));
        assert!(matches!(
            PointCompressor::resume(&block),
            Err(StoreError::Corrupt(_))
        ));

        let mut padded = payload.to_vec();
        *padded.last_mut().unwrap() |= 1;
        let block = encode_block_parts(c.index(), &padded, bits);
        assert!(decode_index(&block).is_ok());
        assert!(matches!(decode_block(&block), Err(StoreError::Corrupt(_))));
        assert!(matches!(
            PointCompressor::resume(&block),
            Err(StoreError::Corrupt(_))
        ));

        let block = encode_block_parts(c.index(), payload, bits);
        assert_eq!(decode_block(&block).unwrap().len(), 6);
        assert!(PointCompressor::resume(&block).is_ok());
    }

    #[test]
    fn empty_block_is_empty_bytes() {
        let c = PointCompressor::new();
        assert!(c.encode_block().is_empty());
        assert!(decode_block(&[]).unwrap().is_empty());
    }
}

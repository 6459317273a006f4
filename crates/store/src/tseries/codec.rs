//! Columnar point compression and the sealed-block byte formats.
//!
//! Timestamps use delta-of-delta encoding with ZigZag bucket codes.
//! Values take one of two codes, chosen per block: Gorilla-style XOR of
//! the float bits (`TSB1`, every open tail and any block), or integer
//! step counts on a decimal grid (`TSB2`, sealed blocks whose values all
//! lie on one). Both streams interleave per point into one packed bit
//! payload, so a block is decoded by a single forward pass.
//!
//! ## Timestamp codes (per point after the first, both layouts)
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
//! ## Value codes, `TSB1`
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
//! ## Value codes, `TSB2`
//!
//! Every value is `d[n] / 10^e` for an integer `d[n]` (the grid test
//! below); the block stores `d[0]` raw (64 bits, two's complement) and
//! then `zz = zigzag((d[n] − d[n−1]) / step)` per point:
//!
//! | prefix   | payload | covers zz          |
//! |----------|---------|--------------------|
//! | `0`      | —       | 0 (unchanged)      |
//! | `10`     | 1 bit   | 1–2 (±1 step)      |
//! | `110`    | 2 bits  | 3–6 (±2, ±3)       |
//! | `1110`   | 4 bits  | 7–22               |
//! | `11110`  | 8 bits  | 23–278             |
//! | `111110` | 16 bits | 279–65,814         |
//! | `111111` | 64 bits | anything (zz raw)  |
//!
//! A bucket's payload is `zz` minus the bucket's first code. Decoding is
//! `(d as f64) / 10^e`, the very expression the grid test checks, so a
//! step block returns its values bit for bit. This is the decimal-grid
//! idea of ALP (Afroozeh et al., SIGMOD 2024) and Elf (VLDB 2023).
//!
//! **Grid test.** `e` is the smallest exponent in `0..=`[`E_MAX`] at
//! which every value `v` satisfies `(round(v·10^e) as f64) / 10^e == v`
//! bit for bit with `|round(v·10^e)| < 2^53`; `10^e` comes from an exact
//! table. NaN, ±∞ and −0.0 never pass, so a block holding one stays
//! `TSB1`. `step` is the gcd of the successive integer deltas (1 when
//! they are all 0).
//!
//! **Selection.** [`PointCompressor::seal_block`] returns the `TSB2`
//! block when the grid test passes and that block is smaller than the
//! `TSB1` image, else the `TSB1` image unchanged. Sealed bytes never
//! grow, and the choice is a function of the points alone, so a replayed
//! seal writes the bytes the live one did.
//!
//! ## Sealed-block layouts
//!
//! ```text
//! TSB1: magic | count u32 | min_ts u64 | max_ts u64
//!       | min_val f64 | max_val f64 | payload_bits u32 | payload | crc32 u32
//! TSB2: magic | count u32 | min_ts u64 | max_ts u64
//!       | min_val f64 | max_val f64 | e u8 | step u64
//!       | payload_bits u32 | payload | crc32 u32
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
/// Magic prefix of a sealed block in integer steps of a decimal grid.
// aodb-schema: layout(TSB2) = magic[4] count:u32 min_ts:u64 max_ts:u64 min_val:f64 max_val:f64 exp:u8 step:u64 payload_bits:u32 payload crc32:u32
pub const STEP_BLOCK_MAGIC: &[u8; 4] = b"TSB2";
/// Fixed header length of a step block: the `TSB1` header plus `e` and
/// `step`.
const STEP_HEADER_LEN: usize = BLOCK_HEADER_LEN + 1 + 8;

/// Largest decimal exponent the grid test tries.
pub const E_MAX: u8 = 18;
/// `10^e` for `e` in `0..=E_MAX`, each exact in an `f64`.
const POW10: [f64; E_MAX as usize + 1] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18,
];
/// Grid integers stay below 2^53 in magnitude, where every integer is
/// exact in an `f64`.
const GRID_LIMIT: f64 = (1u64 << 53) as f64;
/// Payload widths of the step-count buckets; bucket `i < 6` is `i` ones
/// and a zero, the last is six ones and `zz` raw.
const STEP_WIDTHS: [u8; 7] = [0, 1, 2, 4, 8, 16, 64];
/// First `zz` of each step-count bucket; the raw bucket stores `zz`
/// whole, so its entry only ends the bucket before it.
const STEP_BASES: [u64; 7] = [0, 1, 3, 7, 23, 279, 65_815];

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

fn corrupt(m: &str) -> StoreError {
    StoreError::Corrupt(format!("tseries payload: {m}"))
}

/// The timestamp stream's state, shared by both layouts: the previous
/// timestamp and delta.
#[derive(Clone, Copy, Default)]
struct TsState {
    prev_ts: u64,
    prev_delta: i64,
}

impl TsState {
    /// Appends `ts`'s code: raw for a block's first point, its
    /// delta-of-delta bucket after that.
    #[inline(always)]
    fn push(&mut self, bits: &mut BitWriter, ts: u64, first: bool) {
        if first {
            bits.push_bits(ts, 64);
            self.prev_delta = 0;
        } else {
            let delta = ts.wrapping_sub(self.prev_ts) as i64;
            let zz = zigzag(delta.wrapping_sub(self.prev_delta));
            if zz == 0 {
                bits.push_bit(false);
            } else if zz < (1 << 7) {
                bits.push_bits(0b10 << 7 | zz, 2 + 7);
            } else if zz < (1 << 9) {
                bits.push_bits(0b110 << 9 | zz, 3 + 9);
            } else if zz < (1 << 12) {
                bits.push_bits(0b1110 << 12 | zz, 4 + 12);
            } else if zz < (1 << 32) {
                bits.push_bits(0b11110 << 32 | zz, 5 + 32);
            } else {
                bits.push_bits(0b11111, 5);
                bits.push_bits(zz, 64);
            }
            self.prev_delta = delta;
        }
        self.prev_ts = ts;
    }

    /// Reads the next timestamp, the inverse of [`TsState::push`].
    #[inline(always)]
    fn read(&mut self, r: &mut BitReader<'_>, first: bool) -> StoreResult<u64> {
        let ts = if first {
            r.read_bits(64).ok_or_else(|| corrupt("eof in first ts"))?
        } else {
            let mut prefix = 0u8;
            while prefix < 5 && r.read_bit().ok_or_else(|| corrupt("eof in ts prefix"))? {
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
                    unzigzag(r.read_bits(bits).ok_or_else(|| corrupt("eof in dod"))?)
                }
            };
            let delta = self.prev_delta.wrapping_add(dod);
            self.prev_delta = delta;
            self.prev_ts.wrapping_add(delta as u64)
        };
        self.prev_ts = ts;
        Ok(ts)
    }
}

/// What the next point's codes are relative to: the timestamp state,
/// the previous value bits, and the current meaningful-bit window
/// (`window_len == 0` until the first window is opened). The compressor
/// carries it forward on append; [`walk_points`] rebuilds it from a
/// payload for both decoding and [`PointCompressor::resume`].
#[derive(Clone, Copy, Default)]
struct CodecState {
    ts: TsState,
    prev_val_bits: u64,
    window_lead: u8,
    window_len: u8,
}

/// The most one appended point can grow a block's payload, in whole
/// bytes: a 69-bit timestamp (`11111` + 64 bits) and a 78-bit value
/// (`11` + 12 window bits + 64 bits), 147 bits, round up to 19 bytes.
pub(crate) const MAX_POINT_BYTES: usize = 19;

/// A step block's decimal grid: values are integer multiples of
/// `step / 10^exp`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Grid {
    exp: u8,
    step: u64,
}

/// `round(v·10^exp)` when it is below 2^53 in magnitude and, divided by
/// `10^exp`, gives back `v` bit for bit; `None` otherwise (always for
/// NaN, ±∞ and −0.0).
#[inline]
fn on_grid(v: f64, exp: u8) -> Option<i64> {
    let scale = POW10[exp as usize];
    let d = (v * scale).round();
    (d.abs() < GRID_LIMIT && ((d as i64) as f64 / scale).to_bits() == v.to_bits())
        .then_some(d as i64)
}

/// Appends the bucket code of one step count.
#[inline]
fn push_step(bits: &mut BitWriter, zz: u64) {
    // The bucket: the number of bucket bases past the first that `zz`
    // reaches.
    let i: usize = STEP_BASES[1..].iter().map(|&b| usize::from(zz >= b)).sum();
    match (i < 6).then_some(i) {
        Some(i) => {
            // `i` ones, a zero, then the offset in the bucket's width.
            let width = STEP_WIDTHS[i];
            let prefix = ((1u64 << i) - 1) << 1;
            bits.push_bits(prefix << width | (zz - STEP_BASES[i]), i as u8 + 1 + width);
        }
        None => {
            bits.push_bits(0b11_1111, 6);
            bits.push_bits(zz, 64);
        }
    }
}

/// Reads one step count, the inverse of [`push_step`].
#[inline]
fn read_step(r: &mut BitReader<'_>) -> StoreResult<u64> {
    let mut ones = 0usize;
    while ones < 6 && r.read_bit().ok_or_else(|| corrupt("eof in step prefix"))? {
        ones += 1;
    }
    let payload = r
        .read_bits(STEP_WIDTHS[ones])
        .ok_or_else(|| corrupt("eof in step count"))?;
    Ok(if ones == 6 {
        payload
    } else {
        STEP_BASES[ones] + payload
    })
}

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
    /// allocates nothing. An empty `block` resumes an empty tail. A tail
    /// is always a `TSB1` image: a step block is refused as corrupt.
    pub fn resume(block: &[u8]) -> StoreResult<PointCompressor> {
        if block.is_empty() {
            return Ok(PointCompressor::new());
        }
        let (index, grid, payload, payload_bits) = parse_block(block)?;
        if grid.is_some() {
            return Err(corrupt("an open tail is never a step block"));
        }
        let state = walk_points(payload, payload_bits, index.count, |_, _| true)?;
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
        let first = self.index.count == 0;
        let st = &mut self.state;
        st.ts.push(&mut self.bits, ts_ms, first);

        // Value stream.
        let val_bits = value.to_bits();
        if first {
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

    /// Serializes the current contents as a `TSB1` block (header,
    /// payload, CRC): the durable image of a still-open tail, and the
    /// sealed image of a block off any decimal grid. Empty tails produce
    /// an empty byte string.
    pub fn encode_block(&self) -> Vec<u8> {
        if self.index.count == 0 {
            return Vec::new();
        }
        encode_block_parts(
            &self.index,
            None,
            self.bits.as_bytes(),
            self.bits.len_bits(),
        )
    }

    /// Serializes the current contents as a sealed block: the `TSB2`
    /// step block when every value lies on one decimal grid and that
    /// block is the smaller, else [`PointCompressor::encode_block`]'s
    /// bytes (see the module docs).
    pub fn seal_block(&self) -> Vec<u8> {
        self.step_block().unwrap_or_else(|| self.encode_block())
    }

    /// The `TSB2` image, or `None` when a value lies on no grid or the
    /// step block would not be smaller than the `TSB1` image. One walk
    /// over the payload keeps each point's timestamp and grid integer in
    /// a scratch buffer, and one pass over that buffer encodes.
    fn step_block(&self) -> Option<Vec<u8>> {
        let mut points: Vec<(u64, i64)> = Vec::with_capacity(self.index.count as usize);
        let mut exp = 0u8;
        // The gcd of every integer's distance from the first, which is
        // the gcd of the successive deltas: each is a difference of two
        // such distances, and each distance a sum of deltas.
        let mut step = 0u64;
        // Recent values and their integers at `exp`, by a hash of the
        // value bits: a sensor's block repeats a few dozen values, and a
        // hit skips the grid test and the gcd, which a value already seen
        // cannot change. `(+0.0, 0)` is right at every exponent.
        let mut memo = [(0u64, 0i64); 32];
        let walked = walk_points(
            self.bits.as_bytes(),
            self.bits.len_bits(),
            self.index.count,
            |ts, val_bits| {
                let slot = (val_bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as usize;
                if memo[slot].0 != val_bits {
                    let v = f64::from_bits(val_bits);
                    let d = match on_grid(v, exp) {
                        Some(d) => d,
                        // A finer grid, for this value and every one before.
                        None => match regrid(&mut points, exp, v) {
                            Some((finer, d)) => {
                                exp = finer;
                                memo = [(0, 0); 32];
                                step = points.iter().fold(0, |g, p| gcd(g, p.1.abs_diff(d)));
                                d
                            }
                            None => return false,
                        },
                    };
                    memo[slot] = (val_bits, d);
                    step = gcd(step, d.abs_diff(points.first().map_or(d, |p| p.1)));
                }
                points.push((ts, memo[slot].1));
                true
            },
        );
        if walked.is_err() || points.len() != self.index.count as usize {
            return None;
        }
        let grid = Grid {
            exp,
            step: step.max(1),
        };
        let div = ExactDiv::new(grid.step);

        // A step payload that reaches `limit` bytes no longer wins.
        let limit = (self.bits.len_bytes() + BLOCK_HEADER_LEN).checked_sub(STEP_HEADER_LEN)?;
        let mut bits = BitWriter::with_capacity(limit);
        let mut ts = TsState::default();
        let (first_ts, first_d) = *points.first()?;
        ts.push(&mut bits, first_ts, true);
        bits.push_bits(first_d as u64, 64);
        for w in points.windows(2) {
            ts.push(&mut bits, w[1].0, false);
            push_step(&mut bits, zigzag(div.of(w[1].1 - w[0].1)));
        }
        (bits.len_bytes() < limit)
            .then(|| encode_block_parts(&self.index, Some(grid), bits.as_bytes(), bits.len_bits()))
    }
}

/// The smallest exponent above `exp` at which `v` and every value
/// before it (the integers in `points`, on the grid at `exp`) lie on a
/// grid, with those integers rewritten at it, and `v`'s integer there;
/// `None` when there is none up to [`E_MAX`].
fn regrid(points: &mut [(u64, i64)], exp: u8, v: f64) -> Option<(u8, i64)> {
    // `d / 10^exp` is the value itself: the grid test checked it.
    let scale = POW10[exp as usize];
    (exp + 1..=E_MAX).find_map(|finer| {
        let d = on_grid(v, finer)?;
        let fits = points
            .iter()
            .all(|&(_, d)| on_grid(d as f64 / scale, finer).is_some());
        fits.then(|| {
            for p in points.iter_mut() {
                p.1 = on_grid(p.1 as f64 / scale, finer).expect("checked just above");
            }
            (finer, d)
        })
    })
}

/// Euclid's gcd.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Division by a block's step, of deltas it divides: a shift by the
/// step's trailing zeros and a product with the inverse of its odd part
/// modulo 2^64, exact for every multiple (Granlund and Montgomery,
/// PLDI 1994) and cheaper than a 64-bit division per point.
struct ExactDiv {
    shift: u32,
    inverse: u64,
}

impl ExactDiv {
    fn new(step: u64) -> Self {
        let odd = step >> step.trailing_zeros();
        // Newton's iteration doubles the correct low bits of an inverse;
        // `odd` is its own inverse to 3 bits, and 3 · 2^5 ≥ 64.
        let mut inverse = odd;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inverse)));
        }
        ExactDiv {
            shift: step.trailing_zeros(),
            inverse,
        }
    }

    /// `delta / step`, for a `delta` that `step` divides.
    #[inline]
    fn of(&self, delta: i64) -> i64 {
        ((delta >> self.shift) as u64).wrapping_mul(self.inverse) as i64
    }
}

fn encode_block_parts(
    index: &BlockIndex,
    grid: Option<Grid>,
    payload: &[u8],
    payload_bits: usize,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(STEP_HEADER_LEN + payload.len() + 4);
    let mut w = Writer::over(&mut out);
    w.bytes(if grid.is_some() {
        STEP_BLOCK_MAGIC
    } else {
        BLOCK_MAGIC
    });
    w.u32(index.count);
    w.u64(index.min_ts);
    w.u64(index.max_ts);
    w.f64(index.min_val);
    w.f64(index.max_val);
    if let Some(grid) = grid {
        w.u8(grid.exp);
        w.u64(grid.step);
    }
    w.u32(payload_bits as u32);
    w.bytes(payload);
    w.crc_trailer();
    out
}

/// Verifies a block of either layout and splits it into its sparse
/// index, its grid (`None` for `TSB1`), its payload and the payload's
/// length in bits. A `TSB` magic of any other version is the typed
/// unsupported-version error.
fn parse_block(block: &[u8]) -> StoreResult<(BlockIndex, Option<Grid>, &[u8], usize)> {
    Reader::whole(block, "tseries block", |r| {
        let step = !block.starts_with(BLOCK_MAGIC);
        if step {
            r.magic(STEP_BLOCK_MAGIC)?;
        } else {
            r.magic(BLOCK_MAGIC)?;
        }
        r.crc_trailer()?;
        let index = BlockIndex {
            count: r.u32()?,
            min_ts: r.u64()?,
            max_ts: r.u64()?,
            min_val: r.f64()?,
            max_val: r.f64()?,
        };
        let grid = if step {
            let grid = Grid {
                exp: r.u8()?,
                step: r.u64()?,
            };
            if grid.exp > E_MAX || grid.step == 0 || i64::try_from(grid.step).is_err() {
                return Err(StoreError::Corrupt(
                    "tseries block: grid out of range".into(),
                ));
            }
            Some(grid)
        } else {
            None
        };
        let payload_bits = r.u32()? as usize;
        Ok((index, grid, r.take(payload_bits.div_ceil(8))?, payload_bits))
    })
}

/// Parses and verifies a block's header, returning its sparse index
/// without decompressing the payload (the block-skip fast path).
pub fn decode_index(block: &[u8]) -> StoreResult<BlockIndex> {
    parse_block(block).map(|(index, ..)| index)
}

/// Decompresses every point of a block of either layout, in append
/// order.
pub fn decode_block(block: &[u8]) -> StoreResult<Vec<(u64, f64)>> {
    if block.is_empty() {
        return Ok(Vec::new());
    }
    let (index, grid, payload, payload_bits) = parse_block(block)?;
    // Every point takes at least one payload bit, so the header's count
    // sizes nothing beyond what the payload can hold.
    let mut out = Vec::with_capacity((index.count as usize).min(payload_bits));
    match grid {
        None => {
            walk_points(payload, payload_bits, index.count, |ts, val_bits| {
                out.push((ts, f64::from_bits(val_bits)));
                true
            })?;
        }
        Some(grid) => walk_steps(payload, payload_bits, index.count, grid, |ts, v| {
            out.push((ts, v))
        })?,
    }
    Ok(out)
}

/// A reader over a payload that must end exactly at its last point:
/// bytes past `payload_bits` or set padding bits are corruption — a
/// resumed writer would otherwise append after garbage.
fn payload_reader(payload: &[u8], payload_bits: usize) -> StoreResult<BitReader<'_>> {
    if payload.len() != payload_bits.div_ceil(8) {
        return Err(corrupt("length disagrees with its bit count"));
    }
    let used = payload_bits % 8;
    if used != 0 && payload[payload.len() - 1] & (0xFF >> used) != 0 {
        return Err(corrupt("padding bits are set"));
    }
    Ok(BitReader::new(payload, payload_bits))
}

/// Decodes `count` points from a packed `TSB1` payload in append order,
/// handing each `(ts, value bits)` to `each`, and returns the codec
/// state after the last one. Bits left over after the last point are
/// corruption, as in [`payload_reader`]. The walk stops early, without
/// that check, when `each` returns `false`.
fn walk_points(
    payload: &[u8],
    payload_bits: usize,
    count: u32,
    mut each: impl FnMut(u64, u64) -> bool,
) -> StoreResult<CodecState> {
    let mut r = payload_reader(payload, payload_bits)?;
    let mut st = CodecState::default();
    for n in 0..count {
        let ts = st.ts.read(&mut r, n == 0)?;
        let val_bits = if n == 0 {
            r.read_bits(64)
                .ok_or_else(|| corrupt("eof in first value"))?
        } else if !r.read_bit().ok_or_else(|| corrupt("eof in value flag"))? {
            st.prev_val_bits
        } else if !r.read_bit().ok_or_else(|| corrupt("eof in window flag"))? {
            if st.window_len == 0 {
                return Err(corrupt("window reuse before any window"));
            }
            let window_trail = 64 - st.window_lead - st.window_len;
            let xor = r
                .read_bits(st.window_len)
                .ok_or_else(|| corrupt("eof in window bits"))?
                << window_trail;
            st.prev_val_bits ^ xor
        } else {
            let header = r
                .read_bits(12)
                .ok_or_else(|| corrupt("eof in window header"))?;
            let lead = (header >> 6) as u8;
            let len = (header & 0x3F) as u8 + 1;
            if lead + len > 64 {
                return Err(corrupt("window exceeds 64 bits"));
            }
            let trail = 64 - lead - len;
            let xor = r.read_bits(len).ok_or_else(|| corrupt("eof in xor bits"))? << trail;
            st.window_lead = lead;
            st.window_len = len;
            st.prev_val_bits ^ xor
        };
        st.prev_val_bits = val_bits;
        if !each(ts, val_bits) {
            return Ok(st);
        }
    }
    if r.remaining() != 0 {
        return Err(corrupt("bits left after the last point"));
    }
    Ok(st)
}

/// Decodes `count` points from a packed `TSB2` payload on `grid` in
/// append order, handing each `(ts, value)` to `each`. Integer steps
/// wrap instead of overflowing: a CRC-valid but crafted payload decodes
/// to some values, never to a panic.
fn walk_steps(
    payload: &[u8],
    payload_bits: usize,
    count: u32,
    grid: Grid,
    mut each: impl FnMut(u64, f64),
) -> StoreResult<()> {
    let mut r = payload_reader(payload, payload_bits)?;
    let (mut ts, mut d) = (TsState::default(), 0i64);
    let scale = POW10[grid.exp as usize];
    for n in 0..count {
        let t = ts.read(&mut r, n == 0)?;
        d = if n == 0 {
            r.read_bits(64)
                .ok_or_else(|| corrupt("eof in first value"))? as i64
        } else {
            d.wrapping_add(unzigzag(read_step(&mut r)?).wrapping_mul(grid.step as i64))
        };
        each(t, d as f64 / scale);
    }
    if r.remaining() != 0 {
        return Err(corrupt("bits left after the last point"));
    }
    Ok(())
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
        // Every version byte but the two this build writes, on either
        // layout's image: a hypothetical newer writer.
        for block in [c.encode_block(), c.seal_block()] {
            for version in (0..=u8::MAX).filter(|v| !matches!(v, b'1' | b'2')) {
                let mut block = block.clone();
                block[3] = version;
                match decode_index(&block) {
                    Err(StoreError::UnsupportedVersion(msg)) => {
                        assert!(msg.contains("TSB"), "{msg}");
                        assert!(msg.contains(char::from(version)), "{msg}");
                        assert!(msg.contains("version 2"), "{msg}");
                    }
                    other => panic!("expected UnsupportedVersion, got {other:?}"),
                }
            }
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
        let block = encode_block_parts(&index, None, c.bits.as_bytes(), c.bits.len_bits());
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
        let block = encode_block_parts(&short, None, payload, bits);
        assert!(decode_index(&block).is_ok());
        assert!(matches!(decode_block(&block), Err(StoreError::Corrupt(_))));
        assert!(matches!(
            PointCompressor::resume(&block),
            Err(StoreError::Corrupt(_))
        ));

        let mut padded = payload.to_vec();
        *padded.last_mut().unwrap() |= 1;
        let block = encode_block_parts(c.index(), None, &padded, bits);
        assert!(decode_index(&block).is_ok());
        assert!(matches!(decode_block(&block), Err(StoreError::Corrupt(_))));
        assert!(matches!(
            PointCompressor::resume(&block),
            Err(StoreError::Corrupt(_))
        ));

        let block = encode_block_parts(c.index(), None, payload, bits);
        assert_eq!(decode_block(&block).unwrap().len(), 6);
        assert!(PointCompressor::resume(&block).is_ok());
    }

    #[test]
    fn exact_division_by_a_step_matches_integer_division() {
        for step in [1u64, 2, 3, 25, 64, 1000, 7 << 20, (1 << 53) - 1] {
            let div = ExactDiv::new(step);
            for q in [0i64, 1, -1, 2, -3, 1 << 20, -(1 << 30)] {
                if let Some(delta) = q.checked_mul(step as i64) {
                    assert_eq!(div.of(delta), q, "{delta} / {step}");
                }
            }
        }
    }

    #[test]
    fn empty_block_is_empty_bytes() {
        let c = PointCompressor::new();
        assert!(c.encode_block().is_empty());
        assert!(decode_block(&[]).unwrap().is_empty());
    }
}

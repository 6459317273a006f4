//! Value codec and record framing.
//!
//! * State blobs are serialized with `serde_json` (human-inspectable, no
//!   extra dependency beyond the allowed serde ecosystem).
//! * Log records are framed as `len | crc32 | payload` with a table-driven
//!   (slicing-by-8) CRC-32 (IEEE 802.3 polynomial) implemented here, so
//!   torn or corrupted tail records are detected during recovery. The same
//!   checksum guards WAL frames, `LogStore` records and tseries tail
//!   records, on the write path and on replay.

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::api::{StoreError, StoreResult};

/// Serializes a state value to bytes.
pub fn encode_state<T: Serialize>(value: &T) -> StoreResult<Bytes> {
    serde_json::to_vec(value)
        .map(Bytes::from)
        .map_err(|e| StoreError::Codec(e.to_string()))
}

/// Deserializes a state value from bytes.
pub fn decode_state<T: DeserializeOwned>(bytes: &[u8]) -> StoreResult<T> {
    serde_json::from_slice(bytes).map_err(|e| StoreError::Codec(e.to_string()))
}

const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table, `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes. Eight independent lookups then fold eight
/// input bytes per step instead of one serially dependent lookup per
/// byte. Same polynomial, same values as the bytewise loop.
static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Advances the (pre-inverted) CRC register over `data`.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// Incremental CRC-32 over multiple slices.
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds more data.
    pub fn update(&mut self, data: &[u8]) {
        self.state = crc32_update(self.state, data);
    }

    /// Final checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// Frames `payload` as `len(4) | crc(4) | payload` into `out`.
pub fn frame_record(payload: &[u8], out: &mut Vec<u8>) {
    frame_record_with(out, |out| out.extend_from_slice(payload));
}

/// Appends one `len | crc | payload` record to `out` whose payload is
/// whatever `write_payload` appends: the payload bytes are written once,
/// in place, and the header is patched over its 8 reserved bytes
/// afterwards — no intermediate payload buffer copied a second time.
/// `write_payload` must only append.
pub fn frame_record_with(out: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 8]);
    write_payload(out);
    assert!(out.len() >= start + 8, "payload writer truncated the frame");
    let len = u32::try_from(out.len() - start - 8).expect("record payload exceeds u32::MAX bytes");
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// One complete `len | crc | payload` record in its own buffer, framed
/// by whoever built it. The only constructor frames what it is given,
/// so holding one is proof the header matches the payload — which is
/// what lets [`GroupWal::submit_framed`](crate::GroupWal::submit_framed)
/// write it without looking at it again.
pub struct FramedRecord(Vec<u8>);

impl FramedRecord {
    /// Frames the bytes `write_payload` appends (see
    /// [`frame_record_with`]); `payload_capacity` sizes the buffer.
    pub fn build(payload_capacity: usize, write_payload: impl FnOnce(&mut Vec<u8>)) -> Self {
        let mut buf = Vec::with_capacity(8 + payload_capacity);
        frame_record_with(&mut buf, write_payload);
        FramedRecord(buf)
    }

    /// The whole record, header included: the bytes that go to disk.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The payload the header describes.
    pub fn payload(&self) -> &[u8] {
        &self.0[8..]
    }
}

/// Parses one framed record from the front of `buf`.
///
/// Returns `Ok(Some((payload, consumed)))` on success, `Ok(None)` when the
/// buffer ends mid-record (a torn tail write — the recovery point), and
/// `Err` on a checksum mismatch.
pub fn parse_record(buf: &[u8]) -> StoreResult<Option<(&[u8], usize)>> {
    if buf.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4-byte slice")) as usize;
    let crc = u32::from_le_bytes(buf[4..8].try_into().expect("4-byte slice"));
    if buf.len() < 8 + len {
        return Ok(None);
    }
    let payload = &buf[8..8 + len];
    if crc32(payload) != crc {
        return Err(StoreError::Corrupt(format!(
            "crc mismatch on {len}-byte record"
        )));
    }
    Ok(Some((payload, 8 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The byte-at-a-time loop slicing-by-8 replaced, kept as the
    /// reference the fast path is checked against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            let mut x = (crc ^ b as u32) & 0xFF;
            for _ in 0..8 {
                x = if x & 1 != 0 {
                    (x >> 1) ^ CRC_POLY
                } else {
                    x >> 1
                };
            }
            crc = (crc >> 8) ^ x;
        }
        !crc
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Slicing-by-8 equals the bytewise reference on every length
        /// 0–4 KiB and every start alignment, one-shot and fed in two
        /// or three arbitrary pieces.
        #[test]
        fn crc32_matches_bytewise_reference(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4104),
            start in 0usize..8,
            cut_a in 0usize..4097,
            cut_b in 0usize..4097,
        ) {
            let data = &data[start.min(data.len())..];
            let expected = crc32_bytewise(data);
            proptest::prop_assert_eq!(crc32(data), expected);
            let (a, b) = (cut_a.min(data.len()), cut_b.min(data.len()));
            let (a, b) = (a.min(b), a.max(b));
            let mut inc = Crc32::new();
            inc.update(&data[..a]);
            inc.update(&data[a..b]);
            inc.update(&data[b..]);
            proptest::prop_assert_eq!(inc.finish(), expected);
        }
    }

    #[test]
    fn framed_record_is_byte_identical_to_frame_record() {
        for payload in [&b""[..], b"x", b"hello, framed world"] {
            let mut copied = Vec::new();
            frame_record(payload, &mut copied);
            let built = FramedRecord::build(payload.len(), |out| out.extend_from_slice(payload));
            assert_eq!(built.as_bytes(), copied);
            assert_eq!(built.payload(), payload);
        }
        // Appending to a non-empty buffer frames only the new bytes.
        let mut buf = b"prefix".to_vec();
        frame_record_with(&mut buf, |out| out.extend_from_slice(b"tail"));
        assert_eq!(parse_record(&buf[6..]).unwrap(), Some((&b"tail"[..], 12)));
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        frame_record(b"hello", &mut buf);
        frame_record(b"world!", &mut buf);
        let (p1, n1) = parse_record(&buf).unwrap().unwrap();
        assert_eq!(p1, b"hello");
        let (p2, n2) = parse_record(&buf[n1..]).unwrap().unwrap();
        assert_eq!(p2, b"world!");
        assert_eq!(n1 + n2, buf.len());
    }

    #[test]
    fn torn_tail_is_not_an_error() {
        let mut buf = Vec::new();
        frame_record(b"complete", &mut buf);
        let full = buf.len();
        frame_record(b"torn-record", &mut buf);
        // Simulate a crash mid-write of the second record.
        buf.truncate(full + 5);
        let (p, n) = parse_record(&buf).unwrap().unwrap();
        assert_eq!(p, b"complete");
        assert_eq!(parse_record(&buf[n..]).unwrap(), None);
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = Vec::new();
        frame_record(b"precious data", &mut buf);
        buf[10] ^= 0x01;
        assert!(matches!(parse_record(&buf), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn state_codec_roundtrip() {
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct S {
            name: String,
            values: Vec<f64>,
        }
        let s = S {
            name: "bridge".into(),
            values: vec![1.5, -2.25],
        };
        let bytes = encode_state(&s).unwrap();
        let back: S = decode_state(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn decode_garbage_is_codec_error() {
        let r: StoreResult<Vec<u64>> = decode_state(b"not json at all {");
        assert!(matches!(r, Err(StoreError::Codec(_))));
    }
}

//! Value codec and the one byte codec under every durable record.
//!
//! * State blobs are serialized with `serde_json` (human-inspectable, no
//!   extra dependency beyond the allowed serde ecosystem).
//! * Every binary record — `TSB1` sealed blocks, `TST1` tail records,
//!   `TSW1` WAL deltas, `LogStore` mutation records and the shm
//!   side-cars — is a field list over [`Writer`] and [`Reader`]:
//!   little-endian fixed-width integers and floats, `u32`-length-prefixed
//!   byte strings, counted lists and presence-byte options. The checks
//!   every decoder needs live here and nowhere else: bounds on every read,
//!   element counts capped by the bytes left (so a corrupt count can never
//!   size an allocation), the end-of-record check ([`Reader::whole`]
//!   decodes whole records only), the magic-family-then-
//!   version gate ([`SeriesError::UnsupportedVersion`]) and the trailing
//!   CRC-32 seal and check.
//! * Log records are framed as `len | crc32 | payload` with a table-driven
//!   (slicing-by-8) CRC-32 (IEEE 802.3 polynomial) implemented here, so
//!   torn or corrupted tail records are detected during recovery.
//!   [`replay_framed`] is the one reader of a framed log: the `LogStore`
//!   snapshot and `wal.log` and the [`GroupWal`](crate::GroupWal) file all
//!   replay through it and learn from it where their clean prefix ends.

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::api::{StoreError, StoreResult};
use crate::tseries::SeriesError;

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

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
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
    !crc
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

/// Replays a framed log: hands the payload of each `len | crc | payload`
/// record to `each`, front to back, and returns the length of the clean
/// prefix — the end of the last whole record. A torn final record (a
/// crash mid-append) is where the prefix ends, for the caller to truncate
/// or refuse; a checksum mismatch, or an error from `each`, is returned.
pub fn replay_framed(
    log: &[u8],
    mut each: impl FnMut(&[u8]) -> StoreResult<()>,
) -> StoreResult<usize> {
    let mut clean = 0;
    while let Some((payload, consumed)) = parse_record(&log[clean..])? {
        each(payload)?;
        clean += consumed;
    }
    Ok(clean)
}

/// Appends one record's fields, little-endian, to a caller-owned buffer.
/// It only appends, so a record can follow a frame header already in the
/// buffer, and a caller can reuse one buffer's capacity record after
/// record.
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
    /// Where the record starts: what [`Writer::crc_trailer`] covers.
    start: usize,
}

impl<'a> Writer<'a> {
    /// Starts a record at the end of `buf`.
    pub fn over(buf: &'a mut Vec<u8>) -> Self {
        let start = buf.len();
        Writer { buf, start }
    }

    /// Raw bytes: a magic, or a payload whose length is another field.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// One byte, `0` or `1`.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Four bytes.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Eight bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The float's bit pattern as eight bytes (NaN payloads survive).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `len u32 | bytes`.
    pub fn u32_prefixed(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("field exceeds u32::MAX bytes"));
        self.bytes(v);
    }

    /// A presence byte, then `some`'s fields when there is a value.
    pub fn opt<T>(&mut self, v: Option<T>, some: impl FnOnce(&mut Self, T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            some(self, v);
        }
    }

    /// Ends the record with the CRC-32 of every byte it holds.
    pub fn crc_trailer(mut self) {
        let crc = crc32(&self.buf[self.start..]);
        self.u32(crc);
    }
}

/// Reads one record's fields, little-endian, with every read
/// bounds-checked. A failed check is a [`StoreError::Corrupt`] naming the
/// record; nothing is allocated or formatted unless a check fails.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The record kind, for error messages.
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Decodes `buf` as one whole record of kind `what`: `fields` reads
    /// it from its first byte, and the end-of-record check then refuses
    /// any byte left unread.
    pub fn whole<T>(
        buf: &'a [u8],
        what: &'static str,
        fields: impl FnOnce(&mut Self) -> StoreResult<T>,
    ) -> StoreResult<T> {
        let mut r = Reader { buf, pos: 0, what };
        let record = fields(&mut r)?;
        if r.pos != r.buf.len() {
            return Err(r.corrupt("trailing bytes"));
        }
        Ok(record)
    }

    fn corrupt(&self, why: &str) -> StoreError {
        StoreError::Corrupt(format!("{}: {why}", self.what))
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(self.corrupt("truncated field"));
        }
        let field = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(field)
    }

    fn array<const N: usize>(&mut self) -> StoreResult<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> StoreResult<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// One byte; anything but `0` is `true`.
    pub fn bool(&mut self) -> StoreResult<bool> {
        Ok(self.u8()? != 0)
    }

    /// Four bytes.
    pub fn u32(&mut self) -> StoreResult<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Eight bytes.
    pub fn u64(&mut self) -> StoreResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A float from its eight-byte bit pattern.
    pub fn f64(&mut self) -> StoreResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// `len u32 | bytes`: the bytes.
    pub fn u32_prefixed(&mut self) -> StoreResult<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// `count u32 | element*`, each element read by `each`.
    pub fn u32_list<T>(
        &mut self,
        each: impl FnMut(&mut Self) -> StoreResult<T>,
    ) -> StoreResult<Vec<T>> {
        let count = self.u32()? as u64;
        self.elements(count, each)
    }

    /// `count u64 | element*`, each element read by `each`.
    pub fn u64_list<T>(
        &mut self,
        each: impl FnMut(&mut Self) -> StoreResult<T>,
    ) -> StoreResult<Vec<T>> {
        let count = self.u64()?;
        self.elements(count, each)
    }

    /// The count is checked against the bytes left before it sizes the
    /// list — every element takes at least one — so a corrupt count is
    /// an error, never a huge allocation.
    fn elements<T>(
        &mut self,
        count: u64,
        mut each: impl FnMut(&mut Self) -> StoreResult<T>,
    ) -> StoreResult<Vec<T>> {
        if count > (self.buf.len() - self.pos) as u64 {
            return Err(self.corrupt("element count exceeds the record"));
        }
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            out.push(each(self)?);
        }
        Ok(out)
    }

    /// A presence byte, then `some`'s fields when it says there is a
    /// value.
    pub fn opt<T>(
        &mut self,
        some: impl FnOnce(&mut Self) -> StoreResult<T>,
    ) -> StoreResult<Option<T>> {
        if self.bool()? {
            some(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A one-byte format tag that must be `expected`.
    pub fn tag(&mut self, expected: u8) -> StoreResult<()> {
        if self.u8()? != expected {
            return Err(self.corrupt("unknown format byte"));
        }
        Ok(())
    }

    /// The version gate of a four-byte magic whose last byte is the
    /// format version (`TSB1`, `TST1`, `TSW1`): a different family is
    /// corruption, a different version of this family is
    /// [`SeriesError::UnsupportedVersion`]. Call it before
    /// [`Reader::crc_trailer`]: a newer layout may keep its CRC somewhere
    /// else, so checking that first would report every future-version
    /// record as corruption.
    pub fn magic(&mut self, magic: &'static [u8; 4]) -> StoreResult<()> {
        let found: [u8; 4] = self.array()?;
        if found[..3] != magic[..3] {
            return Err(self.corrupt("bad magic"));
        }
        if found[3] != magic[3] {
            return Err(SeriesError::UnsupportedVersion {
                format: std::str::from_utf8(&magic[..3]).expect("ASCII magic"),
                found: found[3],
                supported: magic[3],
            }
            .into());
        }
        Ok(())
    }

    /// Checks the record's trailing CRC-32 — the CRC of every byte before
    /// it, from the record's first — and ends the record before it.
    pub fn crc_trailer(&mut self) -> StoreResult<()> {
        let Some(body_len) = self.buf.len().checked_sub(4).filter(|&n| n >= self.pos) else {
            return Err(self.corrupt("truncated"));
        };
        let (body, trailer) = self.buf.split_at(body_len);
        if crc32(body) != u32::from_le_bytes(trailer.try_into().expect("4 bytes")) {
            return Err(self.corrupt("crc mismatch"));
        }
        self.buf = body;
        Ok(())
    }
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
        /// 0–4 KiB and every start alignment.
        #[test]
        fn crc32_matches_bytewise_reference(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4104),
            start in 0usize..8,
        ) {
            let data = &data[start.min(data.len())..];
            proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }

    #[test]
    fn writer_and_reader_agree_field_by_field() {
        let mut buf = b"hdr".to_vec();
        let mut w = Writer::over(&mut buf);
        w.bytes(b"TSX1");
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(f64::NAN);
        w.u32_prefixed(b"key");
        w.u32(2);
        w.u64(1);
        w.u64(2);
        w.u64(2);
        w.opt(Some(0.5), Writer::f64);
        w.opt(None, Writer::f64);
        w.crc_trailer();
        // The writer appended after what the buffer held, and its CRC
        // covers only its own record.
        assert_eq!(&buf[..3], b"hdr");
        Reader::whole(&buf[3..], "test record", |r| {
            r.magic(b"TSX1")?;
            r.crc_trailer()?;
            assert_eq!(r.u8()?, 7);
            assert!(r.bool()?);
            assert_eq!(r.u32()?, 0xDEAD_BEEF);
            assert_eq!(r.u64()?, u64::MAX - 1);
            assert_eq!(r.f64()?.to_bits(), f64::NAN.to_bits());
            assert_eq!(r.u32_prefixed()?, b"key");
            assert_eq!(r.u32_list(|r| r.u64())?, [1, 2]);
            assert_eq!(r.u64_list(|r| r.opt(|r| r.f64()))?, [Some(0.5), None]);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn reader_checks_are_typed_errors() {
        let corrupt = |r: StoreResult<()>| matches!(r, Err(StoreError::Corrupt(_)));
        let check = |buf: &[u8], f: fn(&mut Reader) -> StoreResult<()>| Reader::whole(buf, "r", f);
        // Truncation, trailing bytes, an unknown tag.
        assert!(corrupt(check(&[1, 2, 3], |r| r.u32().map(drop))));
        assert!(corrupt(check(&[1], |_| Ok(()))));
        assert!(corrupt(check(&[2], |r| r.tag(1))));
        // A count larger than the bytes left never sizes a list.
        let mut huge = Vec::new();
        Writer::over(&mut huge).u64(u64::MAX);
        assert!(corrupt(check(&huge, |r| r.u64_list(|r| r.u8()).map(drop))));
        // The magic gate: family first, then version.
        assert!(corrupt(check(b"XSX1", |r| r.magic(b"TSX1"))));
        match check(b"TSX2", |r| r.magic(b"TSX1")) {
            Err(StoreError::UnsupportedVersion(msg)) => assert!(msg.contains("TSX"), "{msg}"),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // The CRC trailer.
        let mut rec = Vec::new();
        let mut w = Writer::over(&mut rec);
        w.u64(42);
        w.crc_trailer();
        rec[0] ^= 1;
        assert!(corrupt(check(&rec, |r| r.crc_trailer())));
        assert!(corrupt(check(&rec[..3], |r| r.crc_trailer())));
    }

    #[test]
    fn replay_framed_reports_the_clean_prefix() {
        let mut log = Vec::new();
        frame_record(b"one", &mut log);
        frame_record(b"two", &mut log);
        let whole = log.len();
        frame_record(b"torn", &mut log);
        log.truncate(whole + 5);
        let mut seen = Vec::new();
        let clean = replay_framed(&log, |p| {
            seen.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(
            (clean, seen),
            (whole, vec![b"one".to_vec(), b"two".to_vec()])
        );
        log[9] ^= 1;
        assert!(matches!(
            replay_framed(&log, |_| Ok(())),
            Err(StoreError::Corrupt(_))
        ));
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

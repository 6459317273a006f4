//! Property-based tests of the time-series codec and engine: round-trip
//! identity over adversarial streams, sparse-index correctness, resume
//! and reopen equivalence, `scan_from` against the append-order scan on
//! every store, the byte-wise bit kernels against a
//! bit-at-a-time reference, and golden byte fixtures pinning the on-disk
//! formats (`TSB1` sealed block, `TST1` tail record, `TSW1` WAL delta).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use aodb_chaos::ReferenceSeries;
use aodb_store::tseries::bits::{BitReader, BitWriter};
use aodb_store::tseries::{
    decode_block, decode_index, PointCompressor, SeriesStore, TsConfig, TsStore,
};
use aodb_store::{Bytes, Key, MemMedia, MemStore, StateStore, StoreResult, WalConfig};
use proptest::prelude::*;

/// An engine over `backing` whose WAL is `media`: a clone kept by the
/// caller reopens what the engine logged once it is dropped.
fn open_mem(backing: &Arc<dyn StateStore>, config: TsConfig, media: &MemMedia) -> TsStore {
    TsStore::new(
        Arc::clone(backing),
        config,
        media.clone(),
        WalConfig::default(),
    )
    .unwrap()
}

/// One generated point: a signed timestamp step from its predecessor and
/// a value. Steps may be negative (out-of-order-within-batch) or huge
/// (epoch-scale gaps); values include the IEEE754 specials.
fn step_strategy() -> impl Strategy<Value = (i64, f64)> {
    let delta = prop_oneof![
        Just(0i64),                      // duplicate timestamps
        -1_000i64..1_000,                // jitter, incl. backwards
        Just(100i64),                    // the steady 10 Hz case
        1_000_000_000i64..2_000_000_000, // epoch-scale jumps
        Just(-3_600_000i64),             // an hour backwards
    ];
    let value = prop_oneof![
        Just(21.5f64),  // constant series
        -1e12f64..1e12, // generic magnitudes
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
        Just(0.0f64),
        Just(f64::MIN_POSITIVE), // subnormal neighborhood
    ];
    (delta, value)
}

/// Materializes a step stream into absolute `(ts, value)` points,
/// starting from an arbitrary epoch (wrapping arithmetic — the codec
/// must survive any u64 timestamp).
fn materialize(start: u64, steps: &[(i64, f64)]) -> Vec<(u64, f64)> {
    let mut ts = start;
    steps
        .iter()
        .map(|&(delta, v)| {
            ts = ts.wrapping_add(delta as u64);
            (ts, v)
        })
        .collect()
}

/// The bit-at-a-time reference the byte-wise kernels must match: one
/// MSB-first bit per step, the low `count` bits of `value` only.
fn reference_pack(fields: &[(u64, u8)]) -> (Vec<u8>, usize) {
    let mut bytes = Vec::new();
    let mut len_bits = 0usize;
    for &(value, count) in fields {
        for i in (0..count).rev() {
            if len_bits.is_multiple_of(8) {
                bytes.push(0);
            }
            if (value >> i) & 1 == 1 {
                *bytes.last_mut().unwrap() |= 1 << (7 - len_bits % 8);
            }
            len_bits += 1;
        }
    }
    (bytes, len_bits)
}

/// Bit-exact equality (NaN == NaN, -0.0 != 0.0): the storage engine must
/// return exactly the bytes it was given.
fn assert_points_identical(actual: &[(u64, f64)], expected: &[(u64, f64)]) {
    assert_eq!(actual.len(), expected.len(), "point count");
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(a.0, e.0, "timestamp at {i}");
        assert_eq!(a.1.to_bits(), e.1.to_bits(), "value bits at {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// compress → seal → decode is the identity on any stream.
    #[test]
    fn sealed_block_roundtrips_adversarial_streams(
        start in any::<u64>(),
        steps in proptest::collection::vec(step_strategy(), 0..300),
    ) {
        let points = materialize(start, &steps);
        let mut comp = PointCompressor::new();
        for &(ts, v) in &points {
            comp.append(ts, v);
        }
        let block = comp.encode_block();
        let back = decode_block(&block).unwrap();
        assert_points_identical(&back, &points);
    }

    /// Resuming the durable image of any prefix and appending the rest
    /// writes the same block as appending everything to one compressor.
    #[test]
    fn resumed_tail_continues_like_the_original(
        start in any::<u64>(),
        steps in proptest::collection::vec(step_strategy(), 0..120),
    ) {
        let points = materialize(start, &steps);
        let mut whole = PointCompressor::new();
        for &(ts, v) in &points {
            whole.append(ts, v);
        }
        let expected = whole.encode_block();
        let mut prefix = PointCompressor::new();
        for cut in 0..=points.len() {
            let mut resumed = PointCompressor::resume(&prefix.encode_block()).unwrap();
            assert_eq!(resumed.index(), prefix.index(), "index at cut {}", cut);
            for &(ts, v) in &points[cut..] {
                resumed.append(ts, v);
            }
            assert_eq!(resumed.encode_block(), expected, "cut {}", cut);
            if let Some(&(ts, v)) = points.get(cut) {
                prefix.append(ts, v);
            }
        }
    }

    /// The byte-wise `push_bits`/`read_bits` kernels against the
    /// bit-at-a-time reference: same bytes, same bit length, same fields
    /// back, at every width from 0 to 64 and any alignment.
    #[test]
    fn bit_kernels_match_the_bitwise_reference(
        fields in proptest::collection::vec((any::<u64>(), 0u8..65), 0..64),
    ) {
        let mut w = BitWriter::new();
        for &(value, count) in &fields {
            w.push_bits(value, count);
        }
        let (bytes, len_bits) = w.finish();
        prop_assert_eq!((bytes.clone(), len_bits), reference_pack(&fields));
        let mut r = BitReader::new(&bytes, len_bits);
        for &(value, count) in &fields {
            let masked = if count == 0 { 0 } else { value & (u64::MAX >> (64 - count)) };
            prop_assert_eq!(r.read_bits(count), Some(masked));
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    /// The sparse index must agree with a scalar recomputation — it is
    /// what block skipping trusts, so an error here silently drops data
    /// from range scans.
    #[test]
    fn sparse_index_matches_recomputation(
        start in any::<u64>(),
        steps in proptest::collection::vec(step_strategy(), 1..200),
    ) {
        let points = materialize(start, &steps);
        let mut comp = PointCompressor::new();
        for &(ts, v) in &points {
            comp.append(ts, v);
        }
        let idx = decode_index(&comp.encode_block()).unwrap();
        assert_eq!(idx.count as usize, points.len());
        assert_eq!(idx.min_ts, points.iter().map(|p| p.0).min().unwrap());
        assert_eq!(idx.max_ts, points.iter().map(|p| p.0).max().unwrap());
        let finite: Vec<f64> = points
            .iter()
            .map(|p| p.1)
            .filter(|v| !v.is_nan())
            .collect();
        if !finite.is_empty() {
            let min = finite.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(idx.min_val.to_bits(), min.to_bits());
            assert_eq!(idx.max_val.to_bits(), max.to_bits());
        }
    }

    /// Full-engine property: append in arbitrary batch sizes with an
    /// aggressive seal threshold, scan everything back — identical, in
    /// append order, across block boundaries.
    #[test]
    fn engine_scan_returns_appended_stream(
        start in any::<u64>(),
        steps in proptest::collection::vec(step_strategy(), 0..250),
        batch in 1usize..17,
        seal_every in 1u32..33,
    ) {
        let points = materialize(start, &steps);
        let ts = open_mem(
            &(Arc::new(MemStore::new()) as _),
            // Disable the data-time age trigger: adversarial streams jump
            // epochs, and this property wants count-driven seals only.
            TsConfig { seal_age_ms: u64::MAX, ..TsConfig::sealing_every(seal_every) },
            &MemMedia::new(),
        );
        for chunk in points.chunks(batch) {
            ts.append_batch("s", chunk, b"m").unwrap();
        }
        let back = ts.scan_range("s", 0, u64::MAX, 0).unwrap();
        // Timestamp-filtered scan: u64::MAX-wide range still excludes
        // nothing, so this is the full stream.
        assert_points_identical(&back, &points);
    }

    /// Reopen equivalence: a fresh engine over the same backing store and
    /// WAL sees exactly the committed stream and continues it seamlessly
    /// — down to the bytes of the tail record a checkpoint then writes,
    /// which match those of an engine that never restarted.
    #[test]
    fn engine_survives_reopen_mid_stream(
        start in any::<u64>(),
        steps in proptest::collection::vec(step_strategy(), 2..150),
        split in 1usize..149,
        seal_every in 1u32..17,
    ) {
        let points = materialize(start, &steps);
        let split = split.min(points.len() - 1);
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let config = TsConfig { seal_age_ms: u64::MAX, ..TsConfig::sealing_every(seal_every) };
        let media = MemMedia::new();
        {
            let ts = open_mem(&backing, config, &media);
            ts.append_batch("s", &points[..split], b"before").unwrap();
        } // dropped without checkpoint: the WAL carries the append
        let ts = open_mem(&backing, config, &media);
        let rec = ts.recover("s").unwrap();
        assert_eq!(rec.points as usize, split);
        assert_eq!(rec.meta.as_ref(), b"before");
        ts.append_batch("s", &points[split..], b"after").unwrap();
        let back = ts.scan_range("s", 0, u64::MAX, 0).unwrap();
        assert_points_identical(&back, &points);
        ts.checkpoint().unwrap();

        let unbroken: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let ts = open_mem(&unbroken, config, &MemMedia::new());
        ts.append_batch("s", &points[..split], b"before").unwrap();
        ts.append_batch("s", &points[split..], b"after").unwrap();
        ts.checkpoint().unwrap();
        let tail = Key::with_sort("tseries", "s", "tail");
        assert_eq!(backing.get(&tail).unwrap(), unbroken.get(&tail).unwrap());
    }
}

/// A directory for one WAL, unique per call.
fn temp_wal_dir() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "aodb-tseries-props-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `scan_from(position, limit)` on series `"s"` of `store` is `points`
/// sliced `[position..position + limit]` (`limit` 0: to the end), and the
/// full append-order scan is `points`; a position at or past the end
/// reads nothing.
fn assert_scan_from_slices(
    store: &dyn SeriesStore,
    points: &[(u64, f64)],
    probes: &[(u64, usize)],
) {
    assert_points_identical(&store.scan_range("s", 0, u64::MAX, 0).unwrap(), points);
    for &(position, limit) in probes {
        let from = (position as usize).min(points.len());
        let to = match limit {
            0 => points.len(),
            n => (from + n).min(points.len()),
        };
        let got = store.scan_from("s", position, limit).unwrap();
        assert_points_identical(&got, &points[from..to]);
    }
    let end = points.len() as u64;
    for (position, limit) in [(end, 0), (end, 1), (end + 1, 0), (u64::MAX, 3)] {
        assert!(store.scan_from("s", position, limit).unwrap().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `scan_from` is the append-order scan sliced at a position, on the
    /// reference store and on the engine over either WAL medium — across
    /// seals, a reopen with WAL replay, and a checkpoint.
    #[test]
    fn scan_from_slices_the_append_order_scan(
        start in any::<u64>(),
        steps in proptest::collection::vec(step_strategy(), 1..200),
        batch in 1usize..17,
        seal_every in 1u32..33,
        cuts in (0usize..200, 0usize..200),
        probes in proptest::collection::vec((0u64..210, 0usize..40), 1..12),
    ) {
        let points = materialize(start, &steps);
        let (a, b) = (cuts.0.min(points.len()), cuts.1.min(points.len()));
        let (reopen_at, checkpoint_at) = (a.min(b), a.max(b));
        let config = TsConfig { seal_age_ms: u64::MAX, ..TsConfig::sealing_every(seal_every) };
        let append = |store: &dyn SeriesStore, points: &[(u64, f64)]| {
            for chunk in points.chunks(batch) {
                store.append_batch("s", chunk, b"m").unwrap();
            }
        };

        let reference = ReferenceSeries::new();
        append(&reference, &points);
        assert_scan_from_slices(&reference, &points, &probes);

        // Over an in-memory WAL: reopen over the kept medium mid-stream.
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let media = MemMedia::new();
        append(&open_mem(&backing, config, &media), &points[..reopen_at]);
        let ts = open_mem(&backing, config, &media);
        assert_scan_from_slices(&ts, &points[..reopen_at], &probes);
        append(&ts, &points[reopen_at..]);
        assert_scan_from_slices(&ts, &points, &probes);

        // Over a WAL file: replay mid-stream, then a checkpoint, then more.
        let dir = temp_wal_dir();
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let open = || {
            TsStore::with_wal(Arc::clone(&backing), config, dir.join("s.wal"), WalConfig::default())
                .unwrap()
        };
        append(&open(), &points[..reopen_at]);
        let ts = open();
        assert_scan_from_slices(&ts, &points[..reopen_at], &probes);
        append(&ts, &points[reopen_at..checkpoint_at]);
        ts.checkpoint().unwrap();
        append(&ts, &points[checkpoint_at..]);
        assert_scan_from_slices(&ts, &points, &probes);
        drop(ts);
        assert_scan_from_slices(&open(), &points, &probes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Golden fixture: the exact bytes of one sealed block. Any codec or
/// layout change that alters the on-disk format must consciously update
/// this constant (and consider migration), not drift silently.
#[test]
fn golden_sealed_block_bytes() {
    let points = [
        (1_546_300_800_000u64, 20.0f64), // 2019-01-01T00:00:00Z
        (1_546_300_800_100, 20.0),       // 10 Hz, constant value
        (1_546_300_800_200, 20.5),
        (1_546_300_800_300, 21.0),
        (1_546_300_800_250, f64::NAN), // out of order + NaN
        (1_546_300_800_400, -3.25),
    ];
    let mut comp = PointCompressor::new();
    for &(ts, v) in &points {
        comp.append(ts, v);
    }
    let block = comp.encode_block();
    let hex: String = block.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        concat!(
            // header: magic "TSB1" | count=6 | min_ts | max_ts (LE)
            "54534231",
            "06000000",
            "00bcb50668010000", // 1546300800000
            "90bdb50668010000", // 1546300800400
            // min_val=-3.25 | max_val=21.0 (LE f64; NaN excluded)
            "0000000000000ac0",
            "0000000000003540",
            // payload length in bits = 255
            "ff000000",
            // payload: dod+xor bit stream (zero-padded to the byte);
            // opens with the raw 64-bit first timestamp and value
            "0000016806b5bc004034000000000000cc83400b3c1f4af08dff3764300ebff2",
            // crc32 over everything above
            "11f83279",
        ),
        "sealed-block format drifted — bump the format (new magic) or fix the codec"
    );
    // And the fixture still decodes to the exact input.
    let back = decode_block(&block).unwrap();
    assert_eq!(back.len(), points.len());
    for (a, e) in back.iter().zip(&points) {
        assert_eq!(a.0, e.0);
        assert_eq!(a.1.to_bits(), e.1.to_bits());
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A `MemStore` that also keeps every value `put` through it, in order.
#[derive(Default)]
struct Recorder {
    inner: MemStore,
    puts: Mutex<Vec<(Key, Bytes)>>,
}

impl StateStore for Recorder {
    fn get(&self, key: &Key) -> StoreResult<Option<Bytes>> {
        self.inner.get(key)
    }
    fn put(&self, key: &Key, value: Bytes) -> StoreResult<()> {
        self.puts.lock().unwrap().push((key.clone(), value.clone()));
        self.inner.put(key, value)
    }
    fn delete(&self, key: &Key) -> StoreResult<()> {
        self.inner.delete(key)
    }
    fn scan_prefix(&self, prefix: &[u8]) -> StoreResult<Vec<(Key, Bytes)>> {
        self.inner.scan_prefix(prefix)
    }
}

/// Golden fixture: the exact bytes of a `TST1` tail record that carries
/// a pending sealed block — the record written at the moment a block
/// seals, before the block's own record lands.
#[test]
fn golden_tail_record_with_pending_block_bytes() {
    let backing = Arc::new(Recorder::default());
    let ts = open_mem(
        &(Arc::clone(&backing) as _),
        TsConfig::sealing_every(2),
        &MemMedia::new(),
    );
    let points = [
        (1_546_300_800_000u64, 20.0f64),
        (1_546_300_800_100, 20.5),
        (1_546_300_800_200, 20.5),
    ];
    ts.append_batch("s", &points, b"meta").unwrap();
    let puts = backing.puts.lock().unwrap();
    let (key, record) = &puts[0];
    assert_eq!(key, &Key::with_sort("tseries", "s", "tail"));
    assert_eq!(
        hex(record),
        concat!(
            // magic "TST1" | sealed_blocks=1 | sealed_points=2
            "54535431",
            "0100000000000000",
            "0200000000000000",
            // meta_len=4 | meta "meta"
            "04000000",
            "6d657461",
            // pending_count=1 | seq=0 | len=68
            "01000000",
            "0000000000000000",
            "44000000",
            // the sealed two-point TSB1 block: header (count=2, ts and
            // value range, 155 payload bits), payload, block crc32
            "54534231",
            "02000000",
            "00bcb50668010000",
            "64bcb50668010000",
            "0000000000003440",
            "0000000000803440",
            "9b000000",
            "0000016806b5bc004034000000000000cc8d0020",
            "492f9d02",
            // tail_len=64 | the open tail as a one-point TSB1 block
            "40000000",
            "54534231",
            "01000000",
            "c8bcb50668010000",
            "c8bcb50668010000",
            "0000000000803440",
            "0000000000803440",
            "80000000",
            "0000016806b5bcc84034800000000000",
            "12a9e651",
            // crc32 over everything above
            "d605f274",
        ),
        "TST1 tail-record format drifted"
    );
    // The block's own record follows the tail record that pins it.
    assert_eq!(puts[1].0, Key::with_sort("tseries", "s", "b00000000"));
    assert_eq!(puts[1].1.as_ref(), &record[44..112]);
}

/// Golden fixture: the exact bytes of a group-commit WAL holding one
/// `TSW1` delta — the `len | crc32` frame and the delta it carries.
#[test]
fn golden_wal_delta_bytes() {
    let dir = std::env::temp_dir().join(format!("aodb-tsw-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("ts.wal");
    {
        let ts = TsStore::with_wal(
            Arc::new(MemStore::new()) as Arc<dyn StateStore>,
            TsConfig::default(),
            &path,
            WalConfig::default(),
        )
        .unwrap();
        let points = [(1_546_300_800_000u64, 20.0f64), (1_546_300_800_100, -0.5)];
        ts.append_batch("s", &points, b"m").unwrap();
    }
    let log = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        hex(&log),
        concat!(
            // frame: payload len=58 | crc32 of the payload
            "3a000000",
            "4279df19",
            // magic "TSW1" | base_points=0 | series_len=1 | series "s"
            "54535731",
            "0000000000000000",
            "01000000",
            "73",
            // meta_len=1 | meta "m" | count=2
            "01000000",
            "6d",
            "02000000",
            // (ts u64, value bits u64) per point
            "00bcb506680100000000000000003440",
            "64bcb50668010000000000000000e0bf",
        ),
        "TSW1 delta / WAL frame format drifted"
    );
}

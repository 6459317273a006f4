//! Property-based tests of the time-series codec and engine: round-trip
//! identity over adversarial streams, sparse-index correctness, resume
//! and reopen equivalence, `scan_from` against the append-order scan on
//! every store, the byte-wise bit kernels against a
//! bit-at-a-time reference, the sealed-block layout choice against a
//! reference grid test, golden byte fixtures pinning the on-disk
//! formats (`TSB1` and `TSB2` sealed blocks, `TST1` tail record, `TSW1`
//! WAL delta),
//! and the commit protocol over a recording backing store: block records
//! before the tail records that count them, tail records only from the
//! checkpoint and never with a pending copy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use aodb_chaos::ReferenceSeries;
use aodb_store::tseries::bits::{BitReader, BitWriter};
use aodb_store::tseries::codec::E_MAX;
use aodb_store::tseries::{
    decode_block, decode_index, PointCompressor, SeriesStore, TsConfig, TsStore,
};
use aodb_store::{
    Bytes, Key, LogStore, LogStoreConfig, MemMedia, MemStore, SeriesStats, StateStore, StoreResult,
    WalConfig,
};
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
    /// WAL sees exactly the committed stream, in the blocks an engine that
    /// never restarted has, and continues it seamlessly — down to the
    /// bytes of the tail and block records a checkpoint then writes,
    /// which match those of the unbroken engine.
    #[test]
    fn engine_survives_reopen_mid_stream(
        start in any::<u64>(),
        steps in proptest::collection::vec(step_strategy(), 2..150),
        split in 1usize..149,
        seal_every in 1u32..17,
        quarter in any::<bool>(),
    ) {
        let mut points = materialize(start, &steps);
        // Quarter steps seal as `TSB2` once a block holds a few dozen.
        let seal_every = if quarter {
            on_quarter_steps(&mut points);
            seal_every * 8
        } else {
            seal_every
        };
        let split = split.min(points.len() - 1);
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let config = TsConfig { seal_age_ms: u64::MAX, ..TsConfig::sealing_every(seal_every) };
        let media = MemMedia::new();
        let unbroken_backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let unbroken = open_mem(&unbroken_backing, config, &MemMedia::new());
        unbroken.append_batch("s", &points[..split], b"before").unwrap();
        {
            let ts = open_mem(&backing, config, &media);
            ts.append_batch("s", &points[..split], b"before").unwrap();
        } // dropped without checkpoint: the WAL carries the append
        let ts = open_mem(&backing, config, &media);
        let rec = ts.recover("s").unwrap();
        assert_eq!(rec.points as usize, split);
        assert_eq!(rec.meta.as_ref(), b"before");
        assert_eq!(shape(ts.stats("s")), shape(unbroken.stats("s")));
        ts.append_batch("s", &points[split..], b"after").unwrap();
        unbroken.append_batch("s", &points[split..], b"after").unwrap();
        assert_eq!(shape(ts.stats("s")), shape(unbroken.stats("s")));
        let back = ts.scan_range("s", 0, u64::MAX, 0).unwrap();
        assert_points_identical(&back, &points);

        ts.checkpoint().unwrap();
        unbroken.checkpoint().unwrap();
        let records = |store: &Arc<dyn StateStore>| {
            store.scan_prefix(&Key::partition_prefix("tseries", "s")).unwrap()
        };
        assert_eq!(records(&backing), records(&unbroken_backing));
    }
}

/// Replaces the values of `points` with the benchmark's signal class: a
/// quarter-step triangle wave with a dither bit, on the decimal grid
/// `e` = 2, `step` = 25, so full enough blocks seal as `TSB2`.
fn on_quarter_steps(points: &mut [(u64, f64)]) {
    for (k, p) in points.iter_mut().enumerate() {
        let q = k as u64 % 32;
        let tri = if q < 16 { q } else { 32 - q };
        let dither = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63;
        p.1 = 20.0 + (tri + dither) as f64 * 0.25;
    }
}

/// Every field of a [`SeriesStats`], comparable.
fn shape(stats: SeriesStats) -> (u64, u64, u64, u64, u64) {
    (
        stats.sealed_blocks,
        stats.sealed_points,
        stats.sealed_bytes,
        stats.tail_points,
        stats.tail_bytes,
    )
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

/// `10^e`, exact: parsed from its decimal literal.
fn pow10(e: u8) -> f64 {
    format!("1e{e}").parse().unwrap()
}

/// The grid test, from its definition: the smallest `e` at which every
/// value is `round(v·10^e) / 10^e` bit for bit with the integer below
/// 2^53, and the gcd of the integers' successive differences (1 when
/// they are all equal); `None` when no `e` up to `E_MAX` holds them all.
fn reference_grid(values: &[f64]) -> Option<(u8, u64)> {
    let ints = |e: u8| -> Option<Vec<i64>> {
        let scale = pow10(e);
        values
            .iter()
            .map(|&v| {
                let d = (v * scale).round();
                (d.abs() < 2f64.powi(53) && ((d as i64) as f64 / scale).to_bits() == v.to_bits())
                    .then_some(d as i64)
            })
            .collect()
    };
    let (e, ints) = (0..=E_MAX).find_map(|e| ints(e).map(|d| (e, d)))?;
    let gcd = ints.windows(2).fold(0u64, |g, w| {
        let (mut a, mut b) = (g, w[1].abs_diff(w[0]));
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    });
    Some((e, gcd.max(1)))
}

/// Values on a decimal grid: an exponent up to `E_MAX`, a signed step
/// (0 gives a constant series) and integer counts from a start that may
/// sit right at ±2^53, where the walk can leave the grid.
fn grid_values() -> impl Strategy<Value = Vec<f64>> {
    let start = prop_oneof![
        -1_000_000i64..1_000_000,
        Just((1i64 << 53) - 1),
        Just(1 - (1i64 << 53)),
        any::<i64>().prop_map(|x| x >> 11),
    ];
    let moves = proptest::collection::vec(-3i64..4, 1..300);
    (0u8..E_MAX + 1, -50i64..50, start, moves).prop_map(|(e, step, start, moves)| {
        let scale = pow10(e);
        let mut d = start;
        moves
            .iter()
            .map(|m| {
                let v = d as f64 / scale;
                d = d.saturating_add(m * step);
                v
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A sealed block, on a decimal grid or off it, decodes to its input
    /// bit for bit and is never longer than the `TSB1` image. Off the
    /// grid it is that image; a `TSB2` block carries the smallest grid
    /// exponent and the gcd step of the reference grid test. A tail
    /// resumed from its image at any cut, which finds its step block at
    /// the seal, seals the same bytes as one that encoded it point by
    /// point.
    #[test]
    fn sealed_block_is_exact_never_larger_and_xor_off_the_grid(
        start in any::<u64>(),
        steps in proptest::collection::vec(step_strategy(), 1..300),
        grid in grid_values(),
        on_grid in any::<bool>(),
        special in (any::<usize>(), 0usize..16),
        cut in any::<usize>(),
    ) {
        let mut points = materialize(start, &steps);
        if on_grid {
            points.truncate(grid.len());
            for (p, &v) in points.iter_mut().zip(&grid) {
                p.1 = v;
            }
        }
        // One case in four puts an IEEE special in the block.
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        if let Some(&v) = specials.get(special.1) {
            let n = points.len();
            points[special.0 % n].1 = v;
        }
        let mut comp = PointCompressor::new();
        for &(ts, v) in &points {
            comp.append(ts, v);
        }
        let xor = comp.encode_block();
        let sealed = comp.seal_block();
        let cut = cut % (points.len() + 1);
        let mut prefix = PointCompressor::new();
        for &(ts, v) in &points[..cut] {
            prefix.append(ts, v);
        }
        let mut resumed = PointCompressor::resume(&prefix.encode_block()).unwrap();
        for &(ts, v) in &points[cut..] {
            resumed.append(ts, v);
        }
        prop_assert_eq!(&resumed.seal_block(), &sealed);
        assert_points_identical(&decode_block(&sealed).unwrap(), &points);
        prop_assert_eq!(decode_index(&sealed).unwrap(), *comp.index());
        prop_assert!(sealed.len() <= xor.len(), "{} > {}", sealed.len(), xor.len());
        let values: Vec<f64> = points.iter().map(|p| p.1).collect();
        match reference_grid(&values) {
            None => prop_assert_eq!(&sealed, &xor, "off the grid seals as TSB1"),
            Some((e, step)) if &sealed[..4] == b"TSB2" => {
                prop_assert_eq!(sealed[40], e);
                prop_assert_eq!(u64::from_le_bytes(sealed[41..49].try_into().unwrap()), step);
            }
            Some(_) => prop_assert_eq!(&sealed, &xor),
        }
    }
}

/// The benchmark's signal class, a 10 Hz quarter-step triangle wave with
/// a dither bit, seals in integer steps at about 0.65 B/point, 40 %
/// under its XOR image.
#[test]
fn quarter_step_stream_seals_in_steps() {
    let mut points: Vec<(u64, f64)> = (0..512)
        .map(|k| (1_700_000_000_000 + k * 100, 0.0))
        .collect();
    on_quarter_steps(&mut points);
    let mut comp = PointCompressor::new();
    for &(ts, v) in &points {
        comp.append(ts, v);
    }
    let (xor, sealed) = (comp.encode_block(), comp.seal_block());
    assert_eq!(&sealed[..4], b"TSB2");
    assert_eq!((sealed[40], &sealed[41..49]), (2, &25u64.to_le_bytes()[..]));
    assert!(
        sealed.len() * 10 < xor.len() * 7,
        "{} vs {}",
        sealed.len(),
        xor.len()
    );
    assert!((sealed.len() as f64 / 512.0) < 0.7, "{} B", sealed.len());
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

/// Golden fixture: the exact bytes of one sealed `TSB2` block — values
/// with one decimal, so `e` = 1 and `step` = 1, 81 bytes where the
/// `TSB1` image of the same points takes 107.
#[test]
fn golden_step_block_bytes() {
    let points = [
        (1_546_300_800_000u64, 21.5f64), // 2019-01-01T00:00:00Z
        (1_546_300_800_100, 21.7),       // 10 Hz, +2 steps
        (1_546_300_800_200, 21.9),       // +2
        (1_546_300_800_300, 22.0),       // +1
        (1_546_300_800_250, 21.8),       // out of order, −2
        (1_546_300_800_400, 21.6),       // −2
    ];
    let mut comp = PointCompressor::new();
    for &(ts, v) in &points {
        comp.append(ts, v);
    }
    let block = comp.seal_block();
    assert_eq!(comp.encode_block().len(), 107);
    assert_eq!(
        hex(&block),
        concat!(
            // header: magic "TSB2" | count=6 | min_ts | max_ts (LE)
            "54534232",
            "06000000",
            "00bcb50668010000", // 1546300800000
            "90bdb50668010000", // 1546300800400
            // min_val=21.5 | max_val=22.0 (LE f64)
            "0000000000803540",
            "0000000000003640",
            // e=1 | step=1 (LE u64)
            "01",
            "0100000000000000",
            // payload length in bits = 189
            "bd000000",
            // payload: the raw first timestamp and first integer (215),
            // then per point its dod code and its step code: `11001`
            // (+2), `11001`, `101` (+1), `11000` (−2), `11000`
            "0000016806b5bc0000000000000000d7cc8cb2ba578d90c0",
            // crc32 over everything above
            "ed410e56",
        ),
        "step-block format drifted — bump the format (new magic) or fix the codec"
    );
    assert_points_identical(&decode_block(&block).unwrap(), &points);
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

impl Recorder {
    /// The records put from the `from`-th on.
    fn puts_since(&self, from: usize) -> Vec<(Key, Bytes)> {
        self.puts.lock().unwrap()[from..].to_vec()
    }

    fn put_count(&self) -> usize {
        self.puts.lock().unwrap().len()
    }

    /// Checks every tail record put from the `from`-th put on: it carries
    /// no pending copy, and each block it counts had its record put
    /// before it.
    fn check_tail_records(&self, from: usize) {
        let puts = self.puts.lock().unwrap();
        for (i, (key, record)) in puts.iter().enumerate().skip(from) {
            let Some(series) = tail_series(key) else {
                continue;
            };
            let sealed_blocks = u64::from_le_bytes(record[4..12].try_into().unwrap());
            let meta_len = u32::from_le_bytes(record[20..24].try_into().unwrap()) as usize;
            let pending =
                u32::from_le_bytes(record[24 + meta_len..28 + meta_len].try_into().unwrap());
            assert_eq!(
                pending, 0,
                "tail record {i} of {series} carries a pending copy"
            );
            for seq in 0..sealed_blocks {
                let block = Key::with_sort("tseries", &series, &format!("b{seq:08}"));
                assert!(
                    puts[..i].iter().any(|(k, _)| *k == block),
                    "tail record {i} of {series} counts block {seq} before its record"
                );
            }
        }
    }
}

/// The series whose tail record `key` names, if it names one.
fn tail_series(key: &Key) -> Option<String> {
    ["s", "t"]
        .into_iter()
        .find(|s| *key == Key::with_sort("tseries", s, "tail"))
        .map(str::to_owned)
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

/// The three points of the tail-record fixtures, sealing every 2.
const TAIL_POINTS: [(u64, f64); 3] = [
    (1_546_300_800_000, 20.0),
    (1_546_300_800_100, 20.5),
    (1_546_300_800_200, 20.5),
];

/// Golden fixture: the exact bytes of a `TST1` tail record that carries
/// a pending sealed block — the record earlier engines wrote at the
/// moment a block sealed, before the block's own record landed. This
/// engine writes none, but still reads them.
const TAIL_RECORD_WITH_PENDING_BLOCK: &str = concat!(
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
);

/// Golden fixture: the exact bytes of the `TST1` tail record the
/// checkpoint writes for [`TAIL_POINTS`] — no pending copy, after the
/// record of the block it counts.
const TAIL_RECORD: &str = concat!(
    // magic "TST1" | sealed_blocks=1 | sealed_points=2
    "54535431",
    "0100000000000000",
    "0200000000000000",
    // meta_len=4 | meta "meta"
    "04000000",
    "6d657461",
    // pending_count=0
    "00000000",
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
    "a51e4475",
);

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// The golden tail records: a sealing append puts only its block record,
/// and the checkpoint then puts the tail record that counts it — the
/// block of the same bytes that [`TAIL_RECORD_WITH_PENDING_BLOCK`]
/// carries inline.
#[test]
fn golden_tail_record_with_pending_block_bytes() {
    let backing = Arc::new(Recorder::default());
    let ts = open_mem(
        &(Arc::clone(&backing) as _),
        TsConfig::sealing_every(2),
        &MemMedia::new(),
    );
    ts.append_batch("s", &TAIL_POINTS, b"meta").unwrap();
    let block = Key::with_sort("tseries", "s", "b00000000");
    let pending = unhex(TAIL_RECORD_WITH_PENDING_BLOCK);
    let puts = backing.puts_since(0);
    assert_eq!(
        puts.len(),
        1,
        "the seal puts its block record and nothing else"
    );
    assert_eq!(puts[0].0, block);
    assert_eq!(puts[0].1.as_ref(), &pending[44..112]);

    ts.checkpoint().unwrap();
    let puts = backing.puts_since(1);
    assert_eq!(
        puts.len(),
        1,
        "the block is written, so only the tail record is put"
    );
    assert_eq!(puts[0].0, Key::with_sort("tseries", "s", "tail"));
    assert_eq!(
        hex(&puts[0].1),
        TAIL_RECORD,
        "TST1 tail-record format drifted"
    );
    // The pending-free record is the pending one without its pending
    // entry, up to the CRC.
    assert_eq!(&unhex(TAIL_RECORD)[..28], &pending[..28]);
    assert_eq!(&unhex(TAIL_RECORD)[32..100], &pending[112..180]);
}

/// Read compatibility: a tail record an earlier engine wrote at a seal,
/// whose block record never landed. A fresh engine recovers its points,
/// repairs the block record from the pending copy, and its next
/// checkpoint rewrites the tail record without the copy.
#[test]
fn tail_record_with_a_pending_copy_recovers_and_is_rewritten_without_it() {
    let backing = Arc::new(Recorder::default());
    let pending = unhex(TAIL_RECORD_WITH_PENDING_BLOCK);
    let tail = Key::with_sort("tseries", "s", "tail");
    let block = Key::with_sort("tseries", "s", "b00000000");
    backing
        .inner
        .put(&tail, Bytes::from(pending.clone()))
        .unwrap();
    let ts = open_mem(
        &(Arc::clone(&backing) as _),
        TsConfig::sealing_every(2),
        &MemMedia::new(),
    );
    let rec = ts.recover("s").unwrap();
    assert_eq!((rec.points, rec.meta.as_ref()), (3, &b"meta"[..]));
    assert_points_identical(&ts.scan_range("s", 0, u64::MAX, 0).unwrap(), &TAIL_POINTS);
    assert_eq!(
        backing.puts_since(0),
        vec![(block.clone(), Bytes::copy_from_slice(&pending[44..112]))]
    );

    ts.checkpoint().unwrap();
    assert_eq!(
        backing.puts_since(1),
        vec![(tail, Bytes::from(unhex(TAIL_RECORD)))]
    );
    drop(ts);
    let cold = open_mem(
        &(backing as _),
        TsConfig::sealing_every(2),
        &MemMedia::new(),
    );
    assert_points_identical(&cold.scan_range("s", 0, u64::MAX, 0).unwrap(), &TAIL_POINTS);
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

/// One step of a commit-protocol script over series `"s"` and `"t"`.
#[derive(Clone, Debug)]
enum Op {
    /// Appends this many points to series 0 or 1, in one batch.
    Append(usize, usize),
    /// Force-seals series 0 or 1.
    Seal(usize),
    Checkpoint,
    /// Drops the engine without a checkpoint and opens a fresh one over
    /// the same backing store and WAL medium.
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Two appends in three steps; the rest split evenly.
    (0u8..9, 0usize..2, 1usize..12).prop_map(|(kind, s, n)| match kind {
        0 => Op::Seal(s),
        1 => Op::Checkpoint,
        2 => Op::Reopen,
        _ => Op::Append(s, n),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The commit protocol, over a recording backing store: appends and
    /// force seals put block records only; every tail record — all of
    /// them the checkpoint's — carries no pending copy and follows the
    /// records of every block it counts; scans equal the appended stream
    /// after every step; and after every checkpoint the backing store
    /// alone recovers it.
    #[test]
    fn tail_records_come_only_from_the_checkpoint_after_their_blocks(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        seal_every in 1u32..10,
    ) {
        const SERIES: [&str; 2] = ["s", "t"];
        let config = TsConfig { seal_age_ms: u64::MAX, ..TsConfig::sealing_every(seal_every) };
        let recorder = Arc::new(Recorder::default());
        let backing: Arc<dyn StateStore> = Arc::clone(&recorder) as _;
        let media = MemMedia::new();
        let mut ts = open_mem(&backing, config, &media);
        let mut model: [Vec<(u64, f64)>; 2] = Default::default();
        for op in ops {
            let from = recorder.put_count();
            match op {
                Op::Append(s, n) => {
                    let base = model[s].len() as u64;
                    let points: Vec<(u64, f64)> =
                        (base..base + n as u64).map(|i| (1_000 + i * 100, (i % 7) as f64 * 0.5)).collect();
                    ts.append_batch(SERIES[s], &points, b"m").unwrap();
                    model[s].extend(points);
                }
                Op::Seal(s) => ts.seal(SERIES[s]).unwrap(),
                Op::Checkpoint => ts.checkpoint().unwrap(),
                Op::Reopen => {
                    drop(ts);
                    ts = open_mem(&backing, config, &media);
                }
            }
            recorder.check_tail_records(from);
            if !matches!(op, Op::Checkpoint) {
                for (key, _) in recorder.puts_since(from) {
                    prop_assert!(tail_series(&key).is_none(), "{:?} put a tail record", op);
                }
            }
            for (s, name) in SERIES.iter().enumerate() {
                assert_points_identical(&ts.scan_range(name, 0, u64::MAX, 0).unwrap(), &model[s]);
            }
            if matches!(op, Op::Checkpoint) {
                let cold = open_mem(&backing, config, &MemMedia::new());
                for (s, name) in SERIES.iter().enumerate() {
                    assert_points_identical(&cold.scan_range(name, 0, u64::MAX, 0).unwrap(), &model[s]);
                }
            }
        }
    }
}

/// One single-threaded script of appends, force seals and checkpoints
/// over twelve series, run twice over two fresh `LogStore` directories,
/// writes byte-identical logs: the checkpoint sweeps its dirty series in
/// name order, not in the order of a hash set.
#[test]
fn one_script_writes_one_log() {
    let run = || {
        let dir = temp_wal_dir();
        {
            let backing = LogStore::open(LogStoreConfig::new(dir.join("store"))).unwrap();
            let ts = TsStore::with_wal(
                Arc::new(backing) as Arc<dyn StateStore>,
                TsConfig::sealing_every(16),
                dir.join("ts.wal"),
                WalConfig::default(),
            )
            .unwrap();
            for round in 0..20u64 {
                for s in 0..12u64 {
                    let points: Vec<(u64, f64)> = (round * 5..round * 5 + 5)
                        .map(|i| (i * 100, (i + s) as f64))
                        .collect();
                    let meta = format!("round-{round}");
                    ts.append_batch(&format!("series-{s:02}"), &points, meta.as_bytes())
                        .unwrap();
                }
                if round % 7 == 3 {
                    ts.seal("series-05").unwrap();
                }
                if round % 4 == 1 {
                    ts.checkpoint().unwrap();
                }
            }
        }
        let logs = (
            std::fs::read(dir.join("store").join("wal.log")).unwrap(),
            std::fs::read(dir.join("ts.wal")).unwrap(),
        );
        let _ = std::fs::remove_dir_all(&dir);
        logs
    };
    let (first, second) = (run(), run());
    assert!(!first.0.is_empty() && !first.1.is_empty());
    assert!(first.0 == second.0, "the LogStore logs differ");
    assert!(first.1 == second.1, "the tseries WALs differ");
}

//! The durable record formats against their decoders, from the outside:
//! golden bytes of the `LogStore` mutation records, and the strict-prefix
//! property — every strict prefix of a valid `TSB1` block, `TST1` tail
//! record, `TSW1` delta or `LogStore` mutation is rejected as an error,
//! never decoded and never a panic. (A strict prefix of a whole
//! `len | crc | payload` frame is a torn tail, which recovery truncates
//! by design; `wal_props.rs` covers that. Here each truncated payload is
//! re-framed with a valid CRC, so only the payload decoder can refuse it.)

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aodb_store::codec::frame_record;
use aodb_store::tseries::{decode_block, decode_index, PointCompressor, SeriesStore};
use aodb_store::{
    Bytes, Key, LogStore, LogStoreConfig, MemStore, StateStore, TsConfig, TsStore, WalConfig,
};
use proptest::prelude::*;

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aodb-codec-props-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Golden fixture: the exact bytes a `put` and a `delete` leave in a
/// `LogStore`'s `wal.log`.
#[test]
fn golden_log_store_put_and_delete_records() {
    let dir = temp_dir("golden");
    {
        let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
        store
            .put(&Key::new("t", "k"), Bytes::from_static(b"v1"))
            .unwrap();
        store.delete(&Key::new("t", "k")).unwrap();
    }
    let log = std::fs::read(dir.join("wal.log")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        hex(&log),
        concat!(
            // put: frame len=15 | crc32 | op=1 | key_len=4 | key "t\0\0k"
            // | value_len=2 | value "v1"
            "0f000000", "a815e464", "01", "04000000", "7400006b", "02000000", "7631",
            // delete: frame len=13 | crc32 | op=2 | key_len=4 | key
            // | value_len=0
            "0d000000", "8011d6aa", "02", "04000000", "7400006b", "00000000",
        ),
        "LogStore mutation-record format drifted"
    );
}

/// The `(timestamp, value)` points a generated case encodes.
fn points() -> impl Strategy<Value = Vec<(u64, f64)>> {
    proptest::collection::vec((any::<u64>(), any::<f64>()), 1..12)
}

/// The bytes of the tail record `TsStore` commits for `points` with
/// `meta`, sealing every `seal_every` points (so the record may carry
/// pending blocks as well as an open tail).
fn tail_record(points: &[(u64, f64)], meta: &[u8], seal_every: u32) -> Bytes {
    let backing = Arc::new(MemStore::new());
    let config = TsConfig {
        seal_age_ms: u64::MAX,
        ..TsConfig::sealing_every(seal_every)
    };
    let ts = TsStore::new(Arc::clone(&backing) as Arc<dyn StateStore>, config);
    ts.append_batch("s", points, meta).unwrap();
    backing
        .get(&Key::with_sort("tseries", "s", "tail"))
        .unwrap()
        .unwrap()
}

/// The payload of the one `TSW1` frame a WAL-mode append of `points`
/// with `meta` leaves in the log.
fn wal_delta(points: &[(u64, f64)], meta: &[u8]) -> Vec<u8> {
    let dir = temp_dir("tsw");
    let path = dir.join("ts.wal");
    {
        let ts = TsStore::with_wal(
            Arc::new(MemStore::new()) as Arc<dyn StateStore>,
            TsConfig::default(),
            &path,
            WalConfig::default(),
        )
        .unwrap();
        ts.append_batch("series", points, meta).unwrap();
    }
    let log = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    log[8..].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every strict prefix of every durable record's valid encoding is an
    /// error — not a shorter record, not a panic. The full encoding
    /// still decodes, so the rejection is the truncation's doing.
    #[test]
    fn every_strict_prefix_of_a_record_is_an_error(
        points in points(),
        meta in proptest::collection::vec(any::<u8>(), 0..16),
        seal_every in 1u32..8,
        key in proptest::collection::vec(any::<u8>(), 0..12),
        value in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        // TSB1 sealed block. (The empty string is the valid encoding of
        // an empty block, so `decode_block` accepts the empty prefix;
        // `decode_index` refuses it like every other.)
        let mut comp = PointCompressor::new();
        for &(ts, v) in &points {
            comp.append(ts, v);
        }
        let block = comp.encode_block();
        prop_assert!(decode_block(&block).is_ok());
        for cut in 0..block.len() {
            prop_assert!(decode_index(&block[..cut]).is_err(), "TSB1 index cut at {}", cut);
            if cut > 0 {
                prop_assert!(decode_block(&block[..cut]).is_err(), "TSB1 cut at {}", cut);
            }
        }

        // TST1 tail record, read back through recovery.
        let record = tail_record(&points, &meta, seal_every);
        for cut in 0..=record.len() {
            let backing = MemStore::new();
            backing
                .put(&Key::with_sort("tseries", "s", "tail"), Bytes::copy_from_slice(&record[..cut]))
                .unwrap();
            let ts = TsStore::with_defaults(Arc::new(backing) as Arc<dyn StateStore>);
            let recovered = ts.recover("s");
            if cut == record.len() {
                prop_assert_eq!(recovered.unwrap().points, points.len() as u64);
            } else {
                prop_assert!(recovered.is_err(), "TST1 cut at {}", cut);
            }
        }

        // TSW1 delta, re-framed with a valid CRC and replayed on open.
        let delta = wal_delta(&points, &meta);
        let dir = temp_dir("tsw-cut");
        let path = dir.join("ts.wal");
        std::fs::create_dir_all(&dir).unwrap();
        for cut in 0..=delta.len() {
            let mut log = Vec::new();
            frame_record(&delta[..cut], &mut log);
            std::fs::write(&path, &log).unwrap();
            let opened = TsStore::with_wal(
                Arc::new(MemStore::new()) as Arc<dyn StateStore>,
                TsConfig::default(),
                &path,
                WalConfig::default(),
            );
            if cut == delta.len() {
                prop_assert_eq!(opened.unwrap().recover("series").unwrap().points, points.len() as u64);
            } else {
                prop_assert!(opened.is_err(), "TSW1 cut at {}", cut);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        // LogStore mutation record, re-framed and replayed on open.
        let dir = temp_dir("log");
        let key = Key::new("k", &hex(&key));
        {
            let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
            store.put(&key, Bytes::from(value.clone())).unwrap();
        }
        let log = std::fs::read(dir.join("wal.log")).unwrap();
        let payload = &log[8..];
        for cut in 0..=payload.len() {
            let mut cut_log = Vec::new();
            frame_record(&payload[..cut], &mut cut_log);
            std::fs::write(dir.join("wal.log"), &cut_log).unwrap();
            let opened = LogStore::open(LogStoreConfig::new(&dir));
            if cut == payload.len() {
                prop_assert_eq!(opened.unwrap().get(&key).unwrap(), Some(Bytes::from(value.clone())));
            } else {
                prop_assert!(opened.is_err(), "mutation record cut at {}", cut);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Crash/restart recovery of the time-series engine over the durable
//! [`LogStore`] backing and a WAL file next to it: every acknowledged
//! append must survive an unclean process death, including across
//! `LogStore` compactions and with sealed blocks that only exist inside
//! the tail record.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use aodb_store::tseries::{SeriesStore, TsConfig, TsStore};
use aodb_store::{LogStore, LogStoreConfig, StateStore, WalConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aodb-tseries-recovery-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_backing(dir: &Path, compact_threshold: u64) -> Arc<dyn StateStore> {
    Arc::new(
        LogStore::open(LogStoreConfig {
            dir: dir.to_path_buf(),
            compact_threshold,
        })
        .unwrap(),
    )
}

/// The engine over the `LogStore` in `dir` and the WAL file beside it.
fn open_engine(dir: &Path, compact_threshold: u64, config: TsConfig) -> TsStore {
    TsStore::with_wal(
        open_backing(dir, compact_threshold),
        config,
        dir.join("ts_wal.log"),
        WalConfig::default(),
    )
    .unwrap()
}

fn pts(range: std::ops::Range<u64>) -> Vec<(u64, f64)> {
    range.map(|i| (i * 100, (i as f64).sin() * 50.0)).collect()
}

#[test]
fn unclean_restart_replays_tail_and_blocks() {
    let dir = temp_dir("restart");
    let all = pts(0..500);
    {
        let ts = open_engine(&dir, 16 * 1024 * 1024, TsConfig::sealing_every(64));
        for (i, chunk) in all.chunks(7).enumerate() {
            ts.append_batch("ch", chunk, format!("seq={i}").as_bytes())
                .unwrap();
        }
        // No seal(), no flush, no graceful anything: the process "dies".
    }
    let ts = open_engine(&dir, 16 * 1024 * 1024, TsConfig::sealing_every(64));
    let rec = ts.recover("ch").unwrap();
    assert_eq!(rec.points, 500);
    assert_eq!(rec.meta.as_ref(), b"seq=71", "last committed sidecar");
    let back = ts.scan_range("ch", 0, u64::MAX, 0).unwrap();
    assert_eq!(back, all);
    // Sealed shape survived too: 500 points at 64/block.
    let stats = ts.stats("ch");
    assert_eq!(stats.sealed_blocks, 500 / 64);
    assert_eq!(stats.sealed_points + stats.tail_points, 500);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_survives_wal_compaction_cycles() {
    let dir = temp_dir("compact");
    // A realistic quantized sensor signal (ADCs emit fixed-step values;
    // XOR compression thrives on the resulting shared mantissa bits) —
    // the chaotic full-mantissa stream is covered by the other tests.
    let all: Vec<(u64, f64)> = (0..2_000u64)
        .map(|i| (i * 100, 20.0 + (i % 16) as f64 * 0.25))
        .collect();
    {
        // Tiny compaction threshold: the `LogStore` snapshots while the
        // seals overwrite tail records, so recovery exercises its
        // snapshot + log merge path, not just a linear log replay.
        let ts = open_engine(&dir, 8 * 1024, TsConfig::sealing_every(128));
        for chunk in all.chunks(10) {
            ts.append_batch("ch", chunk, b"m").unwrap();
        }
    }
    let ts = open_engine(&dir, 8 * 1024, TsConfig::sealing_every(128));
    assert_eq!(ts.recover("ch").unwrap().points, 2_000);
    assert_eq!(ts.scan_range("ch", 0, u64::MAX, 0).unwrap(), all);

    // At rest (post-compaction) the dominant cost is the sealed blocks:
    // a smooth 10 Hz stream must land well under the 4 bytes/point
    // acceptance ceiling.
    let stats = ts.stats("ch");
    let bytes_per_point = stats.sealed_bytes as f64 / stats.sealed_points as f64;
    assert!(
        bytes_per_point < 4.0,
        "sealed storage too fat: {bytes_per_point:.2} bytes/point"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The benchmark's signal class — fixed quarter steps on a triangle wave
/// with a dither bit — seals in integer steps: below 0.75 bytes/point
/// at rest, where XOR codes alone take about 1.07, and the same after an
/// unclean restart has replayed and re-sealed it.
#[test]
fn quarter_step_stream_seals_below_three_quarters_of_a_byte_per_point() {
    let dir = temp_dir("quarter");
    let all: Vec<(u64, f64)> = (0..5_120u64)
        .map(|k| {
            let q = k % 32;
            let tri = if q < 16 { q } else { 32 - q };
            let dither = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63;
            (k * 100, 20.0 + (tri + dither) as f64 * 0.25)
        })
        .collect();
    let bytes_per_point = |ts: &TsStore| {
        let stats = ts.stats("ch");
        assert_eq!(stats.sealed_points, 5_120);
        stats.sealed_bytes as f64 / stats.sealed_points as f64
    };
    let before = {
        let ts = open_engine(&dir, 16 * 1024 * 1024, TsConfig::default());
        for chunk in all.chunks(10) {
            ts.append_batch("ch", chunk, b"m").unwrap();
        }
        bytes_per_point(&ts)
    };
    assert!(
        before < 0.75,
        "sealed quarter steps: {before:.3} bytes/point"
    );
    let ts = open_engine(&dir, 16 * 1024 * 1024, TsConfig::default());
    assert_eq!(ts.scan_range("ch", 0, u64::MAX, 0).unwrap(), all);
    assert_eq!(bytes_per_point(&ts), before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_crash_restart_cycles_accumulate_exactly() {
    let dir = temp_dir("cycles");
    let all = pts(0..600);
    let mut written = 0usize;
    for cycle in 0..6 {
        let ts = open_engine(&dir, 64 * 1024, TsConfig::sealing_every(32));
        let rec = ts.recover("ch").unwrap();
        assert_eq!(
            rec.points as usize, written,
            "cycle {cycle} lost or duplicated points"
        );
        let next = (written + 100).min(all.len());
        ts.append_batch("ch", &all[written..next], b"cycle")
            .unwrap();
        written = next;
        // Engine dropped uncleanly at the end of every cycle.
    }
    let ts = open_engine(&dir, 64 * 1024, TsConfig::sealing_every(32));
    assert_eq!(ts.scan_range("ch", 0, u64::MAX, 0).unwrap(), all);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One hand-built `TSW1` delta: `magic | base_points u64 | series | meta
/// | count u32 | points`, with `count` and the point bytes free to
/// disagree.
fn delta(magic: &[u8; 4], series: &[u8], count: u32, point_bytes: usize) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(&(series.len() as u32).to_le_bytes());
    out.extend_from_slice(series);
    out.extend_from_slice(&2u32.to_le_bytes());
    out.extend_from_slice(b"mm");
    out.extend_from_slice(&count.to_le_bytes());
    out.extend((0..point_bytes).map(|i| i as u8));
    out
}

/// Every field of every delta is checked when the log is opened, not at
/// the series' first touch: a log with one malformed delta behind a
/// well-formed one is refused by `with_wal` itself, with the typed error
/// of the field at fault.
#[test]
fn malformed_wal_deltas_are_refused_at_open() {
    use aodb_store::codec::frame_record;
    use aodb_store::{MemStore, StoreError, WalConfig};

    let mut trailing = delta(b"TSW1", b"bad", 1, 16);
    trailing.push(0);
    let cases: [(&str, Vec<u8>); 4] = [
        (
            "point bytes are not count x 16",
            delta(b"TSW1", b"bad", 2, 24),
        ),
        (
            "series name is not utf-8",
            delta(b"TSW1", &[0xff, 0xfe], 1, 16),
        ),
        ("bumped version byte", delta(b"TSW2", b"bad", 1, 16)),
        ("trailing bytes after the points", trailing),
    ];
    for (i, (what, bad)) in cases.into_iter().enumerate() {
        let dir = temp_dir(&format!("malformed-{i}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ts_wal.log");
        let mut log = Vec::new();
        frame_record(&delta(b"TSW1", b"good", 1, 16), &mut log);
        frame_record(&bad, &mut log);
        std::fs::write(&path, &log).unwrap();

        let opened = TsStore::with_wal(
            Arc::new(MemStore::new()),
            TsConfig::default(),
            &path,
            WalConfig::default(),
        );
        match (i, opened) {
            (2, Err(StoreError::UnsupportedVersion(msg))) => assert!(msg.contains("TSW"), "{msg}"),
            (0 | 1 | 3, Err(StoreError::Corrupt(_))) => {}
            (_, Err(e)) => panic!("{what}: wrong error {e:?}"),
            (_, Ok(_)) => panic!("{what}: the open accepted a malformed delta"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Crash/restart recovery of the time-series engine over the durable
//! [`LogStore`] backing: every acknowledged append must survive an
//! unclean process death, including across WAL compactions and with
//! sealed blocks that only exist inside the tail record.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use aodb_store::tseries::{SeriesStore, TsConfig, TsStore};
use aodb_store::{LogStore, LogStoreConfig, StateStore};

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

fn pts(range: std::ops::Range<u64>) -> Vec<(u64, f64)> {
    range.map(|i| (i * 100, (i as f64).sin() * 50.0)).collect()
}

#[test]
fn unclean_restart_replays_tail_and_blocks() {
    let dir = temp_dir("restart");
    let all = pts(0..500);
    {
        let ts = TsStore::new(
            open_backing(&dir, 16 * 1024 * 1024),
            TsConfig::sealing_every(64),
        );
        for (i, chunk) in all.chunks(7).enumerate() {
            ts.append_batch("ch", chunk, format!("seq={i}").as_bytes())
                .unwrap();
        }
        // No seal(), no flush, no graceful anything: the process "dies".
    }
    let ts = TsStore::new(
        open_backing(&dir, 16 * 1024 * 1024),
        TsConfig::sealing_every(64),
    );
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
        // Tiny compaction threshold: the WAL snapshots repeatedly while
        // tail records are being overwritten, so recovery exercises the
        // snapshot + WAL merge path, not just a linear log replay.
        let ts = TsStore::new(open_backing(&dir, 8 * 1024), TsConfig::sealing_every(128));
        for chunk in all.chunks(10) {
            ts.append_batch("ch", chunk, b"m").unwrap();
        }
    }
    let ts = TsStore::new(open_backing(&dir, 8 * 1024), TsConfig::sealing_every(128));
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

#[test]
fn repeated_crash_restart_cycles_accumulate_exactly() {
    let dir = temp_dir("cycles");
    let all = pts(0..600);
    let mut written = 0usize;
    for cycle in 0..6 {
        let ts = TsStore::new(open_backing(&dir, 64 * 1024), TsConfig::sealing_every(32));
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
    let ts = TsStore::new(open_backing(&dir, 64 * 1024), TsConfig::sealing_every(32));
    assert_eq!(ts.scan_range("ch", 0, u64::MAX, 0).unwrap(), all);
    let _ = std::fs::remove_dir_all(&dir);
}

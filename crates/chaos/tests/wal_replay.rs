//! Recovery of a `TsStore::with_wal` log shared between threads: the log
//! is read once at open and every series' deltas are applied from that
//! one buffer at the series' first touch. Two threads recover disjoint
//! halves of the replayed series while a third appends to other series,
//! and every series must then scan exactly like a [`ReferenceSeries`]
//! fed the same appends.

use std::path::PathBuf;
use std::sync::Arc;

use aodb_chaos::ReferenceSeries;
use aodb_store::tseries::{SeriesStore, TsConfig, TsStore};
use aodb_store::{MemStore, StateStore, WalConfig};

const REPLAYED: usize = 200;
const FRESH: usize = 50;

fn temp_wal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aodb-wal-replay-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("ts_wal.log")
}

fn open(backing: &Arc<dyn StateStore>, path: &PathBuf) -> TsStore {
    // Seals every 32 points, so some deltas of every series are covered
    // by a tail record written at seal time and must be skipped.
    TsStore::with_wal(
        Arc::clone(backing),
        TsConfig::sealing_every(32),
        path,
        WalConfig::default(),
    )
    .unwrap()
}

/// `n` points of series `s`, batch `b`.
fn batch(s: usize, b: usize, n: usize) -> Vec<(u64, f64)> {
    (0..n)
        .map(|i| {
            let k = (b * n + i) as u64;
            (k * 100 + s as u64, (s * 1000) as f64 + k as f64 * 0.5)
        })
        .collect()
}

fn append(
    ts: &TsStore,
    reference: &ReferenceSeries,
    name: &str,
    points: &[(u64, f64)],
    meta: &str,
) {
    ts.append_batch(name, points, meta.as_bytes()).unwrap();
    reference
        .append_batch(name, points, meta.as_bytes())
        .unwrap();
}

fn assert_same(ts: &TsStore, reference: &ReferenceSeries, name: &str) {
    assert_eq!(
        ts.scan_range(name, 0, u64::MAX, 0).unwrap(),
        reference.scan_range(name, 0, u64::MAX, 0).unwrap(),
        "{name}: scan differs from the reference"
    );
    let (got, want) = (ts.recover(name).unwrap(), reference.recover(name).unwrap());
    assert_eq!((got.points, got.meta), (want.points, want.meta), "{name}");
}

#[test]
fn shared_replay_buffer_recovers_disjoint_series_in_parallel() {
    let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let path = temp_wal("parallel");
    let reference = Arc::new(ReferenceSeries::new());
    let replayed: Vec<String> = (0..REPLAYED).map(|s| format!("r{s:03}")).collect();
    {
        let ts = open(&backing, &path);
        for b in 0..5 {
            for (s, name) in replayed.iter().enumerate() {
                append(
                    &ts,
                    &reference,
                    name,
                    &batch(s, b, 10),
                    &format!("{name}/{b}"),
                );
            }
        }
        // No checkpoint: the process dies with every delta in the log.
    }

    let ts = Arc::new(open(&backing, &path));
    let (low, high) = replayed.split_at(REPLAYED / 2);
    std::thread::scope(|scope| {
        for half in [low, high] {
            let ts = Arc::clone(&ts);
            let reference = Arc::clone(&reference);
            scope.spawn(move || {
                for name in half {
                    let got = ts.recover(name).unwrap();
                    assert_eq!(
                        got.points,
                        reference.recover(name).unwrap().points,
                        "{name}"
                    );
                }
            });
        }
        let ts = Arc::clone(&ts);
        let reference = Arc::clone(&reference);
        scope.spawn(move || {
            for b in 0..4 {
                for s in 0..FRESH {
                    let name = format!("f{s:03}");
                    append(
                        &ts,
                        &reference,
                        &name,
                        &batch(s, b, 10),
                        &format!("{name}/{b}"),
                    );
                }
            }
        });
    });

    let fresh: Vec<String> = (0..FRESH).map(|s| format!("f{s:03}")).collect();
    for name in replayed.iter().chain(&fresh) {
        assert_same(&ts, &reference, name);
    }

    // The recovered series carry on, and a checkpoint plus a reopen
    // keeps every point exactly once.
    for (s, name) in replayed.iter().enumerate().step_by(7) {
        append(
            &ts,
            &reference,
            name,
            &batch(s, 5, 10),
            &format!("{name}/5"),
        );
    }
    ts.checkpoint().unwrap();
    drop(ts);
    let ts = open(&backing, &path);
    for name in replayed.iter().chain(&fresh) {
        assert_same(&ts, &reference, name);
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

//! Criterion micro-benchmarks of the storage substrate: in-memory and
//! log-structured stores, codec framing, the tseries point codec, range
//! scans and recovery of the tseries WAL.

use std::sync::Arc;
use std::time::Duration;

use aodb_store::codec::{crc32, decode_state, encode_state, frame_record, parse_record};
use aodb_store::tseries::{decode_block, PointCompressor, SeriesStore, TsConfig, TsStore};
use aodb_store::{
    Bytes, FsyncPolicy, Key, LogStore, LogStoreConfig, MemStore, StateStore, WalConfig,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct ChannelBlob {
    org: String,
    points: Vec<(u64, f64)>,
}

fn blob(points: usize) -> ChannelBlob {
    ChannelBlob {
        org: "org-1".into(),
        points: (0..points as u64)
            .map(|i| (i * 100, i as f64 * 0.5))
            .collect(),
    }
}

fn bench_mem(c: &mut Criterion) {
    let store = MemStore::new();
    let value = Bytes::from(vec![7u8; 512]);
    for i in 0..10_000 {
        store
            .put(&Key::with_sort("t", "p", &format!("{i:06}")), value.clone())
            .unwrap();
    }
    let mut group = c.benchmark_group("mem_store");
    group.throughput(Throughput::Elements(1));
    let mut i = 0u64;
    group.bench_function("put_512B", |b| {
        b.iter(|| {
            i += 1;
            store
                .put(&Key::with_sort("t", "q", &format!("{i:06}")), value.clone())
                .unwrap()
        })
    });
    group.bench_function("get_hit", |b| {
        let key = Key::with_sort("t", "p", "005000");
        b.iter(|| store.get(&key).unwrap())
    });
    group.bench_function("scan_prefix_10k", |b| {
        let prefix = Key::partition_prefix("t", "p");
        b.iter(|| store.scan_prefix(&prefix).unwrap().len())
    });
    group.finish();
}

fn bench_log(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("aodb-bench-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
    let value = Bytes::from(vec![7u8; 512]);
    let mut group = c.benchmark_group("log_store");
    group.throughput(Throughput::Elements(1));
    let mut i = 0u64;
    group.bench_function("put_512B_nosync", |b| {
        b.iter(|| {
            i += 1;
            store
                .put(&Key::with_sort("t", "p", &format!("{i:08}")), value.clone())
                .unwrap()
        })
    });
    group.bench_function("get_hit", |b| {
        let key = Key::with_sort("t", "p", "00000001");
        b.iter(|| store.get(&key).unwrap())
    });
    group.finish();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let small = blob(10);
    let large = blob(1000);
    let small_bytes = encode_state(&small).unwrap();
    let large_bytes = encode_state(&large).unwrap();

    group.bench_function("encode_state_10pt", |b| {
        b.iter(|| encode_state(&small).unwrap())
    });
    group.bench_function("encode_state_1000pt", |b| {
        b.iter(|| encode_state(&large).unwrap())
    });
    group.bench_function("decode_state_1000pt", |b| {
        b.iter(|| decode_state::<ChannelBlob>(&large_bytes).unwrap())
    });
    group.throughput(Throughput::Bytes(large_bytes.len() as u64));
    group.bench_function("crc32_blob", |b| b.iter(|| crc32(&large_bytes)));
    group.bench_function("frame_and_parse", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(small_bytes.len() + 8);
            frame_record(&small_bytes, &mut buf);
            parse_record(&buf).unwrap().unwrap().1
        })
    });
    group.finish();
}

/// One full 512-point tseries block of each stream class: `smooth` is a
/// 10 Hz quarter-step triangle wave with a dither bit (about 1 B/point),
/// `noisy` a jittered clock with full-entropy mantissas (about 9 B/point).
fn codec_streams() -> [(&'static str, Vec<(u64, f64)>); 2] {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let smooth = (0..512u64)
        .map(|k| {
            let q = k % 32;
            let tri = if q < 16 { q } else { 32 - q };
            (
                1_700_000_000_000 + k * 100,
                20.0 + (tri + (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63)) as f64 * 0.25,
            )
        })
        .collect();
    let noisy = (0..512u64)
        .map(|k| {
            let r = next();
            (1_700_000_000_000 + k * 100 + r % 7, (r >> 11) as f64 * 1e-3)
        })
        .collect();
    [("smooth", smooth), ("noisy", noisy)]
}

/// The tseries point codec per stream class: compress a block point by
/// point, decode it, and resume a compressor from it (what recovery does
/// with a series' open tail).
fn bench_point_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("point_codec");
    for (name, points) in codec_streams() {
        let mut comp = PointCompressor::new();
        for &(ts, v) in &points {
            comp.append(ts, v);
        }
        let block = comp.encode_block();
        group.throughput(Throughput::Elements(points.len() as u64));
        group.bench_function(&format!("append_512pt_{name}"), |b| {
            b.iter(|| {
                let mut comp = PointCompressor::new();
                for &(ts, v) in &points {
                    comp.append(ts, v);
                }
                comp.payload_bytes()
            })
        });
        group.bench_function(&format!("decode_512pt_{name}"), |b| {
            b.iter(|| decode_block(&block).unwrap().len())
        });
        group.bench_function(&format!("resume_512pt_{name}"), |b| {
            b.iter(|| PointCompressor::resume(&block).unwrap().count())
        });
    }
    group.finish();
}

/// Range scans over the same 100k-point stream on both storage layouts:
/// the KV blob (decode the whole state, filter the window) and the
/// tseries engine (sparse-index block skipping into sealed blocks). The
/// narrow scans are where the index pays — the KV blob must still decode
/// everything. The `scan_from` rows are the append-order reads an
/// aggregator makes: a cold fold and a tail catch-up.
fn bench_scan_range(c: &mut Criterion) {
    const N: u64 = 100_000;
    // Quantized 10 Hz sensor signal, same as the ingest experiment.
    let points: Vec<(u64, f64)> = (0..N)
        .map(|i| (i * 100, 20.0 + (i % 16) as f64 * 0.25))
        .collect();
    // Narrow window: 1k points from the middle of the stream.
    let (from, to) = (50_000 * 100, 50_999 * 100);

    let ts = TsStore::new(
        Arc::new(MemStore::new()) as Arc<dyn StateStore>,
        TsConfig::default(),
    );
    for chunk in points.chunks(100) {
        ts.append_batch("s", chunk, b"").unwrap();
    }

    let blob = ChannelBlob {
        org: "org-1".into(),
        points: points.clone(),
    };
    let blob_bytes = encode_state(&blob).unwrap();

    let mut group = c.benchmark_group("scan_range");
    group.bench_function("tseries_full_100k", |b| {
        b.iter(|| {
            let hits = ts.scan_range("s", 0, u64::MAX, 0).unwrap();
            assert_eq!(hits.len(), N as usize);
            hits
        })
    });
    group.bench_function("tseries_narrow_1k_of_100k", |b| {
        b.iter(|| {
            let hits = ts.scan_range("s", from, to, 0).unwrap();
            assert_eq!(hits.len(), 1_000);
            hits
        })
    });
    // An aggregator's reads of its channel's series: the first query
    // after a restart reads all of it from position 0; a later one only
    // what was appended since (here the last 100 points, all in the
    // open tail behind 195 sealed blocks).
    group.bench_function("tseries_scan_from_cold_100k", |b| {
        b.iter(|| {
            let hits = ts.scan_from("s", 0, 0).unwrap();
            assert_eq!(hits.len(), N as usize);
            hits
        })
    });
    group.bench_function("tseries_scan_from_tail_100_of_100k", |b| {
        b.iter(|| {
            let hits = ts.scan_from("s", N - 100, 0).unwrap();
            assert_eq!(hits.len(), 100);
            hits
        })
    });
    group.bench_function("kv_blob_full_100k", |b| {
        b.iter(|| {
            let state = decode_state::<ChannelBlob>(&blob_bytes).unwrap();
            assert_eq!(state.points.len(), N as usize);
            state.points
        })
    });
    group.bench_function("kv_blob_narrow_1k_of_100k", |b| {
        b.iter(|| {
            let state = decode_state::<ChannelBlob>(&blob_bytes).unwrap();
            let hits: Vec<(u64, f64)> = state
                .points
                .into_iter()
                .filter(|&(ts_ms, _)| ts_ms >= from && ts_ms <= to)
                .collect();
            assert_eq!(hits.len(), 1_000);
            hits
        })
    });
    group.finish();
}

/// Recovery of a group-commit tseries WAL, the work a restart does
/// before its first request: open the log (read it, check every delta)
/// and recover every series in it (load its image, apply its deltas).
/// The fixed log holds 28 ten-point deltas for each of 800 series,
/// 22,400 frames and about 5 MB, none covered by a tail record; each
/// iteration opens a fresh copy of it.
fn bench_wal_recovery(c: &mut Criterion) {
    const SERIES: usize = 800;
    const DELTAS: u64 = 28;
    let dir = std::env::temp_dir().join(format!("aodb-bench-wal-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (fixed, work) = (dir.join("fixed.log"), dir.join("work.log"));
    let names: Vec<String> = (0..SERIES).map(|s| format!("org-1/ch-{s:04}")).collect();
    let wal = WalConfig {
        fsync_policy: FsyncPolicy::OnDemand,
    };
    {
        let ts = TsStore::with_wal(
            Arc::new(MemStore::new()) as Arc<dyn StateStore>,
            TsConfig::default(),
            &fixed,
            wal,
        )
        .unwrap();
        for d in 0..DELTAS {
            for (s, name) in names.iter().enumerate() {
                let points: Vec<(u64, f64)> = (d * 10..d * 10 + 10)
                    .map(|i| (i * 100, 20.0 + ((i + s as u64) % 16) as f64 * 0.25))
                    .collect();
                let meta = format!("{name}/seq={d:08}/watermark={:08}", d * 10);
                ts.append_batch(name, &points, meta.as_bytes()).unwrap();
            }
        }
    }
    let log_bytes = std::fs::metadata(&fixed).unwrap().len();

    let mut group = c.benchmark_group("wal_recovery");
    group.throughput(Throughput::Bytes(log_bytes));
    group.bench_function("open_touch_800_series", |b| {
        b.iter_batched(
            || std::fs::copy(&fixed, &work).unwrap(),
            |_| {
                let ts = TsStore::with_wal(
                    Arc::new(MemStore::new()) as Arc<dyn StateStore>,
                    TsConfig::default(),
                    &work,
                    wal,
                )
                .unwrap();
                for name in &names {
                    assert_eq!(ts.recover(name).unwrap().points, DELTAS * 10);
                }
                ts
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1))
        .sample_size(20);
    targets = bench_mem, bench_log, bench_codec, bench_point_codec, bench_scan_range, bench_wal_recovery
}
criterion_main!(benches);

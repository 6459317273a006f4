//! **Ingest-path storage benchmark: the columnar time-series engine,
//! with and without its group-commit WAL.**
//!
//! Every channel appends its points, compressed (delta-of-delta + XOR)
//! into sealed blocks, through the [`SeriesStore`] seam. This experiment
//! measures that path on one workload, once per durability mode, and
//! records the result into `BENCH_ingest.json`.
//!
//! Two numbers per mode, plus one engine-only figure:
//!
//! * **points/s** — acked actor-path ingest throughput (ack ⇒ the tail
//!   record or the WAL group carrying the batch is written). Channels
//!   are configured bare (no subscribers, no aggregation, no simulated
//!   service time) so the measurement isolates the storage path:
//!   dispatch + side-car encode + durable append. The backing store is a
//!   [`LogStore`] (`SyncPolicy::OnDemand`, i.e. no per-write fsync — the
//!   rows compare write *paths*, not the disk, except the one with a
//!   per-group fsync).
//! * **bytes/point** — at-rest footprint of the ingested stream: every
//!   record under the `tseries` namespace after a final seal — sealed
//!   blocks plus the (empty) tail record.
//! * **engine points/s** — direct `append_batch` throughput of the
//!   engine with no actor layer, the ceiling the actor path sits under.
//!
//! The signal is a realistic quantized sensor stream (10 Hz, fixed-step
//! ADC values): XOR compression thrives on shared mantissa bits, which
//! is what lands tseries at ~2 bytes/point. A full-random-mantissa
//! stream (e.g. `sin`) compresses to ~9 bytes/point — that boundary is
//! documented in DESIGN.md §13 and pinned by the recovery tests.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aodb_runtime::Runtime;
use aodb_shm::messages::{ConfigureChannel, Ingest};
use aodb_shm::types::{DataPoint, Threshold};
use aodb_shm::{register_all, PhysicalSensorChannel, ShmEnv};
use aodb_store::tseries::{SeriesStore, TsConfig, TsStore};
use aodb_store::{
    FsyncPolicy, Key, LogStore, LogStoreConfig, MemStore, StateStore, SyncPolicy, WalConfig,
};
use serde::Serialize;

use crate::measure::{fmt_f, print_table};

/// Worker threads of the benchmark silo.
const WORKERS: usize = 4;
/// Points per `Ingest` batch (the paper's sensors emit small batches).
const BATCH: usize = 10;

/// One backend's measurement.
#[derive(Serialize, Clone)]
pub struct BackendResult {
    /// `"tseries"`, `"tseries-wal"` or `"tseries-wal-fsync"`.
    pub backend: String,
    /// Total points acked through the actor path.
    pub points: u64,
    /// Wall-clock seconds from first send to last ack.
    pub elapsed_s: f64,
    /// `points / elapsed_s`.
    pub points_per_sec: f64,
    /// At-rest bytes attributable to the ingested stream.
    pub bytes_at_rest: u64,
    /// `bytes_at_rest / points`.
    pub bytes_per_point: f64,
}

/// The full experiment record written to `BENCH_ingest.json`.
#[derive(Serialize)]
pub struct IngestResult {
    /// Concurrent channels driven.
    pub channels: usize,
    /// Acked points per channel.
    pub points_per_channel: u64,
    /// Points per `Ingest` message.
    pub batch: usize,
    /// Columnar engine behind the `SeriesStore` seam, a tail record per
    /// append.
    pub tseries: BackendResult,
    /// Columnar engine in group-commit WAL mode, `FsyncPolicy::OnDemand`
    /// — the same durability class as the `tseries` row (no per-write
    /// fsync), but appends write compact delta frames through the
    /// committer and acks defer onto the group commit instead of
    /// blocking the turn. The acceptance row for the group-commit
    /// speedup at equal durability.
    pub tseries_wal: BackendResult,
    /// Group-commit WAL with `FsyncPolicy::PerGroup`: real fsync per
    /// group — durability *on*. One fsync is amortized over every frame
    /// in the group, which is what keeps this row in the same decade as
    /// the no-fsync rows instead of collapsing to disk latency.
    pub tseries_wal_fsync: BackendResult,
    /// `tseries_wal.points_per_sec / tseries.points_per_sec` — the
    /// group-commit win at equal durability.
    pub wal_speedup_points_per_sec: f64,
    /// Direct engine `append_batch` throughput, no actor layer.
    pub engine_points_per_sec: f64,
}

/// The quantized 10 Hz sensor signal: fixed-step ADC values around a
/// baseline, the workload class the compressor is designed for.
fn sensor_point(i: u64) -> DataPoint {
    DataPoint {
        ts_ms: i * 100,
        value: 20.0 + (i % 16) as f64 * 0.25,
    }
}

fn temp_store(tag: &str) -> (std::path::PathBuf, Arc<dyn StateStore>) {
    let dir = std::env::temp_dir().join(format!("aodb-bench-ingest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(
        LogStore::open(LogStoreConfig {
            dir: dir.clone(),
            compact_threshold: 16 * 1024 * 1024,
            sync: SyncPolicy::OnDemand,
        })
        .expect("open bench log store"),
    );
    (dir, store)
}

/// Rounds of in-flight batches the driver keeps outstanding. A real
/// sensor fleet never barriers on one round's acks before emitting the
/// next 100 ms of samples; a bounded window models that steady stream
/// while still verifying every ack. The window is what lets the
/// group-commit WAL show its coalescing (a full barrier would cap every
/// group at `channels` frames) — and it is shared by *all* backends, so
/// the rows stay comparable.
const PIPELINE_ROUNDS: usize = 16;

/// Drives `channels × points_per_channel` acked ingests and returns the
/// elapsed wall-clock seconds. Each round sends one batch per channel;
/// up to [`PIPELINE_ROUNDS`] rounds stay in flight, and every ack is
/// verified before the measurement ends.
fn drive_ingest(rt: &Runtime, channels: &[String], points_per_channel: u64) -> f64 {
    for c in channels {
        rt.actor_ref::<PhysicalSensorChannel>(c.as_str())
            .call(ConfigureChannel {
                org: "org-bench".into(),
                sensor: "org-bench/s-0".into(),
                threshold: Threshold::default(),
                subscribers: Vec::new(),
            })
            .expect("configure channel");
    }
    let rounds = points_per_channel / BATCH as u64;
    let start = Instant::now();
    let mut inflight: std::collections::VecDeque<Vec<aodb_runtime::Promise<u32>>> =
        std::collections::VecDeque::with_capacity(PIPELINE_ROUNDS + 1);
    let drain_round = |round: Vec<aodb_runtime::Promise<u32>>| {
        for p in round {
            let accepted = p
                .wait_for(Duration::from_secs(60))
                .expect("ingest batch acked");
            assert_eq!(accepted as usize, BATCH, "batch partially rejected");
        }
    };
    for round in 0..rounds {
        let mut sent = Vec::with_capacity(channels.len());
        for c in channels {
            let points: Vec<DataPoint> = (0..BATCH as u64)
                .map(|i| sensor_point(round * BATCH as u64 + i))
                .collect();
            sent.push(
                rt.actor_ref::<PhysicalSensorChannel>(c.as_str())
                    .ask(Ingest::new(points))
                    .expect("send ingest"),
            );
        }
        inflight.push_back(sent);
        if inflight.len() > PIPELINE_ROUNDS {
            drain_round(inflight.pop_front().expect("non-empty window"));
        }
    }
    for round in inflight {
        drain_round(round);
    }
    start.elapsed().as_secs_f64()
}

/// Sums the value bytes of every record whose key starts with `prefix`.
fn stored_bytes(store: &Arc<dyn StateStore>, prefix: &[u8]) -> u64 {
    store
        .scan_prefix(prefix)
        .expect("scan store")
        .iter()
        .map(|(_, v)| v.len() as u64)
        .sum()
}

/// Columnar run: a tail record per append.
fn run_tseries(channels: usize, points_per_channel: u64) -> BackendResult {
    let (dir, store) = temp_store("ts");
    let env = ShmEnv::paper_default(Arc::clone(&store));
    let engine = Arc::clone(&env.series);
    let rt = Runtime::single(WORKERS);
    register_all(&rt, env);
    let keys: Vec<String> = (0..channels)
        .map(|i| format!("org-bench/s-{i}/c-0"))
        .collect();
    let elapsed = drive_ingest(&rt, &keys, points_per_channel);
    rt.shutdown();
    // At rest: seal the residual tails, then count every tseries record
    // (sealed blocks + the now-empty tail records).
    for k in &keys {
        engine
            .seal(&format!("shm.channel/{k}"))
            .expect("final seal");
    }
    let bytes = stored_bytes(&store, &Key::namespace_prefix("tseries"));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let points = channels as u64 * points_per_channel;
    BackendResult {
        backend: "tseries".into(),
        points,
        elapsed_s: elapsed,
        points_per_sec: points as f64 / elapsed,
        bytes_at_rest: bytes,
        bytes_per_point: bytes as f64 / points as f64,
    }
}

/// Group-commit WAL run: same workload, engine in WAL mode. Appends
/// write delta frames through the committer thread and ingest acks ride
/// the group commit.
fn run_tseries_wal(
    channels: usize,
    points_per_channel: u64,
    fsync_policy: FsyncPolicy,
    backend: &str,
) -> BackendResult {
    let (dir, store) = temp_store(backend);
    let wal_config = WalConfig { fsync_policy };
    let (env, engine) =
        ShmEnv::tseries_wal_default(Arc::clone(&store), dir.join("ingest.wal"), wal_config)
            .expect("open bench wal");
    let rt = Runtime::single(WORKERS);
    register_all(&rt, env);
    let keys: Vec<String> = (0..channels)
        .map(|i| format!("org-bench/s-{i}/c-0"))
        .collect();
    let elapsed = drive_ingest(&rt, &keys, points_per_channel);
    rt.shutdown();
    // At rest: fold outstanding WAL deltas into the backing store, seal
    // the residual tails, then count the tseries records — the same
    // footprint measurement as the plain tseries row (the WAL itself is
    // transient by construction: checkpoint resets it).
    engine.checkpoint().expect("final checkpoint");
    for k in &keys {
        engine
            .seal(&format!("shm.channel/{k}"))
            .expect("final seal");
    }
    let bytes = stored_bytes(&store, &Key::namespace_prefix("tseries"));
    drop(engine);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let points = channels as u64 * points_per_channel;
    BackendResult {
        backend: backend.into(),
        points,
        elapsed_s: elapsed,
        points_per_sec: points as f64 / elapsed,
        bytes_at_rest: bytes,
        bytes_per_point: bytes as f64 / points as f64,
    }
}

/// Direct engine throughput: `append_batch` on a [`MemStore`] backing,
/// no actors — the ceiling the acked actor path sits under.
fn run_engine_direct(total_points: u64) -> f64 {
    let engine = TsStore::new(
        Arc::new(MemStore::new()) as Arc<dyn StateStore>,
        TsConfig::default(),
    );
    let start = Instant::now();
    let mut i = 0u64;
    while i < total_points {
        let chunk: Vec<(u64, f64)> = (i..i + BATCH as u64)
            .map(|j| {
                let p = sensor_point(j);
                (p.ts_ms, p.value)
            })
            .collect();
        engine.append_batch("bench", &chunk, b"").expect("append");
        i += BATCH as u64;
    }
    total_points as f64 / start.elapsed().as_secs_f64()
}

/// Runs the experiment. `quick` shrinks the workload for CI smoke runs.
pub fn run(quick: bool) -> IngestResult {
    let (channels, points_per_channel, engine_points) = if quick {
        (4usize, 2_000u64, 100_000u64)
    } else {
        (8usize, 5_000u64, 1_000_000u64)
    };
    println!("\n== ingest: columnar tseries engine, with and without its WAL ==");
    println!(
        "   {channels} channels × {points_per_channel} points, {BATCH}-point batches, \
         quantized 10 Hz sensor signal, LogStore backing (no per-write fsync)"
    );

    let tseries = run_tseries(channels, points_per_channel);
    let tseries_wal = run_tseries_wal(
        channels,
        points_per_channel,
        FsyncPolicy::OnDemand,
        "tseries-wal",
    );
    let tseries_wal_fsync = run_tseries_wal(
        channels,
        points_per_channel,
        FsyncPolicy::PerGroup,
        "tseries-wal-fsync",
    );
    let engine_points_per_sec = run_engine_direct(engine_points);
    let wal_speedup = tseries_wal.points_per_sec / tseries.points_per_sec;

    let rows: Vec<Vec<String>> = [&tseries, &tseries_wal, &tseries_wal_fsync]
        .iter()
        .map(|r| {
            vec![
                r.backend.clone(),
                fmt_f(r.points_per_sec),
                format!("{:.2}", r.bytes_per_point),
                format!("{:.3}", r.elapsed_s),
            ]
        })
        .collect();
    print_table(
        "ingest backends",
        &["backend", "points/s", "bytes/point", "elapsed s"],
        &rows,
    );
    println!(
        "   speedup ×{wal_speedup:.1} (wal/tseries, equal durability); direct engine \
         append: {} points/s",
        fmt_f(engine_points_per_sec)
    );

    IngestResult {
        channels,
        points_per_channel,
        batch: BATCH,
        tseries,
        tseries_wal,
        tseries_wal_fsync,
        wal_speedup_points_per_sec: wal_speedup,
        engine_points_per_sec,
    }
}

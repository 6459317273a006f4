//! Direct timed calls into the public functions of single layers: the
//! isolated cost of a codec append, a WAL submit, an fsync, a dispatch.
//!
//! These are the rows the repository used to record in separate 20–40 ms
//! microbenchmarks; here they sit in the same ledger as the end-to-end
//! run, measured in the same process on the same data directory. Each
//! loop runs for a fixed span of wall time and passes its results through
//! `black_box`, so the work cannot be precomputed or deleted.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aodb_core::{Persisted, WritePolicy};
use aodb_shm::messages::ChannelStats;
use aodb_shm::types::DataPoint;
use aodb_store::tseries::{decode_block, PointCompressor, SeriesStore, TsStore};
use aodb_store::{Bytes, FsyncPolicy, GroupWal, Key, MemStore, StateStore, WalConfig};

use crate::signal;
use crate::stats::median;
use crate::system::{Ping, Stack};

/// Wall time each direct measurement loops for.
const SPAN: Duration = Duration::from_millis(80);

/// Median time (µs) of writing 4 KiB and `sync_data` on a file in `dir`:
/// what one durable group commit costs on this host's device. Every
/// result file records it, so a throughput drift between two files can
/// be read against the device drifting.
pub fn fsync_probe_us(dir: &Path, rounds: usize) -> Result<f64, String> {
    let path = dir.join("fsync.probe");
    let mut file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let block = [0x5au8; 4096];
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        file.write_all(&block)
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("fsync probe: {e}"))?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    let _ = std::fs::remove_file(&path);
    Ok(median(&samples))
}

/// `(append ns/point, decode ns/point)` of the tseries block codec on
/// full 512-point blocks of the benchmark's signal.
pub fn codec_ns_per_point(seed: u64) -> (f64, f64) {
    let points: Vec<(u64, f64)> = (0..52)
        .flat_map(|b| signal::batch(seed, 0, b))
        .take(512)
        .map(|p| (p.ts_ms, p.value))
        .collect();
    let mut appended = 0u64;
    let mut block = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < SPAN {
        let mut c = PointCompressor::new();
        for &(ts, v) in black_box(&points) {
            c.append(ts, v);
        }
        appended += points.len() as u64;
        block = black_box(c.encode_block());
    }
    let append_ns = t0.elapsed().as_nanos() as f64 / appended as f64;

    let mut decoded = 0u64;
    let t1 = Instant::now();
    while t1.elapsed() < SPAN {
        let out = decode_block(black_box(&block)).expect("block just encoded");
        decoded += black_box(out).len() as u64;
    }
    (append_ns, t1.elapsed().as_nanos() as f64 / decoded as f64)
}

/// Points/s of `TsStore::append_batch` over a `MemStore`, 10-point
/// batches round-robin over 64 series: the engine with no actor layer
/// and no device under it.
pub fn engine_points_per_s(seed: u64) -> f64 {
    let engine = TsStore::with_defaults(Arc::new(MemStore::new()));
    let series: Vec<String> = (0..64).map(|i| format!("direct/{i}")).collect();
    let mut batch_no = 0u64;
    let mut points = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < SPAN {
        for (c, name) in series.iter().enumerate() {
            let batch: Vec<(u64, f64)> = signal::batch(seed, c as u32, batch_no)
                .iter()
                .map(|p| (p.ts_ms, p.value))
                .collect();
            let out = engine
                .append_batch(name, &batch, b"direct")
                .expect("memstore append");
            points += u64::from(black_box(out).appended);
        }
        batch_no += 1;
    }
    points as f64 / t0.elapsed().as_secs_f64()
}

/// Mean µs from `GroupWal::submit` to the resolved ticket, per frame,
/// with `outstanding` frames submitted from one thread before any is
/// waited for. One outstanding frame pays a whole group commit; 64 share
/// one, which is the amortization group commit exists for.
pub fn wal_submit_ack_us(
    dir: &Path,
    fsync: FsyncPolicy,
    outstanding: usize,
) -> Result<f64, String> {
    let path = dir.join(format!("direct-{outstanding}.wal"));
    let _ = std::fs::remove_file(&path);
    let (wal, _) = GroupWal::open(
        &path,
        WalConfig {
            fsync_policy: fsync,
            ..WalConfig::default()
        },
    )
    .map_err(|e| format!("open direct wal: {e}"))?;
    let payload = Bytes::from(vec![0xa5u8; 224]); // the size of one ingest delta frame
    let mut frames = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < SPAN * 2 {
        let tickets: Vec<_> = (0..outstanding)
            .map(|_| wal.submit(payload.clone()))
            .collect();
        for ticket in tickets {
            ticket
                .wait()
                .map_err(|e| format!("direct wal commit: {e}"))?;
        }
        frames += outstanding as u64;
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / frames as f64;
    drop(wal);
    let _ = std::fs::remove_file(&path);
    Ok(us)
}

/// Mean µs of `Persisted::save` of a small state blob into a `MemStore`:
/// the JSON encode and put every structural mutation pays.
pub fn persist_save_us() -> f64 {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let mut cell: Persisted<ChannelStats> = Persisted::new(
        store,
        Key::new("direct", "persist"),
        WritePolicy::OnDeactivate,
    );
    let mut saves = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < SPAN {
        cell.mutate(|s| {
            s.total_points += 1;
            s.last = Some(DataPoint {
                ts_ms: s.total_points,
                value: 1.25,
            });
        });
        black_box(cell.save()).expect("memstore save");
        saves += 1;
    }
    t0.elapsed().as_secs_f64() * 1e6 / saves as f64
}

/// Direct runtime measurements on the (idle) stack.
#[derive(Default)]
pub struct RuntimeDirect {
    /// Median µs of a blocking ask to an active no-op actor.
    pub ask_rtt_idle_us: f64,
    /// No-op messages/s through `tell`, 64 target actors.
    pub tell_msgs_per_s: f64,
    /// Mean µs of the first ask to a not yet activated no-op actor.
    pub activate_us: f64,
    /// Messages one organization live-data request fans out into.
    pub live_fanout_msgs: f64,
}

/// Runs the direct runtime measurements; the stack must be quiescent.
pub fn runtime_direct(stack: &Stack) -> Result<RuntimeDirect, String> {
    let call = |n: u64| {
        stack
            .probe(n)
            .call(Ping)
            .map_err(|e| format!("probe call: {e:?}"))
    };
    call(0)?;
    let mut rtts = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < SPAN {
        let t = Instant::now();
        call(0)?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }

    let targets: Vec<_> = (1..=64).map(|n| stack.probe(n)).collect();
    for t in &targets {
        t.call(Ping).map_err(|e| format!("probe call: {e:?}"))?;
    }
    let mut told = 0u64;
    let t1 = Instant::now();
    while t1.elapsed() < SPAN {
        for t in &targets {
            t.tell(Ping).map_err(|e| format!("probe tell: {e:?}"))?;
        }
        told += targets.len() as u64;
    }
    // Mailboxes are FIFO: the reply to a final ask means every tell
    // before it was handled.
    for t in &targets {
        t.call(Ping).map_err(|e| format!("probe call: {e:?}"))?;
    }
    let tell_msgs_per_s = told as f64 / t1.elapsed().as_secs_f64();

    let fresh = 1_000u64;
    let t2 = Instant::now();
    for n in 0..fresh {
        call(1_000_000 + n)?;
    }
    let activate_us = t2.elapsed().as_secs_f64() * 1e6 / fresh as f64;

    let before = stack.rt.metrics().messages_processed;
    let live_rounds = 5u64;
    for _ in 0..live_rounds {
        let (reply, promise) = aodb_runtime::ReplyTo::promise();
        stack.fleet.orgs[0]
            .tell(aodb_shm::messages::GetLiveData { reply })
            .map_err(|e| format!("live data: {e}"))?;
        promise
            .wait_for(Duration::from_secs(10))
            .map_err(|e| format!("live data reply: {e:?}"))?;
    }
    stack.rt.quiesce(Duration::from_secs(5));
    let live_fanout_msgs =
        (stack.rt.metrics().messages_processed - before) as f64 / live_rounds as f64;

    Ok(RuntimeDirect {
        ask_rtt_idle_us: median(&rtts),
        tell_msgs_per_s,
        activate_us,
        live_fanout_msgs,
    })
}

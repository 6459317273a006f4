//! Chaos conservation with the columnar time-series backend: the Fig-6
//! mixed workload (FIFO ingest streams + range queries) runs over
//! `kill_silo` chaos while channels append compressed points through the
//! `SeriesStore` seam — and ack ⇒ durable and exactly-once must hold
//! from the backing store *alone*: after the fleet shuts down, a fresh
//! engine over the bare store must reconstruct every acknowledged point
//! (no more, no fewer) and still reject replayed batches, because the
//! dedup watermarks commit atomically with their tail block.
//!
//! Small sealed blocks (16 points vs 5-point batches) make the scheduled
//! kills straddle seal boundaries, exercising the tail-record commit
//! protocol's pending-block window.

use std::sync::Arc;
use std::time::Duration;

use aodb_chaos::{AckLedger, FaultPlan, SeedReport, SpreadPlacement};
use aodb_runtime::{ActorError, LatencyModel, NetConfig, Runtime, RuntimeBuilder};
use aodb_shm::messages::{ConfigureChannel, GetChannelStats, Ingest, QueryRange};
use aodb_shm::types::{DataPoint, Threshold};
use aodb_shm::{register_all, PhysicalSensorChannel, ShmEnv};
use aodb_store::tseries::{SeriesStore, TsConfig, TsStore};
use aodb_store::{MemStore, StateStore};

const SILOS: usize = 3;
const CHANNELS: usize = 24;
const ROUNDS: u64 = 24;
const BATCH: u64 = 5;
const SEAL_POINTS: u32 = 16;

const DEFAULT_SEED: u64 = 0x75E41E5;

fn build(seed: u64, store: Arc<dyn StateStore>) -> Runtime {
    let plan = FaultPlan::from_seed(seed, SILOS, Duration::from_millis(300));
    let rt = RuntimeBuilder::new()
        .silos(SILOS, 2)
        .placement(SpreadPlacement)
        .network(NetConfig {
            cross_silo: Some(LatencyModel::fixed(Duration::from_micros(30))),
            client: Some(LatencyModel::fixed(Duration::from_micros(30))),
        })
        .chaos(plan)
        .build();
    let engine = Arc::new(TsStore::new(
        Arc::clone(&store),
        TsConfig::sealing_every(SEAL_POINTS),
    ));
    // No WAL: every append writes its tail record, so an acked batch is
    // durable before the reply leaves the actor, watermark included.
    register_all(
        &rt,
        ShmEnv::paper_default(store).with_series_store(engine as Arc<dyn SeriesStore>),
    );
    rt
}

fn batch(channel: usize, seq: u64) -> Vec<DataPoint> {
    (0..BATCH)
        .map(|i| DataPoint {
            ts_ms: (seq - 1) * BATCH + i,
            value: (channel as u64 * 10_000 + seq * BATCH + i) as f64,
        })
        .collect()
}

/// The exact stream a channel must hold after its FIFO stream drains:
/// seq 1..=ROUNDS, in order, exactly once.
fn expected_stream(channel: usize) -> Vec<(u64, f64)> {
    (1..=ROUNDS)
        .flat_map(|seq| batch(channel, seq))
        .map(|p| (p.ts_ms, p.value))
        .collect()
}

#[test]
fn silo_kill_with_tseries_backend_conserves_acknowledged_writes() {
    let seed = aodb_chaos::env_seed(DEFAULT_SEED);
    let _report = SeedReport::new(seed);

    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let rt = build(seed, Arc::clone(&store));
    let channels: Vec<String> = (0..CHANNELS).map(|i| format!("org-0/s-{i}/c-0")).collect();
    for c in &channels {
        for attempt in 0.. {
            let outcome =
                rt.actor_ref::<PhysicalSensorChannel>(c.as_str())
                    .call(ConfigureChannel {
                        org: "org-0".into(),
                        sensor: format!("org-0/s-{c}"),
                        threshold: Threshold::default(),
                        subscribers: Vec::new(),
                    });
            match outcome {
                Ok(()) => break,
                Err(_) if attempt < 100 => continue,
                Err(e) => panic!("channel {c} never configured: {e} (seed {seed:#x})"),
            }
        }
    }

    // TCP-style FIFO streams with retransmission-until-ack, pipelined
    // across channels, plus the 2 % range-read traffic — while the plan
    // kills and restarts silos underneath.
    let ledger = AckLedger::new();
    let mut next_seq = vec![1u64; CHANNELS];
    let mut retransmissions = 0u64;
    let mut round_no = 0u64;
    while next_seq.iter().any(|&s| s <= ROUNDS) {
        round_no += 1;
        assert!(
            round_no < 2_000,
            "streams never drained: {next_seq:?} (seed {seed:#x})"
        );
        let mut round: Vec<(usize, u64, _)> = Vec::new();
        for (idx, c) in channels.iter().enumerate() {
            let seq = next_seq[idx];
            if seq > ROUNDS {
                continue;
            }
            if let Ok(p) = rt
                .actor_ref::<PhysicalSensorChannel>(c.as_str())
                .ask_replayable(Ingest::deduped(batch(idx, seq), idx as u64, seq))
            {
                round.push((idx, seq, p));
            }
        }
        let query_target = &channels[round_no as usize % CHANNELS];
        let query = rt
            .actor_ref::<PhysicalSensorChannel>(query_target.as_str())
            .ask(QueryRange {
                from_ms: 0,
                to_ms: u64::MAX,
                limit: 10,
            });
        for (idx, seq, p) in round {
            match p.wait_for(Duration::from_secs(10)) {
                Ok(_) => {
                    ledger.ack(&channels[idx], BATCH);
                    next_seq[idx] = seq + 1;
                }
                Err(ActorError::SiloLost) | Err(ActorError::Lost) => retransmissions += 1,
                Err(e) => panic!("unexpected ingest error: {e} (seed {seed:#x})"),
            }
        }
        if let Ok(p) = query {
            match p.wait_for(Duration::from_secs(10)) {
                Ok(_) | Err(ActorError::Lost) | Err(ActorError::SiloLost) => {}
                Err(e) => panic!("unexpected query error: {e} (seed {seed:#x})"),
            }
        }
        if round_no <= ROUNDS {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    eprintln!("streams drained after {round_no} rounds, {retransmissions} retransmissions");

    std::thread::sleep(Duration::from_millis(120));
    for s in 0..SILOS {
        rt.restart_silo(aodb_runtime::SiloId(s as u32));
    }
    assert!(rt.quiesce(Duration::from_secs(10)));

    // Phase 1 — live conservation: every reactivated channel reports
    // exactly its acknowledged points (stats recovered from the sidecar).
    let verdict = ledger.verify_exact(|c| {
        for _ in 0..200 {
            match rt
                .actor_ref::<PhysicalSensorChannel>(c)
                .call(GetChannelStats)
            {
                Ok(stats) => return stats.total_points,
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        panic!("channel {c} unreachable after restart (seed {seed:#x})");
    });
    assert_eq!(
        verdict,
        Ok(()),
        "conservation violated under seed {seed:#x}"
    );
    assert_eq!(ledger.total(), CHANNELS as u64 * ROUNDS * BATCH);
    let metrics = rt.metrics();
    assert!(
        metrics.silo_crashes >= 1,
        "plan scheduled no crash (seed {seed:#x})"
    );
    rt.shutdown();

    // Phase 2 — cold durability: a fresh engine over the bare backing
    // store (no surviving in-memory tail, no warm actor state) must
    // rebuild every channel's exact acknowledged stream: right count,
    // right order, right values, across every seal boundary.
    let cold = TsStore::new(Arc::clone(&store), TsConfig::sealing_every(SEAL_POINTS));
    for (idx, c) in channels.iter().enumerate() {
        let series = format!("shm.channel/{c}");
        let rec = cold.recover(&series).unwrap();
        assert_eq!(
            rec.points,
            ROUNDS * BATCH,
            "channel {c}: cold recovery count (seed {seed:#x})"
        );
        let scan = cold.scan_range(&series, 0, u64::MAX, 0).unwrap();
        assert_eq!(
            scan,
            expected_stream(idx),
            "channel {c}: cold recovery stream (seed {seed:#x})"
        );
        let stats = cold.stats(&series);
        assert!(
            stats.sealed_blocks >= u64::from(ROUNDS as u32 * BATCH as u32 / SEAL_POINTS) - 1,
            "channel {c}: expected sealed blocks, got {stats:?}"
        );
    }

    // Phase 3 — exactly-once after a full restart: a second fleet over
    // the same store (fresh engine, fresh actors) must reject a replay
    // of the final batch, because the watermark committed atomically
    // with the points it admitted.
    let rt2 = build(seed.wrapping_add(1) | 1, Arc::clone(&store));
    for (idx, c) in channels.iter().enumerate() {
        let replayed = loop {
            if let Ok(p) = rt2
                .actor_ref::<PhysicalSensorChannel>(c.as_str())
                .ask_replayable(Ingest::deduped(batch(idx, ROUNDS), idx as u64, ROUNDS))
            {
                if let Ok(n) = p.wait_for(Duration::from_secs(10)) {
                    break n;
                }
            }
        };
        assert_eq!(
            replayed, 0,
            "channel {c}: replayed batch was re-applied after restart (seed {seed:#x})"
        );
    }
    rt2.shutdown();

    // And the replays changed nothing in storage.
    let recheck = TsStore::new(Arc::clone(&store), TsConfig::sealing_every(SEAL_POINTS));
    for c in &channels {
        let series = format!("shm.channel/{c}");
        assert_eq!(recheck.recover(&series).unwrap().points, ROUNDS * BATCH);
    }
}

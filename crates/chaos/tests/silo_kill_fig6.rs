//! The headline chaos scenario: a Figure-6-style mixed workload (98 %
//! ingest / 2 % online queries over a multi-silo SHM deployment) runs
//! while a seeded [`FaultPlan`] drops, duplicates, and delays messages
//! and crashes (then restarts) silos on a schedule — and the platform
//! must conserve every acknowledged write, reactivate every actor on a
//! surviving silo, and reproduce the exact fault schedule when re-run
//! with the same seed.

use std::sync::Arc;
use std::time::Duration;

use aodb_chaos::{AckLedger, FaultPlan, SeedReport, SpreadPlacement};
use aodb_runtime::{ActorError, LatencyModel, NetConfig, Runtime, RuntimeBuilder};
use aodb_shm::messages::{ConfigureChannel, GetChannelStats, Ingest, QueryRange};
use aodb_shm::types::{DataPoint, Threshold};
use aodb_shm::{register_all, PhysicalSensorChannel, ShmEnv};
use aodb_store::MemStore;

const SILOS: usize = 3;
const CHANNELS: usize = 48;
const ROUNDS: u64 = 30;
const BATCH: u64 = 5;

/// The default seed for pinned CI runs; override with `CHAOS_SEED`.
const DEFAULT_SEED: u64 = 0xF1660;

#[test]
fn fault_schedule_replays_identically_from_seed() {
    // The replay guarantee: `FaultPlan::from_seed` is pure, so the seed
    // printed by a failing run rebuilds the identical fault schedule.
    let horizon = Duration::from_millis(400);
    for seed in [DEFAULT_SEED, 1, 0xDEAD_BEEF, u64::MAX] {
        let a = FaultPlan::from_seed(seed, SILOS, horizon);
        let b = FaultPlan::from_seed(seed, SILOS, horizon);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "same seed produced different fault schedules"
        );
    }
    let a = FaultPlan::from_seed(1, SILOS, horizon);
    let b = FaultPlan::from_seed(2, SILOS, horizon);
    assert_ne!(a.fingerprint(), b.fingerprint());
}

fn build(seed: u64) -> Runtime {
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
    // Ack ⇒ durable, and the ingest dedup watermarks commit with the
    // points they admit, so post-crash retries stay exactly-once.
    register_all(&rt, ShmEnv::paper_default(Arc::new(MemStore::new())));
    rt
}

fn batch(channel: usize, seq: u64) -> Vec<DataPoint> {
    (0..BATCH)
        .map(|i| DataPoint {
            ts_ms: seq * BATCH + i,
            value: (channel as u64 * 10_000 + seq * BATCH + i) as f64,
        })
        .collect()
}

#[test]
fn silo_kill_under_mixed_workload_conserves_acknowledged_writes() {
    let seed = aodb_chaos::env_seed(DEFAULT_SEED);
    let _report = SeedReport::new(seed);
    let fingerprint = FaultPlan::from_seed(seed, SILOS, Duration::from_millis(300)).fingerprint();

    let rt = build(seed);
    let channels: Vec<String> = (0..CHANNELS).map(|i| format!("org-0/s-{i}/c-0")).collect();
    for c in &channels {
        // Configuration rides the same chaotic network: retry until the
        // structural write is acknowledged.
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

    // Mixed workload: 48 concurrent sensor streams, each a TCP-style
    // FIFO — a source retransmits an unacknowledged `seq` until it is
    // acked before advancing (the contract the dedup watermark needs) —
    // plus raw-range reads (the 2 %), while the plan's scheduled crashes
    // fire underneath. Streams are pipelined *across* channels, so the
    // kill always catches dozens of batches in flight.
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
            // A send error (silo mid-kill) just means: retransmit next
            // round.
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
                // Any Ok means this (source, seq) is applied exactly once
                // — a 0 reply is the dedup watermark acknowledging a copy
                // that already landed (e.g. a chaos duplicate of a
                // retransmission).
                Ok(_) => {
                    ledger.ack(&channels[idx], BATCH);
                    next_seq[idx] = seq + 1;
                }
                Err(ActorError::SiloLost) | Err(ActorError::Lost) => retransmissions += 1,
                Err(e) => panic!("unexpected ingest error: {e} (seed {seed:#x})"),
            }
        }
        if let Ok(p) = query {
            // Queries may be dropped or die with a silo; they must still
            // resolve with a typed error, never hang.
            match p.wait_for(Duration::from_secs(10)) {
                Ok(_) | Err(ActorError::Lost) | Err(ActorError::SiloLost) => {}
                Err(e) => panic!("unexpected query error: {e} (seed {seed:#x})"),
            }
        }
        // Pace the first `ROUNDS` rounds so the workload spans the
        // plan's crash window instead of racing past it.
        if round_no <= ROUNDS {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    eprintln!("streams drained after {round_no} rounds, {retransmissions} retransmissions");

    // Let any still-scheduled restart fire, then revive whatever is
    // still down so the survivors + returnees host the full fleet.
    std::thread::sleep(Duration::from_millis(120));
    for s in 0..SILOS {
        rt.restart_silo(aodb_runtime::SiloId(s as u32));
    }
    assert!(rt.quiesce(Duration::from_secs(10)));

    // Conservation: every channel holds exactly its acknowledged points —
    // the crashes lost nothing that was acked, and the duplicates and
    // retries double-applied nothing. Reading the stats also proves every
    // actor reactivates (the read itself re-activates evicted channels).
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
    assert!(
        metrics.reactivations > 0,
        "crashes evicted actors but none reactivated (seed {seed:#x})"
    );

    // Replay guarantee, end to end: the schedule this run executed is
    // bit-identical to what the printed seed rebuilds.
    assert_eq!(
        FaultPlan::from_seed(seed, SILOS, Duration::from_millis(300)).fingerprint(),
        fingerprint
    );
    rt.shutdown();
}

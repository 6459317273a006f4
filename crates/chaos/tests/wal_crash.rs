//! Group-commit WAL crash-point matrix: every [`CrashPoint`] boundary is
//! killed mid-flight while the Fig-6 mixed workload (FIFO deduped ingest
//! streams + range queries) runs over silo-kill chaos with deferred
//! group-commit acks — and the headline invariant must hold from storage
//! alone:
//!
//! > **acked ⇒ durable**, and the recovered store is a prefix of the ack
//! > ledger's stream (per channel: exactly seq `1..=k` for some `k` with
//! > `k·BATCH ≥ acked points`, never torn, never reordered).
//!
//! Each point is exercised at a seed-derived group number so the amount
//! of committed prefix below the kill varies across seeds, then a second
//! WAL platform over the recovered state replays *every* batch and must
//! land on exactly-once: duplicates rejected via the barrier-ordered
//! dedup path, gaps filled, final stream byte-identical to the ideal run.
//!
//! `CHAOS_SEED=<seed>` replays a failure exactly (the fleet seed also
//! derives the armed crash group).

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use aodb_chaos::{AckLedger, FaultPlan, SeedReport, SpreadPlacement};
use aodb_runtime::{ActorError, LatencyModel, NetConfig, Runtime, RuntimeBuilder};
use aodb_shm::messages::{ConfigureChannel, Ingest, QueryRange};
use aodb_shm::types::{DataPoint, Threshold};
use aodb_shm::{register_all, PhysicalSensorChannel, ShmEnv};
use aodb_store::tseries::{SeriesStore, TsConfig, TsStore};
use aodb_store::{CrashPlan, CrashPoint, MemStore, StateStore, WalConfig};

const SILOS: usize = 3;
const CHANNELS: usize = 8;
const ROUNDS: u64 = 12;
const BATCH: u64 = 4;

const DEFAULT_SEED: u64 = 0x5EED_CA11;

/// The two seeds a matrix cell runs under: the pinned default plus a
/// derived second schedule, or (under `CHAOS_SEED`) the override and its
/// derivation — so CI's fresh-seed run still covers two group offsets.
fn seeds() -> [u64; 2] {
    let base = aodb_chaos::env_seed(DEFAULT_SEED);
    [base, base.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1]
}

/// A WAL-mode SHM fleet: 3 silos, spread placement, seeded silo-kill
/// chaos, and the time-series engine in group-commit mode over `store` +
/// `wal_path` (deferred acks resolve only after the group fsyncs).
fn wal_platform(seed: u64, store: Arc<dyn StateStore>, wal_path: &Path) -> (Runtime, Arc<TsStore>) {
    let plan = FaultPlan::from_seed(seed, SILOS, Duration::from_millis(400));
    let rt = RuntimeBuilder::new()
        .silos(SILOS, 2)
        .placement(SpreadPlacement)
        .network(NetConfig {
            cross_silo: Some(LatencyModel::fixed(Duration::from_micros(30))),
            client: Some(LatencyModel::fixed(Duration::from_micros(30))),
        })
        .chaos(plan)
        .build();
    let engine = Arc::new(
        TsStore::with_wal(
            Arc::clone(&store),
            TsConfig::default(),
            wal_path,
            WalConfig::default(),
        )
        .unwrap(),
    );
    register_all(
        &rt,
        ShmEnv::paper_default(store).with_series_store(Arc::clone(&engine) as _),
    );
    (rt, engine)
}

fn batch(channel: usize, seq: u64) -> Vec<DataPoint> {
    (0..BATCH)
        .map(|i| DataPoint {
            ts_ms: (seq - 1) * BATCH + i,
            value: (channel as u64 * 10_000 + seq * BATCH + i) as f64,
        })
        .collect()
}

/// The ideal stream for a channel after seq `1..=ROUNDS` lands exactly
/// once; durable prefixes of it are the only legal recovery states.
fn expected_stream(channel: usize) -> Vec<(u64, f64)> {
    (1..=ROUNDS)
        .flat_map(|seq| batch(channel, seq))
        .map(|p| (p.ts_ms, p.value))
        .collect()
}

fn configure(rt: &Runtime, channels: &[String], seed: u64) {
    for c in channels {
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
}

/// One matrix cell: arm `point` at a seed-derived committed-group count,
/// drive the mixed workload until the kill fires, then prove the three
/// phases — prefix recovery, exactly-once replay, ideal end state.
fn scenario(point: CrashPoint, seed: u64) {
    let _report = SeedReport::new(seed);
    let wal_path = std::env::temp_dir().join(format!(
        "aodb-wal-crash-{}-{point:?}-{seed:x}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&wal_path);

    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let (rt, engine) = wal_platform(seed, Arc::clone(&store), &wal_path);
    let channels: Vec<String> = (0..CHANNELS).map(|i| format!("org-0/s-{i}/c-0")).collect();
    configure(&rt, &channels, seed);

    // Draining a channel takes ROUNDS sequential acks, each from a
    // distinct committed group, so any group below ROUNDS is guaranteed
    // to assemble before the streams can drain.
    let at_group = seed % (ROUNDS - 2);
    engine
        .wal()
        .expect("platform is in group-commit mode")
        .arm_crash(CrashPlan { point, at_group });

    // FIFO streams with retransmission-until-ack plus query traffic,
    // exactly the Fig-6 shape — but the driver stops the moment the
    // injected kill fires: a dead WAL can never ack, and the emulated
    // process is gone.
    let ledger = AckLedger::new();
    let mut next_seq = vec![1u64; CHANNELS];
    let mut round_no = 0u64;
    let fired = loop {
        if let Some(fired) = engine.wal().unwrap().injected_crash() {
            break fired;
        }
        if next_seq.iter().all(|&s| s > ROUNDS) {
            panic!(
                "streams drained before armed group {at_group} committed: {:?} (seed {seed:#x})",
                engine.wal().unwrap().stats()
            );
        }
        round_no += 1;
        assert!(
            round_no < 2_000,
            "crash never fired: {next_seq:?} (seed {seed:#x})"
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
        let query = rt
            .actor_ref::<PhysicalSensorChannel>(channels[round_no as usize % CHANNELS].as_str())
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
                // Retransmission path: silo kill, or the WAL died under
                // the ask. Either way the write is unacknowledged.
                Err(ActorError::SiloLost) | Err(ActorError::Lost) => {}
                Err(e) => panic!("unexpected ingest error: {e} (seed {seed:#x})"),
            }
        }
        if let Ok(p) = query {
            match p.wait_for(Duration::from_secs(10)) {
                Ok(_) | Err(ActorError::Lost) | Err(ActorError::SiloLost) => {}
                Err(e) => panic!("unexpected query error: {e} (seed {seed:#x})"),
            }
        }
    };
    assert_eq!(fired, point, "wrong crash point fired (seed {seed:#x})");
    rt.shutdown();
    drop(engine);

    // Phase 1 — prefix recovery: a cold engine over the bare store + the
    // (truncated, torn) WAL file must hold, per channel, exactly seq
    // 1..=k for some k — at least everything acked, at most everything
    // sent, whole batches only, bit-identical to the ideal prefix.
    let sent = ROUNDS * BATCH;
    let mut durable_before = [0u64; CHANNELS];
    {
        let cold = TsStore::with_wal(
            Arc::clone(&store),
            TsConfig::default(),
            wal_path.clone(),
            WalConfig::default(),
        )
        .unwrap();
        for (idx, c) in channels.iter().enumerate() {
            let series = format!("shm.channel/{c}");
            let rec = cold.recover(&series).unwrap();
            let acked = ledger.acked(c);
            assert!(
                rec.points >= acked,
                "{point:?}: channel {c} acked {acked} points but recovered {} (seed {seed:#x})",
                rec.points
            );
            assert!(
                rec.points <= sent && rec.points % BATCH == 0,
                "{point:?}: channel {c} recovered a torn count {} (seed {seed:#x})",
                rec.points
            );
            let scan = cold.scan_range(&series, 0, u64::MAX, 0).unwrap();
            assert_eq!(
                scan.as_slice(),
                &expected_stream(idx)[..rec.points as usize],
                "{point:?}: channel {c} recovered a non-prefix stream (seed {seed:#x})"
            );
            durable_before[idx] = rec.points;
        }
    }

    // Phase 2 — exactly-once replay: a second fleet over the recovered
    // state replays every batch of every stream. Durable-prefix batches
    // must be rejected (their ack rides the barrier, so even a reject is
    // a durability statement); the rest must land exactly once.
    let (rt2, engine2) = wal_platform(seed.wrapping_add(1) | 1, Arc::clone(&store), &wal_path);
    for (idx, c) in channels.iter().enumerate() {
        for seq in 1..=ROUNDS {
            let accepted = loop {
                if let Ok(p) = rt2
                    .actor_ref::<PhysicalSensorChannel>(c.as_str())
                    .ask_replayable(Ingest::deduped(batch(idx, seq), idx as u64, seq))
                {
                    if let Ok(n) = p.wait_for(Duration::from_secs(10)) {
                        break u64::from(n);
                    }
                }
            };
            if seq * BATCH <= durable_before[idx] {
                assert_eq!(
                    accepted, 0,
                    "{point:?}: channel {c} re-applied durable seq {seq} (seed {seed:#x})"
                );
            }
        }
    }
    rt2.shutdown();
    drop(engine2);

    // Phase 3 — ideal end state from storage alone: every stream is now
    // complete, in order, exactly once.
    let final_ts = TsStore::with_wal(
        Arc::clone(&store),
        TsConfig::default(),
        wal_path.clone(),
        WalConfig::default(),
    )
    .unwrap();
    for (idx, c) in channels.iter().enumerate() {
        let series = format!("shm.channel/{c}");
        assert_eq!(
            final_ts.recover(&series).unwrap().points,
            sent,
            "{point:?}: channel {c} end-state count (seed {seed:#x})"
        );
        assert_eq!(
            final_ts.scan_range(&series, 0, u64::MAX, 0).unwrap(),
            expected_stream(idx),
            "{point:?}: channel {c} end-state stream (seed {seed:#x})"
        );
    }
    drop(final_ts);
    let _ = std::fs::remove_file(&wal_path);
}

fn matrix(point: CrashPoint) {
    for seed in seeds() {
        scenario(point, seed);
    }
}

#[test]
fn crash_before_group_write_loses_nothing_acked() {
    matrix(CrashPoint::BeforeGroupWrite);
}

#[test]
fn crash_mid_group_write_truncates_tear_to_clean_prefix() {
    matrix(CrashPoint::MidGroupWrite);
}

#[test]
fn crash_after_write_before_fsync_drops_unsynced_group_unacked() {
    matrix(CrashPoint::AfterWriteBeforeFsync);
}

#[test]
fn crash_after_fsync_before_ack_keeps_durable_unacked_writes() {
    matrix(CrashPoint::AfterFsyncBeforeAck);
}

#[test]
fn crash_after_ack_preserves_every_acked_group() {
    matrix(CrashPoint::AfterAck);
}

/// The matrix is complete: a compile-time tripwire so a new
/// [`CrashPoint`] variant cannot land without a matrix row.
#[test]
fn matrix_covers_every_crash_point() {
    assert_eq!(CrashPoint::ALL.len(), 5);
}

//! Crash-mid-stream recovery over the SHM platform: a silo dies while
//! channels are ingesting, and every *acknowledged* batch must survive
//! into the reactivated channels on the surviving silos.
//!
//! The durability argument: a channel's points, stats and watermarks
//! commit through its series store, and the default one writes each
//! append's tail record before the reply is delivered — an `Ok` reply
//! therefore implies the batch is already in the store, and crash
//! eviction can only lose turns that never replied (those resolve as
//! `SiloLost` and are retried).

use std::sync::Arc;
use std::time::Duration;

use aodb_chaos::{AckLedger, SeedReport, SpreadPlacement};
use aodb_runtime::{ActorError, CallError, Runtime, RuntimeBuilder, SiloId};
use aodb_shm::messages::{ConfigureChannel, GetChannelStats, Ingest};
use aodb_shm::types::{DataPoint, Threshold};
use aodb_shm::{register_all, PhysicalSensorChannel, ShmEnv};
use aodb_store::MemStore;

const SILOS: usize = 3;

fn build() -> Runtime {
    let rt = RuntimeBuilder::new()
        .silos(SILOS, 2)
        .placement(SpreadPlacement)
        .build();
    register_all(&rt, ShmEnv::paper_default(Arc::new(MemStore::new())));
    rt
}

fn configure(rt: &Runtime, channel: &str) {
    rt.actor_ref::<PhysicalSensorChannel>(channel)
        .call(ConfigureChannel {
            org: "org-0".into(),
            sensor: "org-0/s-0".into(),
            threshold: Threshold::default(),
            subscribers: Vec::new(),
        })
        .unwrap();
}

fn batch(seq: u64) -> Vec<DataPoint> {
    (0..5)
        .map(|i| DataPoint {
            ts_ms: seq * 5 + i,
            value: (seq * 5 + i) as f64,
        })
        .collect()
}

#[test]
fn acknowledged_ingest_survives_silo_crash() {
    let _report = SeedReport::new(aodb_chaos::env_seed(0xC4A5));
    let rt = build();
    let victim = SiloId(1);

    let channels: Vec<String> = (0..12).map(|i| format!("org-0/s-{i}/c-0")).collect();
    for c in &channels {
        configure(&rt, c);
    }
    // The kill must actually hit channels, or the test proves nothing.
    let on_victim = channels
        .iter()
        .filter(|c| {
            let r = rt.actor_ref::<PhysicalSensorChannel>(c.as_str());
            SpreadPlacement::silo_of(r.id(), SILOS) == victim
        })
        .count();
    assert!(on_victim > 0, "no test channel lives on the victim silo");

    let ledger = AckLedger::new();
    let mut seq = 0u64;
    let ingest_round = |rt: &Runtime, ledger: &AckLedger, seq: &mut u64| {
        for c in &channels {
            *seq += 1;
            let points = batch(*seq);
            let units = points.len() as u64;
            match rt
                .actor_ref::<PhysicalSensorChannel>(c.as_str())
                .call(Ingest::new(points))
            {
                Ok(accepted) => {
                    assert_eq!(accepted as u64, units);
                    ledger.ack(c, units);
                }
                Err(CallError::Reply(ActorError::SiloLost))
                | Err(CallError::Reply(ActorError::Lost)) => {
                    // Never ran: not acknowledged, nothing to record.
                }
                Err(e) => panic!("unexpected ingest error: {e}"),
            }
        }
    };

    for _ in 0..4 {
        ingest_round(&rt, &ledger, &mut seq);
    }
    let report = rt.kill_silo(victim);
    assert!(report.evicted_activations > 0, "kill evicted nothing");
    // Keep ingesting through the outage (re-placement onto survivors)…
    for _ in 0..4 {
        ingest_round(&rt, &ledger, &mut seq);
    }
    // …and after the node returns.
    assert!(rt.restart_silo(victim));
    for _ in 0..4 {
        ingest_round(&rt, &ledger, &mut seq);
    }

    assert!(rt.quiesce(Duration::from_secs(5)));
    // Every acknowledged batch is present exactly once in the reactivated
    // channels — nothing lost to the crash, nothing double-applied by the
    // sequential retries.
    let verdict = ledger.verify_exact(|c| {
        rt.actor_ref::<PhysicalSensorChannel>(c)
            .call(GetChannelStats)
            .unwrap()
            .total_points
    });
    assert_eq!(verdict, Ok(()), "acknowledged writes lost");

    let metrics = rt.metrics();
    assert_eq!(metrics.silo_crashes, 1);
    assert!(
        metrics.reactivations > 0,
        "no evicted channel ever reactivated"
    );
    rt.shutdown();
}

#[test]
fn crash_mid_turn_loses_only_unacknowledged_work() {
    let _report = SeedReport::new(aodb_chaos::env_seed(0xC4A6));
    let rt = RuntimeBuilder::new()
        .silos(SILOS, 2)
        .placement(SpreadPlacement)
        .build();
    let mut env = ShmEnv::paper_default(Arc::new(MemStore::new()));
    // Slow turns keep the mailbox busy so the kill lands mid-stream.
    env.ingest_service_time = Some(Duration::from_micros(300));
    register_all(&rt, env);

    let victim = SiloId(2);
    let channel = (0..10_000)
        .map(|i| format!("org-0/s-{i}/c-0"))
        .find(|c| {
            let r = rt.actor_ref::<PhysicalSensorChannel>(c.as_str());
            SpreadPlacement::silo_of(r.id(), SILOS) == victim
        })
        .expect("some key hashes onto the victim");
    configure(&rt, &channel);

    let ledger = AckLedger::new();
    let r = rt.actor_ref::<PhysicalSensorChannel>(channel.as_str());
    // Pipeline a deep queue, then kill the silo under it.
    let promises: Vec<_> = (0..60)
        .map(|seq| (seq, r.ask(Ingest::new(batch(seq))).unwrap()))
        .collect();
    std::thread::sleep(Duration::from_millis(2));
    rt.kill_silo(victim);

    let mut lost = 0u64;
    for (seq, p) in promises {
        match p.wait_for(Duration::from_secs(10)) {
            Ok(accepted) => {
                assert_eq!(accepted as usize, batch(seq).len());
                ledger.ack(&channel, accepted as u64);
            }
            Err(ActorError::SiloLost) => lost += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(lost > 0, "kill never interfered — test proves nothing");

    // The reactivated channel (on a surviving silo) holds exactly the
    // acknowledged prefix: each acked batch was appended before its
    // reply, and the lost tail never ran.
    assert!(rt.quiesce(Duration::from_secs(5)));
    let verdict = ledger.verify_exact(|c| {
        rt.actor_ref::<PhysicalSensorChannel>(c)
            .call(GetChannelStats)
            .unwrap()
            .total_points
    });
    assert_eq!(verdict, Ok(()), "acknowledged prefix damaged by crash");
    rt.shutdown();
}

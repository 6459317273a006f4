//! Duplicate-delivery idempotence, property-tested over chaos seeds:
//! the network layer re-delivers replayable messages at random, and the
//! platforms must apply each logical operation exactly once — SHM ingest
//! through per-source dedup watermarks, cattle ownership transfer
//! through workflow idempotence tokens.

use std::sync::Arc;
use std::time::Duration;

use aodb_chaos::{ChaosNetConfig, FaultPlan, SeedReport};
use aodb_core::WorkflowOutcome;
use aodb_runtime::{LatencyModel, NetConfig, Runtime, RuntimeBuilder};
use aodb_shm::messages::{ConfigureChannel, GetChannelStats, Ingest};
use aodb_shm::types::{DataPoint, Threshold};
use aodb_shm::{PhysicalSensorChannel, ShmEnv};
use aodb_store::MemStore;
use proptest::prelude::*;

/// A runtime whose client hop duplicates replayable messages (and only
/// duplicates — drops or delays would blur the exactly-once assertion).
fn duplicating_runtime(seed: u64) -> Runtime {
    let plan = FaultPlan::new(seed).with_net(ChaosNetConfig {
        drop_per_mille: 0,
        duplicate_per_mille: 500,
        delay_per_mille: 0,
        max_extra_delay: Duration::ZERO,
    });
    RuntimeBuilder::new()
        .silos(1, 2)
        .network(NetConfig {
            cross_silo: None,
            client: Some(LatencyModel::fixed(Duration::from_micros(20))),
        })
        .chaos(plan)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// SHM ingest: `(source, seq)` tokens make redelivery invisible. 30
    /// deduped batches of 5 points go through a duplicating network; the
    /// channel must hold exactly 150 points however many copies arrived.
    #[test]
    fn shm_ingest_applies_once_under_duplication(seed in any::<u64>()) {
        let _report = SeedReport::new(seed);
        let rt = duplicating_runtime(seed);
        aodb_shm::register_all(&rt, ShmEnv::paper_default(Arc::new(MemStore::new())));

        let r = rt.actor_ref::<PhysicalSensorChannel>("org-0/s-0/c-0");
        r.call(ConfigureChannel {
            org: "org-0".into(),
            sensor: "org-0/s-0".into(),
            threshold: Threshold::default(),
            subscribers: Vec::new(),
        })
        .unwrap();

        for seq in 1..=30u64 {
            let points: Vec<DataPoint> = (0..5)
                .map(|i| DataPoint { ts_ms: seq * 5 + i, value: i as f64 })
                .collect();
            r.tell_replayable(Ingest::deduped(points, 1, seq)).unwrap();
        }
        prop_assert!(rt.quiesce(Duration::from_secs(10)));

        let stats = rt.chaos_stats().expect("chaos installed");
        prop_assert!(stats.duplicated > 0, "no duplicate was ever injected");
        let total = r.call(GetChannelStats).unwrap().total_points;
        prop_assert_eq!(
            total, 150,
            "dedup failed: {} points after {} duplicates (seed {:#x})",
            total, stats.duplicated, seed
        );
        rt.shutdown();
    }

    /// Cattle ownership transfer: redelivering the same `transfer_id`
    /// (client retry, duplicated submission) must move the cow exactly
    /// once — herd lists stay sets, provenance shows one transfer.
    #[test]
    fn cattle_transfer_applies_once_under_redelivery(
        seed in any::<u64>(),
        resubmits in 1usize..4,
    ) {
        let _report = SeedReport::new(seed);
        // Delay-only chaos shuffles timing without losing messages, so
        // every workflow submission resolves.
        let plan = FaultPlan::new(seed).with_net(ChaosNetConfig {
            drop_per_mille: 0,
            duplicate_per_mille: 0,
            delay_per_mille: 400,
            max_extra_delay: Duration::from_micros(800),
        });
        let rt = RuntimeBuilder::new()
            .silos(1, 2)
            .network(NetConfig {
                cross_silo: None,
                client: Some(LatencyModel::fixed(Duration::from_micros(20))),
            })
            .chaos(plan)
            .build();
        let env = aodb_cattle::CattleEnv::new(Arc::new(MemStore::new()));
        aodb_cattle::register_all(&rt, env);
        let client = aodb_cattle::CattleClient::new(rt.handle());

        client.create_farmer("farmer-a", "A").unwrap();
        client.create_farmer("farmer-b", "B").unwrap();
        client
            .register_cow("cow-1", "farmer-a", aodb_cattle::types::Breed::Angus, 0)
            .unwrap();
        prop_assert!(rt.quiesce(Duration::from_secs(10)));

        for _ in 0..resubmits {
            let outcome = client
                .transfer_cow_workflow("xfer-1", "cow-1", "farmer-a", "farmer-b")
                .unwrap()
                .wait_for(Duration::from_secs(10))
                .unwrap();
            prop_assert_eq!(outcome, WorkflowOutcome::Completed);
        }
        prop_assert!(rt.quiesce(Duration::from_secs(10)));

        let herd_a = client.herd("farmer-a").unwrap().wait().unwrap();
        let herd_b = client.herd("farmer-b").unwrap().wait().unwrap();
        prop_assert!(herd_a.is_empty(), "cow still at origin: {:?}", herd_a);
        prop_assert_eq!(herd_b, vec!["cow-1".to_string()]);
        let info = client.cow_info("cow-1").unwrap().wait().unwrap();
        prop_assert_eq!(info.farmer, "farmer-b");
        rt.shutdown();
    }
}

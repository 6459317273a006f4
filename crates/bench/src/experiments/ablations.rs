//! Ablation experiments for the design choices the paper calls out:
//! placement strategy (§5), actor vs. non-actor granularity for
//! frequently accessed entities (§4.3), and constraint enforcement
//! mechanism (§4.4).

use std::sync::Arc;
use std::time::{Duration, Instant};

use aodb_cattle::meatcut::{AddItinerary, GetCutInfo, InitMeatCut, MeatCut};
use aodb_cattle::model_b::{CreateCutB, SnapshotCuts, TransferCutB};
use aodb_cattle::types::{Breed, ItineraryEntry, MeatCutData};
use aodb_cattle::{register_all as register_cattle, CattleClient, CattleEnv, CutHolder};
use aodb_core::{TxnOutcome, WorkflowOutcome};
use aodb_runtime::{
    gather, ConsistentHashPlacement, NetConfig, Placement, PreferLocalPlacement, RandomPlacement,
    Runtime,
};
use aodb_shm::{provision, register_all as register_shm, ShmEnv, Topology, TopologySpec};
use aodb_store::{MemStore, StateStore};
use serde::Serialize;

use crate::experiments::common::SimHw;
use crate::measure::{fmt_f, print_table, LatencyRow, WindowedThroughput};
use crate::workload::{run_load, FleetRefs, LoadConfig};

const SILO_OF_4: fn(usize) -> Option<aodb_runtime::SiloId> =
    |org| Some(aodb_runtime::SiloId((org % 4) as u32));

// ---------------------------------------------------------------- placement

/// One placement-strategy measurement.
#[derive(Clone, Debug, Serialize)]
pub struct PlacementPoint {
    /// Strategy name.
    pub strategy: String,
    /// Sustained throughput.
    pub throughput: WindowedThroughput,
    /// Ingest latency.
    pub ingest: LatencyRow,
    /// Fraction of messages that crossed silos.
    pub remote_fraction: f64,
}

fn run_placement_one(placement: impl Placement, name: &str, quick: bool) -> PlacementPoint {
    let hw = SimHw::default();
    let sensors = 2_000; // 4 silos × 2 workers → 50 % utilization
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let rt = Runtime::builder()
        .silos(4, hw.large_workers)
        .placement(placement)
        .network(NetConfig::lan())
        .build();
    register_shm(
        &rt,
        ShmEnv::paper_default(Arc::clone(&store)).with_service_time(hw.service_time),
    );
    let topology = Topology::layout(sensors, TopologySpec::default());
    provision(&rt, &topology, SILO_OF_4).expect("provision");
    let fleet = FleetRefs::build(&rt, &topology, SILO_OF_4);

    let report = run_load(
        &fleet,
        LoadConfig::sensors(sensors, if quick { 5 } else { 8 }),
    );
    let metrics = rt.metrics();
    let total = (metrics.remote_messages + metrics.local_messages).max(1);
    let point = PlacementPoint {
        strategy: name.to_string(),
        throughput: report.throughput,
        ingest: report.ingest,
        remote_fraction: metrics.remote_messages as f64 / total as f64,
    };
    rt.shutdown_with_drain(Duration::from_secs(10));
    point
}

/// Placement ablation: random (Orleans default) vs prefer-local (the
/// paper's choice for channels/aggregators) vs consistent hashing.
pub fn run_placement(quick: bool) -> Vec<PlacementPoint> {
    println!(
        "\nAblation: activation placement — 4 silos, LAN, 2,000 sensors, gateways silo-affine"
    );
    let points = vec![
        run_placement_one(RandomPlacement, "random", quick),
        run_placement_one(PreferLocalPlacement, "prefer-local", quick),
        run_placement_one(ConsistentHashPlacement, "consistent-hash", quick),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.strategy.clone(),
                format!(
                    "{} ± {}",
                    fmt_f(p.throughput.mean),
                    fmt_f(p.throughput.std_dev)
                ),
                fmt_f(p.ingest.p50_ms),
                fmt_f(p.ingest.p99_ms),
                format!("{:.1}%", p.remote_fraction * 100.0),
            ]
        })
        .collect();
    print_table(
        "Placement ablation (§5)",
        &[
            "strategy",
            "throughput req/s",
            "p50 ms",
            "p99 ms",
            "remote msgs",
        ],
        &rows,
    );
    points
}

// -------------------------------------------------------------- granularity

/// One granularity-model measurement.
#[derive(Clone, Debug, Serialize)]
pub struct GranularityPoint {
    /// Model label.
    pub model: String,
    /// Aggregate "all my cuts" reads per second.
    pub batch_reads_per_sec: f64,
    /// Cut transfers per second.
    pub transfers_per_sec: f64,
    /// Runtime messages needed per batch read.
    pub messages_per_batch_read: f64,
}

/// Granularity ablation (§4.3): meat cuts as actors (model A) vs
/// versioned non-actor objects in holder actors (model B). The contrasted
/// operation is the one the paper motivates: a participant reading
/// information about *all* the cuts it is responsible for.
pub fn run_granularity(quick: bool) -> Vec<GranularityPoint> {
    println!("\nAblation: actor vs non-actor objects for meat cuts (§4.3)");
    let n_cuts = if quick { 200 } else { 500 };
    let reads = if quick { 200 } else { 500 };

    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let rt = Runtime::single(2);
    register_cattle(&rt, CattleEnv::new(Arc::clone(&store)));

    let cut_data = |i: usize| MeatCutData {
        cow: format!("cow-{i}"),
        slaughterhouse: "house".into(),
        cut_type: "ribeye".into(),
        weight_kg: 10.0,
    };

    // --- Model A: one actor per cut.
    let cut_refs: Vec<_> = (0..n_cuts)
        .map(|i| rt.actor_ref::<MeatCut>(format!("a/cut-{i}")))
        .collect();
    for (i, cut) in cut_refs.iter().enumerate() {
        cut.tell(InitMeatCut(cut_data(i))).unwrap();
    }
    rt.quiesce(Duration::from_secs(20));

    let msgs_before = rt.metrics().messages_processed;
    let t0 = Instant::now();
    for _ in 0..reads {
        // "Distributor reads all its cuts": fan-out over every cut actor.
        let (collector, promise) = gather::<aodb_cattle::CutInfo>(cut_refs.len());
        for cut in &cut_refs {
            cut.ask_with(GetCutInfo, collector.slot()).unwrap();
        }
        promise.wait_for(Duration::from_secs(30)).unwrap();
    }
    let a_read_elapsed = t0.elapsed();
    let a_msgs = (rt.metrics().messages_processed - msgs_before) as f64 / reads as f64;

    let t0 = Instant::now();
    for cut in &cut_refs {
        cut.tell(AddItinerary(ItineraryEntry {
            delivery: "d".into(),
            from: "house".into(),
            to: "dist".into(),
            arrived_ms: 1,
        }))
        .unwrap();
    }
    rt.quiesce(Duration::from_secs(20));
    let a_transfer_elapsed = t0.elapsed();

    // --- Model B: versioned objects inside one holder per stage.
    let house = rt.actor_ref::<CutHolder>("b/house");
    let dist = rt.actor_ref::<CutHolder>("b/dist");
    for i in 0..n_cuts {
        house
            .tell(CreateCutB {
                entity: format!("cut-{i}"),
                data: cut_data(i),
            })
            .unwrap();
    }
    rt.quiesce(Duration::from_secs(20));

    let msgs_before = rt.metrics().messages_processed;
    let t0 = Instant::now();
    for _ in 0..reads {
        // Same aggregate read: one message, local state access.
        let snapshot = house.call(SnapshotCuts).unwrap();
        assert_eq!(snapshot.len(), n_cuts);
    }
    let b_read_elapsed = t0.elapsed();
    let b_msgs = (rt.metrics().messages_processed - msgs_before) as f64 / reads as f64;

    let t0 = Instant::now();
    for i in 0..n_cuts {
        house
            .tell(TransferCutB {
                entity: format!("cut-{i}"),
                to: "b/dist".into(),
                ts_ms: 1,
            })
            .unwrap();
    }
    rt.quiesce(Duration::from_secs(20));
    let b_transfer_elapsed = t0.elapsed();
    drop(dist);

    let points = vec![
        GranularityPoint {
            model: "A: cut actors".into(),
            batch_reads_per_sec: reads as f64 / a_read_elapsed.as_secs_f64(),
            transfers_per_sec: n_cuts as f64 / a_transfer_elapsed.as_secs_f64(),
            messages_per_batch_read: a_msgs,
        },
        GranularityPoint {
            model: "B: versioned objects".into(),
            batch_reads_per_sec: reads as f64 / b_read_elapsed.as_secs_f64(),
            transfers_per_sec: n_cuts as f64 / b_transfer_elapsed.as_secs_f64(),
            messages_per_batch_read: b_msgs,
        },
    ];
    rt.shutdown();

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.model.clone(),
                fmt_f(p.batch_reads_per_sec),
                fmt_f(p.transfers_per_sec),
                fmt_f(p.messages_per_batch_read),
            ]
        })
        .collect();
    print_table(
        "Granularity ablation (§4.3) — 500-cut holder",
        &[
            "model",
            "batch reads/s",
            "transfers/s",
            "msgs per batch read",
        ],
        &rows,
    );
    points
}

// -------------------------------------------------------------- constraints

/// One constraint-mechanism measurement.
#[derive(Clone, Debug, Serialize)]
pub struct ConstraintPoint {
    /// Mechanism label.
    pub mechanism: String,
    /// Ownership transfers per second.
    pub transfers_per_sec: f64,
    /// Mean latency per transfer (ms).
    pub mean_latency_ms: f64,
    /// Whether the mechanism is atomic.
    pub atomic: bool,
}

/// Constraint-enforcement ablation (§4.4): 2PC transaction vs multi-actor
/// workflow vs single-actor update for cow ownership transfer.
pub fn run_constraints(quick: bool) -> Vec<ConstraintPoint> {
    println!("\nAblation: cross-actor constraint enforcement (§4.4)");
    let transfers = if quick { 100 } else { 300 };

    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let rt = Runtime::single(4);
    register_cattle(&rt, CattleEnv::new(Arc::clone(&store)));
    let client = CattleClient::new(rt.handle());
    client.create_farmer("farm-a", "A").unwrap();
    client.create_farmer("farm-b", "B").unwrap();
    for i in 0..3 {
        client
            .register_cow(&format!("cx-{i}"), "farm-a", Breed::Angus, 0)
            .unwrap();
    }
    rt.quiesce(Duration::from_secs(10));

    // 2PC: bounce cow cx-0 between the farms.
    let t0 = Instant::now();
    for i in 0..transfers {
        let (from, to) = if i % 2 == 0 {
            ("farm-a", "farm-b")
        } else {
            ("farm-b", "farm-a")
        };
        let outcome = client
            .transfer_cow_txn("cx-0", from, to)
            .unwrap()
            .wait_for(Duration::from_secs(10))
            .unwrap();
        assert_eq!(outcome, TxnOutcome::Committed);
    }
    let txn_elapsed = t0.elapsed();

    // Workflow: bounce cow cx-1.
    let t0 = Instant::now();
    for i in 0..transfers {
        let (from, to) = if i % 2 == 0 {
            ("farm-a", "farm-b")
        } else {
            ("farm-b", "farm-a")
        };
        let outcome = client
            .transfer_cow_workflow(&format!("wf-{i}"), "cx-1", from, to)
            .unwrap()
            .wait_for(Duration::from_secs(10))
            .unwrap();
        assert_eq!(outcome, WorkflowOutcome::Completed);
    }
    let wf_elapsed = t0.elapsed();

    // Single-actor: ownership lives only in the cow (herd lists derived
    // offline) — one message per transfer.
    use aodb_cattle::cow::{Cow, InitCow};
    let cow = rt.actor_ref::<Cow>("cx-2");
    let t0 = Instant::now();
    for i in 0..transfers {
        let to = if i % 2 == 0 { "farm-b" } else { "farm-a" };
        cow.call(InitCow {
            farmer: to.to_string(),
            breed: Breed::Angus,
            born_ms: 0,
        })
        .unwrap();
    }
    let single_elapsed = t0.elapsed();
    rt.shutdown();

    let mk = |mechanism: &str, elapsed: Duration, atomic: bool| ConstraintPoint {
        mechanism: mechanism.to_string(),
        transfers_per_sec: transfers as f64 / elapsed.as_secs_f64(),
        mean_latency_ms: elapsed.as_secs_f64() * 1000.0 / transfers as f64,
        atomic,
    };
    let points = vec![
        mk("2PC transaction", txn_elapsed, true),
        mk("multi-actor workflow", wf_elapsed, false),
        mk("single-actor update", single_elapsed, true),
    ];
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.mechanism.clone(),
                fmt_f(p.transfers_per_sec),
                fmt_f(p.mean_latency_ms),
                if p.atomic { "yes" } else { "eventual" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Constraint-enforcement ablation (§4.4)",
        &["mechanism", "transfers/s", "mean ms", "atomic"],
        &rows,
    );
    points
}

//! Shared experiment scaffolding: the simulated hardware profile and
//! platform construction helpers.

use std::sync::Arc;
use std::time::Duration;

use aodb_runtime::{NetConfig, Placement, PreferLocalPlacement, Runtime, SiloId};
use aodb_shm::{provision, register_all, ShmEnv, Topology, TopologySpec};
use aodb_store::{MemStore, StateStore};

use crate::workload::FleetRefs;

/// The simulated hardware profile mapping the paper's EC2 instances onto
/// worker counts and a per-ingest service time.
///
/// * m5.large (2 vCPU)   → 2 workers; capacity ≈ 2 / (2 × 0.5 ms)
///   = 2,000 sensor-requests/s — matching the ≈1,800 req/s the paper
///   measures in Figure 6.
/// * m5.xlarge (1.5× ECU) → 3 workers; capacity ≈ 3,000 sensor-requests/s.
///
/// The service time *sleeps* the worker, so silo capacity is governed by
/// worker count rather than host cores — the paper's cluster behaviour is
/// preserved even on a single-core reproduction host (see
/// `ShmEnv::ingest_service_time`).
#[derive(Clone, Copy, Debug)]
pub struct SimHw {
    /// Worker threads of an m5.large-class silo.
    pub large_workers: usize,
    /// Worker threads of an m5.xlarge-class silo (the paper's 1.5× ECU).
    pub xlarge_workers: usize,
    /// Simulated service time of one channel-ingest.
    pub service_time: Duration,
}

impl Default for SimHw {
    fn default() -> Self {
        SimHw {
            large_workers: 2,
            xlarge_workers: 3,
            service_time: Duration::from_micros(500),
        }
    }
}

impl SimHw {
    /// Estimated saturation throughput (sensor-requests/s) of a silo with
    /// `workers` workers, given 2 channel-ingests per sensor request.
    pub fn capacity(&self, workers: usize) -> f64 {
        workers as f64 / (2.0 * self.service_time.as_secs_f64())
    }
}

/// A fully provisioned SHM platform ready for load.
pub struct Testbed {
    /// The runtime (dropping it shuts the platform down).
    pub rt: Runtime,
    /// The fleet layout.
    pub topology: Topology,
    /// Pre-resolved request targets.
    pub fleet: FleetRefs,
    /// The backing store.
    pub store: Arc<dyn StateStore>,
}

/// Builds a platform: `silos` silos of `workers` each, organizations
/// pinned round-robin to silos (prefer-local), optional simulated LAN.
pub fn build_testbed(
    sensors: usize,
    silos: usize,
    workers: usize,
    hw: SimHw,
    net: NetConfig,
    placement: impl Placement,
    spec: TopologySpec,
) -> Testbed {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let rt = Runtime::builder()
        .silos(silos, workers)
        .placement(placement)
        .network(net)
        .max_batch(8)
        .build();
    register_all(
        &rt,
        ShmEnv::paper_default(Arc::clone(&store)).with_service_time(hw.service_time),
    );
    let topology = Topology::layout(sensors, spec);
    let silo_of_org = |org: usize| Some(SiloId((org % silos) as u32));
    provision(&rt, &topology, silo_of_org).expect("provisioning failed");
    let fleet = FleetRefs::build(&rt, &topology, silo_of_org);
    Testbed {
        rt,
        topology,
        fleet,
        store,
    }
}

/// Single-silo convenience.
pub fn build_single_silo(sensors: usize, workers: usize, hw: SimHw) -> Testbed {
    build_testbed(
        sensors,
        1,
        workers,
        hw,
        NetConfig::disabled(),
        PreferLocalPlacement,
        TopologySpec::default(),
    )
}

/// Tears a testbed down with a drain budget scaled to possible backlog.
pub fn teardown(testbed: Testbed) {
    testbed.rt.shutdown_with_drain(Duration::from_secs(15));
}

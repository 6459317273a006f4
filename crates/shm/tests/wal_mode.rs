//! The SHM platform with the tseries engine over a WAL file: the
//! engine's group counters (`TsStore::wal_stats`) see the platform's
//! ingest coalesced into groups. (Ingest, duplicate-reject and
//! ungraceful-restart behaviour is checked for every series store in
//! `platform_behavior.rs`.)

use std::sync::Arc;
use std::time::Duration;

use aodb_runtime::Runtime;
use aodb_shm::types::DataPoint;
use aodb_shm::{provision, register_all, ShmClient, ShmEnv, Topology, TopologySpec};
use aodb_store::tseries::{TsConfig, TsStore};
use aodb_store::{MemStore, StateStore, WalConfig};

fn dp(ts_ms: u64, value: f64) -> DataPoint {
    DataPoint { ts_ms, value }
}

fn temp_wal(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("aodb-shm-wal-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("shm.wal")
}

/// Platform over `store` with the engine in WAL mode.
fn wal_platform(
    store: &Arc<dyn StateStore>,
    wal_path: &std::path::Path,
    sensors: usize,
) -> (Runtime, Topology, Arc<TsStore>) {
    let engine = Arc::new(
        TsStore::with_wal(
            Arc::clone(store),
            TsConfig::default(),
            wal_path,
            WalConfig::default(),
        )
        .unwrap(),
    );
    let env = ShmEnv::paper_default(Arc::clone(store)).with_series_store(Arc::clone(&engine) as _);
    let rt = Runtime::single(4);
    register_all(&rt, env);
    let topology = Topology::layout(sensors, TopologySpec::default());
    provision(&rt, &topology, |_| None).unwrap();
    (rt, topology, engine)
}

#[test]
fn wal_stats_count_the_platforms_group_commits() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let wal = temp_wal("metrics");
    let (rt, topology, engine) = wal_platform(&store, &wal, 4);
    let client = ShmClient::new(rt.handle());
    let channels: Vec<String> = topology
        .physical_channels()
        .map(|c| c.to_string())
        .collect();

    // Several concurrent ingests per channel so the committer sees
    // frames from distinct series in flight together.
    let mut pending = Vec::new();
    for round in 0..10u64 {
        for ch in &channels {
            let points: Vec<DataPoint> = (0..8).map(|i| dp(round * 100 + i, i as f64)).collect();
            pending.push(client.ingest(ch, points).unwrap());
        }
    }
    for p in pending {
        p.wait_for(Duration::from_secs(10)).unwrap();
    }

    let stats = engine.wal_stats();
    assert!(stats.groups > 0, "groups committed: {}", stats.groups);
    assert!(
        stats.frames >= stats.groups,
        "every group carries at least one frame"
    );
    assert!(stats.fsyncs > 0, "PerGroup policy fsyncs each group");
    assert!(stats.mean_group_size() >= 1.0);
    rt.shutdown();
    let _ = std::fs::remove_dir_all(wal.parent().unwrap());
}

//! Full-stack integration: both case-study platforms co-hosted on one
//! multi-silo runtime, backed by the durable log-structured store, with a
//! process-restart durability check — the complete architecture of the
//! paper's Section 5 (actor runtime + cloud storage system) end to end.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use iot_aodb::cattle;
use iot_aodb::cattle::types::Breed;
use iot_aodb::cattle::{CattleClient, CattleEnv};
use iot_aodb::core::{IndexClient, IndexMode, IndexShard, KeyRegistry, RegisterKey};
use iot_aodb::runtime::{NetConfig, PreferLocalPlacement, Runtime, SiloId};
use iot_aodb::shm;
use iot_aodb::shm::types::DataPoint;
use iot_aodb::shm::{ShmClient, ShmEnv, Topology, TopologySpec};
use iot_aodb::store::tseries::{TsConfig, TsStore};
use iot_aodb::store::{Key, LogStore, LogStoreConfig, StateStore, WalConfig};

const T: Duration = Duration::from_secs(15);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iot-aodb-fullstack-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The SHM env over `store`, its series durable through a WAL file in
/// `dir`, next to the state store's own files.
fn durable_shm(store: &Arc<dyn StateStore>, dir: &Path) -> ShmEnv {
    let series = TsStore::with_wal(
        Arc::clone(store),
        TsConfig::default(),
        dir.join("tseries.wal"),
        WalConfig::default(),
    )
    .unwrap();
    ShmEnv::paper_default(Arc::clone(store)).with_series_store(Arc::new(series))
}

fn build_runtime(store: &Arc<dyn StateStore>, shm_env: ShmEnv) -> Runtime {
    let rt = Runtime::builder()
        .silos(2, 2)
        .placement(PreferLocalPlacement)
        .network(NetConfig::lan())
        .build();
    shm::register_all(&rt, shm_env);
    cattle::register_all(&rt, CattleEnv::new(Arc::clone(store)));
    IndexShard::register(&rt, Arc::clone(store));
    KeyRegistry::register(&rt, Arc::clone(store));
    rt
}

#[test]
fn both_platforms_share_one_runtime_and_survive_restart() {
    let dir = temp_dir("shared");
    let topology = Topology::layout(20, TopologySpec::default());
    let channel_key;
    let product;

    // ---- Phase 1: populate both platforms, then shut down.
    {
        let store: Arc<dyn StateStore> =
            Arc::new(LogStore::open(LogStoreConfig::new(&dir)).unwrap());
        let rt = build_runtime(&store, durable_shm(&store, &dir));
        shm::provision(&rt, &topology, |org| Some(SiloId((org % 2) as u32))).unwrap();

        // SHM traffic.
        let shm_client = ShmClient::new(rt.handle_on(SiloId(0)));
        channel_key = topology.physical_channels().next().unwrap().to_string();
        shm_client
            .ingest(
                &channel_key,
                (0..100)
                    .map(|i| DataPoint {
                        ts_ms: i * 100,
                        value: i as f64,
                    })
                    .collect(),
            )
            .unwrap()
            .wait_for(T)
            .unwrap();

        // Cattle traffic on the same runtime and the same store.
        let cc = CattleClient::new(rt.handle());
        cc.create_farmer("fs/farm", "F").unwrap();
        cc.register_cow("fs/cow", "fs/farm", Breed::Angus, 0)
            .unwrap();
        cc.create_slaughterhouse("fs/house", "H").unwrap();
        cc.create_retailer("fs/retail", "R").unwrap();
        let cuts = cc
            .slaughter("fs/house", "fs/cow", 10)
            .unwrap()
            .wait_for(T)
            .unwrap()
            .unwrap();
        product = cc
            .create_product("fs/retail", cuts, "pack", 20)
            .unwrap()
            .wait_for(T)
            .unwrap();

        // An index over cattle breed, maintained synchronously.
        let idx = IndexClient::new(rt.handle(), "breed", 4);
        idx.update("fs/cow", None, Some("angus"), IndexMode::Synchronous)
            .unwrap()
            .wait_for(T)
            .unwrap();
        let reg = rt.actor_ref::<KeyRegistry>("all-cows");
        reg.call(RegisterKey("fs/cow".into())).unwrap();

        assert!(rt.quiesce(T));
        rt.shutdown(); // flushes every activation to the log store
    }

    // ---- Phase 2: cold start from disk; everything must be there.
    {
        let store: Arc<dyn StateStore> =
            Arc::new(LogStore::open(LogStoreConfig::new(&dir)).unwrap());
        let rt = build_runtime(&store, durable_shm(&store, &dir));

        let shm_client = ShmClient::new(rt.handle());
        let stats = shm_client
            .channel_stats(&channel_key)
            .unwrap()
            .wait_for(T)
            .unwrap();
        assert_eq!(
            stats.total_points, 100,
            "channel window must survive restart"
        );

        let cc = CattleClient::new(rt.handle());
        let report = cc.trace_product(&product).unwrap();
        assert_eq!(report.farms(), vec!["fs/farm"]);
        assert_eq!(report.cuts.len(), cattle::CUT_TYPES.len());

        let idx = IndexClient::new(rt.handle(), "breed", 4);
        assert_eq!(
            idx.lookup("angus").unwrap().wait_for(T).unwrap(),
            vec!["fs/cow"]
        );
        let reg = rt.actor_ref::<KeyRegistry>("all-cows");
        assert_eq!(reg.call(iot_aodb::core::ListKeys).unwrap(), vec!["fs/cow"]);

        rt.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenants_are_isolated_in_storage_namespaces() {
    // Multi-tenancy (non-functional requirement 2/7): the storage keys of
    // different actor types and instances live in disjoint namespaces, so
    // a tenant-scoped scan never observes another tenant's state.
    let dir = temp_dir("tenancy");
    let store = Arc::new(LogStore::open(LogStoreConfig::new(&dir)).unwrap());
    {
        let dyn_store: Arc<dyn StateStore> = Arc::clone(&store) as Arc<dyn StateStore>;
        let rt = build_runtime(&dyn_store, durable_shm(&dyn_store, &dir));
        let topology = Topology::layout(200, TopologySpec::default()); // 2 orgs
        shm::provision(&rt, &topology, |_| None).unwrap();
        rt.shutdown();
    }
    // Channel state blobs are partitioned by actor type; each org's keys
    // carry its own prefix inside the sort component.
    let all = store
        .scan_prefix(&Key::namespace_prefix("actor-state"))
        .unwrap();
    assert!(!all.is_empty());
    let org0: Vec<_> = all
        .iter()
        .filter(|(k, _)| k.to_string().contains("org-0/"))
        .collect();
    let org1: Vec<_> = all
        .iter()
        .filter(|(k, _)| k.to_string().contains("org-1/"))
        .collect();
    assert!(!org0.is_empty() && !org1.is_empty());
    assert!(org0.iter().all(|(k, _)| !k.to_string().contains("org-1/")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shm_and_cattle_do_not_interfere_under_concurrent_load() {
    let store: Arc<dyn StateStore> = Arc::new(iot_aodb::store::MemStore::new());
    let rt = build_runtime(&store, ShmEnv::paper_default(Arc::clone(&store)));
    let topology = Topology::layout(10, TopologySpec::default());
    shm::provision(&rt, &topology, |_| None).unwrap();
    let cc = CattleClient::new(rt.handle());
    cc.create_farmer("cl/farm", "F").unwrap();
    for i in 0..20 {
        cc.register_cow(&format!("cl/cow-{i}"), "cl/farm", Breed::Nelore, 0)
            .unwrap();
    }

    let shm_client = ShmClient::new(rt.handle());
    let channels: Vec<String> = topology.physical_channels().map(str::to_string).collect();
    let shm_thread = {
        let client = shm_client.clone();
        let channels = channels.clone();
        std::thread::spawn(move || {
            for round in 0..50u64 {
                for c in &channels {
                    client
                        .ingest(
                            c,
                            vec![DataPoint {
                                ts_ms: round,
                                value: round as f64,
                            }],
                        )
                        .unwrap();
                }
            }
        })
    };
    let cattle_thread = {
        let cc = cc.clone();
        std::thread::spawn(move || {
            for round in 0..50u64 {
                for i in 0..20 {
                    cc.collar_report(
                        &format!("cl/cow-{i}"),
                        vec![iot_aodb::cattle::types::CollarReading {
                            ts_ms: round,
                            position: Default::default(),
                            speed: 1.0,
                            temperature: 38.0,
                        }],
                    )
                    .unwrap();
                }
            }
        })
    };
    shm_thread.join().unwrap();
    cattle_thread.join().unwrap();
    assert!(rt.quiesce(Duration::from_secs(30)));

    for c in channels.iter().take(3) {
        let stats = shm_client.channel_stats(c).unwrap().wait_for(T).unwrap();
        assert_eq!(stats.total_points, 50);
    }
    for i in 0..3 {
        let info = cc
            .cow_info(&format!("cl/cow-{i}"))
            .unwrap()
            .wait_for(T)
            .unwrap();
        assert_eq!(info.total_readings, 50);
    }
    rt.shutdown();
}

//! End-to-end behavior of the SHM platform in columnar (tseries) mode:
//! the same actor API as KV mode, but `Ingest` appends compressed points
//! through the `SeriesStore` seam and range queries scan sealed blocks.
//! The channel handler has one ack route for every engine, so the
//! ingest, duplicate-reject and restart-recovery checks run against
//! both: one that commits on append (`TsStore::new`) and one that
//! commits on its WAL's group (`TsStore::with_wal`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aodb_runtime::Runtime;
use aodb_shm::messages::Ingest;
use aodb_shm::types::{DataPoint, Threshold};
use aodb_shm::{provision, register_all, ShmClient, ShmEnv, Topology, TopologySpec};
use aodb_store::tseries::{SeriesStore, TsConfig, TsStore};
use aodb_store::{Bytes, Key, MemStore, StateStore, StoreError, StoreResult, WalConfig};

fn dp(ts_ms: u64, value: f64) -> DataPoint {
    DataPoint { ts_ms, value }
}

/// A fresh WAL path for the test `tag`.
fn temp_wal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aodb-shm-ts-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("shm.wal")
}

/// A small-block engine over `backing` (seals every 32 points so block
/// boundaries get exercised quickly): one that commits on append, or,
/// given a `wal` path, one that commits on its WAL's group.
fn engine(backing: &Arc<dyn StateStore>, wal: Option<&Path>) -> TsStore {
    let config = TsConfig::sealing_every(32);
    match wal {
        None => TsStore::new(Arc::clone(backing), config),
        Some(path) => {
            TsStore::with_wal(Arc::clone(backing), config, path, WalConfig::default()).unwrap()
        }
    }
}

/// Platform over `store` whose channels append through `engine`.
fn tseries_platform(
    store: &Arc<dyn StateStore>,
    engine: TsStore,
    sensors: usize,
    spec: TopologySpec,
) -> (Runtime, Topology, Arc<TsStore>) {
    let engine = Arc::new(engine);
    let rt = Runtime::single(4);
    register_all(
        &rt,
        ShmEnv::paper_default(Arc::clone(store))
            .with_series_store(Arc::clone(&engine) as Arc<dyn SeriesStore>),
    );
    let topology = Topology::layout(sensors, spec);
    provision(&rt, &topology, |_| None).unwrap();
    (rt, topology, engine)
}

fn check_ingest_and_range_queries(wal: Option<&Path>) {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let (rt, topology, engine) =
        tseries_platform(&store, engine(&store, wal), 1, TopologySpec::default());
    let client = ShmClient::new(rt.handle());
    let channel = topology.physical_channels().next().unwrap();

    let points: Vec<DataPoint> = (0..100).map(|i| dp(i * 100, i as f64)).collect();
    let accepted = client
        .ingest(channel, points)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(accepted, 100);

    // Range query runs off the compressed blocks, same semantics as the
    // KV window query.
    let hits = client
        .raw_range(channel, 2_000, 4_000, 0)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(hits.len(), 21);
    assert_eq!(hits.first().unwrap().ts_ms, 2_000);
    assert_eq!(hits.last().unwrap().ts_ms, 4_000);
    let capped = client
        .raw_range(channel, 2_000, 4_000, 5)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(capped.len(), 5);

    // Stats stay exact, and 100 points sealed into 32-point blocks.
    let stats = client
        .channel_stats(channel)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(stats.total_points, 100);
    assert_eq!(stats.last, Some(dp(9_900, 99.0)));
    let series = engine.stats(&format!("shm.channel/{channel}"));
    assert!(series.sealed_blocks >= 3);
    assert_eq!(series.sealed_points + series.tail_points, 100);
    rt.shutdown();
}

#[test]
fn ingest_compresses_points_and_serves_range_queries() {
    check_ingest_and_range_queries(None);
}

#[test]
fn ingest_compresses_points_and_serves_range_queries_with_wal() {
    check_ingest_and_range_queries(Some(&temp_wal("ingest")));
}

fn check_restart_recovery(wal: Option<&Path>) {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let spec = TopologySpec::default();
    let channel;
    {
        let (rt, topology, _) = tseries_platform(&store, engine(&store, wal), 1, spec);
        channel = topology.physical_channels().next().unwrap().to_string();
        let client = ShmClient::new(rt.handle());
        let points: Vec<DataPoint> = (0..50).map(|i| dp(i * 10, i as f64)).collect();
        let r = client
            .channel(&channel)
            .ask(Ingest::deduped(points, 7, 3))
            .unwrap()
            .wait_for(Duration::from_secs(5))
            .unwrap();
        assert_eq!(r, 50);
        // Kill without graceful deactivation: the ack above must mean
        // the engine committed the batch (its tail record, or the WAL
        // group carrying its delta) — not the on-deactivate blob flush.
        drop(rt);
    }

    let (rt, _, _) = tseries_platform(&store, engine(&store, wal), 1, spec);
    let client = ShmClient::new(rt.handle());
    let stats = client
        .channel_stats(&channel)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(stats.total_points, 50, "stats recovered from sidecar");
    assert_eq!(stats.last, Some(dp(490, 49.0)));

    // The dedup watermark committed with the points it admitted, so it
    // recovered too: a replayed batch is rejected...
    let replay: Vec<DataPoint> = (0..50).map(|i| dp(i * 10, i as f64)).collect();
    let r = client
        .channel(&channel)
        .ask(Ingest::deduped(replay, 7, 3))
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(r, 0, "watermark must survive restart (exactly-once)");
    // ...and the points themselves scan back intact.
    let hits = client
        .raw_range(&channel, 0, u64::MAX, 0)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(hits.len(), 50);
    rt.shutdown();
}

#[test]
fn restart_recovers_stats_watermarks_and_points_from_series_store() {
    check_restart_recovery(None);
}

#[test]
fn acked_ingest_survives_ungraceful_restart_with_wal() {
    check_restart_recovery(Some(&temp_wal("restart")));
}

/// A store whose next `put` fails once `fail_next_put` is set, and
/// whose every `get` fails while `fail_gets` is.
struct FailOnce {
    inner: MemStore,
    fail_next_put: AtomicBool,
    fail_gets: AtomicBool,
}

impl StateStore for FailOnce {
    fn get(&self, key: &Key) -> StoreResult<Option<Bytes>> {
        if self.fail_gets.load(Ordering::SeqCst) {
            return Err(StoreError::Io("injected get failure".into()));
        }
        self.inner.get(key)
    }
    fn put(&self, key: &Key, value: Bytes) -> StoreResult<()> {
        if self.fail_next_put.swap(false, Ordering::SeqCst) {
            return Err(StoreError::Io("injected put failure".into()));
        }
        self.inner.put(key, value)
    }
    fn delete(&self, key: &Key) -> StoreResult<()> {
        self.inner.delete(key)
    }
    fn scan_prefix(&self, prefix: &[u8]) -> StoreResult<Vec<(Key, Bytes)>> {
        self.inner.scan_prefix(prefix)
    }
}

#[test]
fn failed_append_aborts_the_ack_instead_of_counting_points() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let backing = Arc::new(FailOnce {
        inner: MemStore::new(),
        fail_next_put: AtomicBool::new(false),
        fail_gets: AtomicBool::new(false),
    });
    // No virtual channel: its derived append writes through the same
    // backing store and could consume the injected failure first.
    let spec = TopologySpec {
        virtual_every: 0,
        ..TopologySpec::default()
    };
    let (rt, topology, _) = tseries_platform(
        &store,
        engine(&(Arc::clone(&backing) as Arc<dyn StateStore>), None),
        1,
        spec,
    );
    let client = ShmClient::new(rt.handle());
    let channel = topology.physical_channels().next().unwrap();

    backing.fail_next_put.store(true, Ordering::SeqCst);
    let failed = client
        .ingest(channel, vec![dp(0, 1.0), dp(10, 2.0)])
        .unwrap()
        .wait_for(Duration::from_secs(5));
    assert!(
        failed.is_err(),
        "the engine's tail-record put failed, yet the batch was acked: {failed:?}"
    );
    // The store is healthy again: the next batch is acked, and its tail
    // record carries the earlier points the engine still held in memory.
    let accepted = client
        .ingest(channel, vec![dp(20, 3.0)])
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(accepted, 1);
    let hits = client
        .raw_range(channel, 0, u64::MAX, 0)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(hits.len(), 3);
    rt.shutdown();
}

#[test]
fn failed_scan_aborts_the_query_instead_of_answering_no_points() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let backing = Arc::new(FailOnce {
        inner: MemStore::new(),
        fail_next_put: AtomicBool::new(false),
        fail_gets: AtomicBool::new(false),
    });
    let engine_over_backing = || engine(&(Arc::clone(&backing) as Arc<dyn StateStore>), None);
    let spec = TopologySpec::default();
    let channel;
    {
        let (rt, topology, _) = tseries_platform(&store, engine_over_backing(), 1, spec);
        channel = topology.physical_channels().next().unwrap().to_string();
        let points: Vec<DataPoint> = (0..40).map(|i| dp(i * 10, i as f64)).collect();
        let accepted = ShmClient::new(rt.handle())
            .ingest(&channel, points)
            .unwrap()
            .wait_for(Duration::from_secs(5))
            .unwrap();
        assert_eq!(accepted, 40);
        rt.shutdown();
    }

    // A fresh engine has to read the series back from a store that
    // cannot be read: the channel's recovery overlay is skipped, and the
    // query's own lazy recovery fails.
    backing.fail_gets.store(true, Ordering::SeqCst);
    let (rt, _, _) = tseries_platform(&store, engine_over_backing(), 1, spec);
    let client = ShmClient::new(rt.handle());
    let failed = client
        .raw_range(&channel, 0, u64::MAX, 0)
        .unwrap()
        .wait_for(Duration::from_secs(5));
    assert!(
        failed.is_err(),
        "the scan could not read the series, yet the query was answered: {failed:?}"
    );
    // The store is readable again: the same query recovers the series
    // and returns every acked point.
    backing.fail_gets.store(false, Ordering::SeqCst);
    let hits = client
        .raw_range(&channel, 0, u64::MAX, 0)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(hits.len(), 40);
    rt.shutdown();
}

#[test]
fn virtual_channels_derive_and_persist_through_series_store() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let (rt, topology, _) =
        tseries_platform(&store, engine(&store, None), 1, TopologySpec::default());
    let client = ShmClient::new(rt.handle());
    let sensor = &topology.orgs[0].sensors[0];
    let vkey = sensor.virtual_channel.as_ref().unwrap().to_string();

    client
        .ingest(&sensor.physical[0], vec![dp(0, 10.0)])
        .unwrap()
        .wait()
        .unwrap();
    client
        .ingest(&sensor.physical[1], vec![dp(5, 32.0)])
        .unwrap()
        .wait()
        .unwrap();
    assert!(rt.quiesce(Duration::from_secs(5)));

    let stats = client
        .virtual_channel_stats(&vkey)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(stats.total_points, 2);
    assert_eq!(stats.last.unwrap().value, 42.0);

    // Derived points are range-queryable from the virtual series.
    let hits = client
        .raw_range_virtual(&vkey, 0, u64::MAX, 0)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(hits.len(), 2);
    assert_eq!(hits[1].value, 42.0);
    rt.shutdown();
}

#[test]
fn threshold_alerts_fire_in_columnar_mode() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let spec = TopologySpec {
        threshold: Threshold {
            high: Some(100.0),
            ..Default::default()
        },
        ..Default::default()
    };
    let (rt, topology, _) = tseries_platform(&store, engine(&store, None), 1, spec);
    let client = ShmClient::new(rt.handle());
    let channel = topology.physical_channels().next().unwrap();
    let org = &topology.orgs[0].key;

    client
        .ingest(channel, vec![dp(0, 50.0), dp(1, 150.0)])
        .unwrap()
        .wait()
        .unwrap();
    assert!(rt.quiesce(Duration::from_secs(5)));
    let alerts = client
        .recent_alerts(org, 10)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(alerts.len(), 1);
    rt.shutdown();
}

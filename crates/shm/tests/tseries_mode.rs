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
use aodb_store::tseries::engine::AppendAck;
use aodb_store::tseries::{AppendOutcome, SeriesRecovery, SeriesStore, TsConfig, TsStore};
use aodb_store::{Bytes, Key, MemStore, StateStore, StoreError, StoreResult, WalConfig};
use parking_lot::Mutex;

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

/// `Some(acks withheld so far)` until the release, `None` after.
type Withheld = Option<Vec<Box<dyn FnOnce() + Send>>>;

/// An engine whose commits of `shm.virtual-channel/…` series take as
/// long as the test says: the ack of every append to such a series is
/// withheld until [`WithheldVirtualAcks::release`]. Other series pass
/// through.
struct WithheldVirtualAcks {
    inner: TsStore,
    withheld: Arc<Mutex<Withheld>>,
}

impl WithheldVirtualAcks {
    fn withheld(&self) -> usize {
        self.withheld.lock().as_ref().map_or(0, Vec::len)
    }

    fn release(&self) {
        let acks = self.withheld.lock().take();
        for ack in acks.into_iter().flatten() {
            ack();
        }
    }
}

impl SeriesStore for WithheldVirtualAcks {
    /// Async, then wait for the ack — as an engine with a WAL blocks
    /// for its group commit.
    fn append_batch(
        &self,
        series: &str,
        points: &[(u64, f64)],
        meta: &[u8],
    ) -> StoreResult<AppendOutcome> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.append_batch_async(
            series,
            points,
            meta,
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        );
        rx.recv().expect("ack resolved")
    }

    fn append_batch_async(&self, series: &str, points: &[(u64, f64)], meta: &[u8], ack: AppendAck) {
        if !series.starts_with("shm.virtual-channel/") {
            return self.inner.append_batch_async(series, points, meta, ack);
        }
        let withheld = Arc::clone(&self.withheld);
        self.inner.append_batch_async(
            series,
            points,
            meta,
            Box::new(move |result| {
                let mut withheld = withheld.lock();
                match withheld.as_mut() {
                    Some(acks) => acks.push(Box::new(move || ack(result))),
                    None => {
                        drop(withheld);
                        ack(result)
                    }
                }
            }),
        );
    }

    fn scan_range(
        &self,
        series: &str,
        from_ms: u64,
        to_ms: u64,
        limit: usize,
    ) -> StoreResult<Vec<(u64, f64)>> {
        self.inner.scan_range(series, from_ms, to_ms, limit)
    }

    fn seal(&self, series: &str) -> StoreResult<()> {
        self.inner.seal(series)
    }

    fn recover(&self, series: &str) -> StoreResult<SeriesRecovery> {
        self.inner.recover(series)
    }
}

#[test]
fn derived_append_never_parks_the_worker() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let series = Arc::new(WithheldVirtualAcks {
        inner: engine(&store, None),
        withheld: Arc::new(Mutex::new(Some(Vec::new()))),
    });
    // One worker: if a turn waits for a derived append's commit, nothing
    // else runs until the release.
    let rt = Runtime::single(1);
    register_all(
        &rt,
        ShmEnv::paper_default(Arc::clone(&store))
            .with_series_store(Arc::clone(&series) as Arc<dyn SeriesStore>),
    );
    let topology = Topology::layout(1, TopologySpec::default());
    provision(&rt, &topology, |_| None).unwrap();
    let client = ShmClient::new(rt.handle());
    let org = &topology.orgs[0];
    let sensor = &org.sensors[0];
    let vkey = sensor.virtual_channel.as_ref().unwrap().to_string();

    let timeout = Duration::from_secs(3);
    let acks = [(0, dp(0, 10.0)), (1, dp(5, 32.0))].map(|(channel, point)| {
        client
            .ingest(&sensor.physical[channel], vec![point])
            .unwrap()
            .wait_for(timeout)
    });
    // Both pushes are in the virtual channel's mailbox ahead of these.
    let live = client.live_data(&org.key).unwrap().wait_for(timeout);
    let stats = client
        .virtual_channel_stats(&vkey)
        .unwrap()
        .wait_for(timeout);
    let withheld = series.withheld();
    // Released before anything is asserted, so a failure ends the test
    // instead of leaving the worker parked.
    series.release();

    assert_eq!(acks, [Ok(1), Ok(1)], "physical acks are not withheld");
    let live = live.expect("live data answered while the derived commits were still pending");
    let stats = stats.expect("virtual channel answered while its commits were still pending");
    assert_eq!(withheld, 2, "one withheld commit per push");
    // Visible before durable: both derived points are already counted.
    assert_eq!(stats.total_points, 2);
    assert_eq!(stats.last.unwrap().value, 42.0);
    let latest_virtual = live.channels.iter().find(|(name, _)| *name == vkey);
    assert_eq!(latest_virtual.unwrap().1.unwrap().value, 42.0);

    let hits = client
        .raw_range_virtual(&vkey, 0, u64::MAX, 0)
        .unwrap()
        .wait_for(timeout)
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

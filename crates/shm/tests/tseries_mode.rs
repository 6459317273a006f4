//! A channel's data plane against store doubles: what the platform
//! answers when its series store fails an append or a read, or takes its
//! time to commit. (What it answers when the store works is checked for
//! every series store in `platform_behavior.rs`.)

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aodb_runtime::{Actor, PromiseError, Runtime};
use aodb_shm::messages::Ingest;
use aodb_shm::types::{AggregateLevel, DataPoint};
use aodb_shm::{
    provision, register_all, series_key, PhysicalSensorChannel, ShmClient, ShmEnv, Topology,
    TopologySpec,
};
use aodb_store::tseries::engine::AppendAck;
use aodb_store::tseries::{AppendOutcome, SeriesRecovery, SeriesStore, TsConfig, TsStore};
use aodb_store::{Bytes, Key, MemStore, StateStore, StoreError, StoreResult};
use parking_lot::Mutex;

fn dp(ts_ms: u64, value: f64) -> DataPoint {
    DataPoint { ts_ms, value }
}

/// A small-block engine over `backing` (seals every 32 points so block
/// boundaries get exercised quickly).
fn engine(backing: &Arc<dyn StateStore>) -> TsStore {
    TsStore::new(Arc::clone(backing), TsConfig::sealing_every(32))
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

/// A store whose next `put` fails once `fail_next_put` is set, and whose
/// next `failing_gets` gets fail.
#[derive(Default)]
struct FailOnce {
    inner: MemStore,
    fail_next_put: AtomicBool,
    failing_gets: AtomicU32,
}

impl FailOnce {
    fn new() -> Arc<FailOnce> {
        Arc::new(FailOnce::default())
    }

    fn backing(self: &Arc<Self>) -> Arc<dyn StateStore> {
        Arc::clone(self) as Arc<dyn StateStore>
    }
}

impl StateStore for FailOnce {
    fn get(&self, key: &Key) -> StoreResult<Option<Bytes>> {
        let fail = self
            .failing_gets
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        if fail.is_ok() {
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
    let backing = FailOnce::new();
    // No virtual channel: its derived append writes through the same
    // backing store and could consume the injected failure first.
    let spec = TopologySpec {
        virtual_every: 0,
        ..TopologySpec::default()
    };
    let (rt, topology, _) = tseries_platform(&store, engine(&backing.backing()), 1, spec);
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
    let backing = FailOnce::new();
    let engine_over_backing = || engine(&backing.backing());
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
    // cannot be read: neither the channel's activation nor the query
    // recovers it.
    backing.failing_gets.store(u32::MAX, Ordering::SeqCst);
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
    backing.failing_gets.store(0, Ordering::SeqCst);
    let hits = client
        .raw_range(&channel, 0, u64::MAX, 0)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(hits.len(), 40);
    rt.shutdown();
}

/// A channel whose data plane cannot be recovered answers nothing from
/// defaulted state: no ack against zeroed watermarks, no stats restarted
/// from zero, no append and no fan-out. The turn after a failed
/// recovery retries it.
#[test]
fn unrecovered_channel_aborts_until_its_series_is_read() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let backing = FailOnce::new();
    let spec = TopologySpec {
        virtual_every: 0,
        ..TopologySpec::default()
    };
    let batch = |seq: u64| -> Vec<DataPoint> {
        (0..10)
            .map(|i| dp(seq * 100 + i, (seq * 10 + i) as f64))
            .collect()
    };
    let channel;
    {
        let (rt, topology, _) = tseries_platform(&store, engine(&backing.backing()), 1, spec);
        channel = topology.physical_channels().next().unwrap().to_string();
        let client = ShmClient::new(rt.handle());
        for seq in 1..=2 {
            let ingest = client
                .channel(&channel)
                .ask(Ingest::deduped(batch(seq), 1, seq));
            assert_eq!(ingest.unwrap().wait().unwrap(), 10);
        }
        rt.shutdown();
    }

    // A new runtime over a fresh engine, activating nothing until the
    // first request arrives.
    let reopen = || {
        let rt = Runtime::single(4);
        let series = Arc::new(engine(&backing.backing()));
        register_all(
            &rt,
            ShmEnv::paper_default(Arc::clone(&store)).with_series_store(series),
        );
        rt
    };
    let ingest = |rt: &Runtime, seq: u64| {
        ShmClient::new(rt.handle())
            .channel(&channel)
            .ask(Ingest::deduped(batch(seq), 1, seq))
            .unwrap()
            .wait_for(Duration::from_secs(5))
    };
    // The first read of the series' tail record (the channel's
    // activation) and the second (the first ingest's retry) fail: that
    // ingest aborts, and its retransmit finds the series readable.
    backing.failing_gets.store(2, Ordering::SeqCst);
    let rt = reopen();
    let failed = ingest(&rt, 3);
    assert!(
        failed.is_err(),
        "acked against an unrecovered channel: {failed:?}"
    );
    assert_eq!(ingest(&rt, 3), Ok(10));
    // The recovered watermark still rejects the earlier batches.
    assert_eq!(ingest(&rt, 2), Ok(0));
    rt.shutdown();
    // A read failure that activation alone sees costs no request: the
    // ingest turn recovers the series itself.
    backing.failing_gets.store(1, Ordering::SeqCst);
    let rt = reopen();
    assert_eq!(ingest(&rt, 4), Ok(10));
    assert_eq!(backing.failing_gets.load(Ordering::SeqCst), 0);
    let client = ShmClient::new(rt.handle());
    assert!(rt.quiesce(Duration::from_secs(5)));

    let stats = client.channel_stats(&channel).unwrap().wait().unwrap();
    assert_eq!(stats.total_points, 40, "stats restarted or double-counted");
    let hits = client
        .raw_range(&channel, 0, u64::MAX, 0)
        .unwrap()
        .wait()
        .unwrap();
    let expected: Vec<DataPoint> = (1..=4).flat_map(batch).collect();
    assert_eq!(hits, expected, "a point is missing or appended twice");
    let hour = client
        .aggregates(&channel, AggregateLevel::Hour, 0, u64::MAX)
        .unwrap()
        .wait()
        .unwrap();
    let aggregated: u64 = hour.iter().map(|(_, agg)| agg.count).sum();
    assert_eq!(aggregated, 40, "the aborted ingest reached the series");
    rt.shutdown();
}

/// A live-data report shows each channel's last *applied* point: a
/// batch whose append failed (and whose ack aborted) is in the report
/// until a reopen from the backing store, which never held it.
#[test]
fn live_data_shows_an_applied_point_until_a_reopen_drops_it() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let backing = FailOnce::new();
    // No virtual channel: its derived append writes through the same
    // backing store and could consume the injected failure first.
    let spec = TopologySpec {
        virtual_every: 0,
        ..TopologySpec::default()
    };
    let (rt, topology, _) = tseries_platform(&store, engine(&backing.backing()), 1, spec);
    let client = ShmClient::new(rt.handle());
    let org = topology.orgs[0].key.clone();
    let channel = topology.physical_channels().next().unwrap().to_string();
    let latest = |client: &ShmClient| {
        let report = client
            .live_data(&org)
            .unwrap()
            .wait_for(Duration::from_secs(5))
            .unwrap();
        let (_, last) = report.channels.iter().find(|(c, _)| *c == channel).unwrap();
        *last
    };

    let acked = client.ingest(&channel, vec![dp(0, 1.0)]).unwrap().wait();
    assert_eq!(acked, Ok(1));
    backing.fail_next_put.store(true, Ordering::SeqCst);
    let failed = client
        .ingest(&channel, vec![dp(10, 2.0), dp(20, 3.0)])
        .unwrap()
        .wait_for(Duration::from_secs(5));
    assert!(failed.is_err(), "the put failed, yet the batch was acked");
    assert_eq!(latest(&client), Some(dp(20, 3.0)), "applied, not durable");
    rt.shutdown();

    // A new runtime over a fresh engine reads the series back from the
    // backing store, whose last committed record is the first batch's.
    let rt = Runtime::single(4);
    let series = Arc::new(engine(&backing.backing()));
    register_all(
        &rt,
        ShmEnv::paper_default(Arc::clone(&store)).with_series_store(series),
    );
    assert_eq!(latest(&ShmClient::new(rt.handle())), Some(dp(0, 1.0)));
    rt.shutdown();
}

/// A side-car that does not decode fails the whole live-data report; it
/// is never read as a channel without points.
#[test]
fn corrupt_side_car_aborts_the_live_data_report() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let (rt, topology, engine) =
        tseries_platform(&store, engine(&store), 1, TopologySpec::default());
    let client = ShmClient::new(rt.handle());
    let org = topology.orgs[0].key.as_str();
    let channel = topology.physical_channels().next().unwrap();
    let mut name = String::new();
    let name = series_key(&mut name, PhysicalSensorChannel::TYPE_NAME, channel);
    engine
        .append_batch(name, &[(0, 1.0)], b"not a side-car")
        .unwrap();

    let report = client
        .live_data(org)
        .unwrap()
        .wait_for(Duration::from_secs(5));
    assert_eq!(report.map(|r| r.channels), Err(PromiseError::Lost));
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
        inner: engine(&store),
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

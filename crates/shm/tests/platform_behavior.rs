//! End-to-end tests of the SHM platform: ingest, derived streams, alerts,
//! aggregates, online queries, persistence, and multi-silo deployment. The checks of a channel's data plane run against each
//! series store a platform is built with (see [`Series`]).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use aodb_core::state_key;
use aodb_runtime::Actor;
use aodb_runtime::{NetConfig, PreferLocalPlacement, PromiseError, Runtime, SiloId};
use aodb_shm::messages::{ConfigureChannel, GetSensorInfo, Ingest, QueryRange, UpdatePosition};
use aodb_shm::types::{Aggregate, AggregateLevel, AlertKind, DataPoint, Position, Threshold};
use aodb_shm::{
    aggregator_key, provision, register_all, Aggregator, AlertLog, PhysicalSensorChannel, Sensor,
    ShmClient, ShmEnv, Topology, TopologySpec, VirtualSensorChannel,
};
use aodb_store::tseries::{TsConfig, TsStore};
use aodb_store::{MemStore, StateStore, WalConfig};

fn dp(ts_ms: u64, value: f64) -> DataPoint {
    DataPoint { ts_ms, value }
}

/// The series stores the data-plane checks run against.
#[derive(Clone, Copy, Debug)]
enum Series {
    /// `ShmEnv::paper_default` as is: a `TsStore` over the env's store.
    PaperDefault,
    /// A block sealed every 32 points, so reads cross block boundaries.
    SmallBlocks,
    /// Small blocks behind a group-commit WAL: acks resolve on its
    /// committer thread.
    Wal,
}

impl Series {
    const ALL: [Series; 3] = [Series::PaperDefault, Series::SmallBlocks, Series::Wal];

    /// The env over `store`; the WAL variant keeps its log at `wal`.
    fn env(self, store: &Arc<dyn StateStore>, wal: &Path) -> ShmEnv {
        let env = ShmEnv::paper_default(Arc::clone(store));
        let small = TsConfig::sealing_every(32);
        match self {
            Series::PaperDefault => env,
            Series::SmallBlocks => {
                env.with_series_store(Arc::new(TsStore::new(Arc::clone(store), small)))
            }
            Series::Wal => env.with_series_store(Arc::new(
                TsStore::with_wal(Arc::clone(store), small, wal, WalConfig::default()).unwrap(),
            )),
        }
    }
}

/// A WAL path no earlier run has used, for the test `tag`.
fn fresh_wal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aodb-shm-platform-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("shm.wal")
}

fn platform(
    series: Series,
    store: &Arc<dyn StateStore>,
    wal: &Path,
    sensors: usize,
    spec: TopologySpec,
) -> (Runtime, Topology) {
    let rt = Runtime::single(4);
    register_all(&rt, series.env(store, wal));
    let topology = Topology::layout(sensors, spec);
    provision(&rt, &topology, |_| None).unwrap();
    (rt, topology)
}

fn small_platform(
    store: &Arc<dyn StateStore>,
    sensors: usize,
    spec: TopologySpec,
) -> (Runtime, Topology) {
    platform(Series::PaperDefault, store, Path::new(""), sensors, spec)
}

#[test]
fn ingest_updates_stats_and_accumulated_change() {
    for series in Series::ALL {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let wal = fresh_wal("stats");
        let (rt, topology) = platform(series, &store, &wal, 1, TopologySpec::default());
        let client = ShmClient::new(rt.handle());
        let channel = topology.physical_channels().next().unwrap();

        let accepted = client
            .ingest(channel, vec![dp(0, 1.0), dp(100, 3.0), dp(200, 2.0)])
            .unwrap()
            .wait_for(Duration::from_secs(5))
            .unwrap();
        assert_eq!(accepted, 3, "{series:?}");

        let stats = client
            .channel_stats(channel)
            .unwrap()
            .wait_for(Duration::from_secs(5))
            .unwrap();
        assert_eq!(stats.total_points, 3, "{series:?}");
        assert_eq!(stats.accumulated_change, 3.0); // |3-1| + |2-3|
        assert_eq!(stats.net_change, 1.0); // 2 - 1
        assert_eq!(stats.last, Some(dp(200, 2.0)));
        rt.shutdown();
    }
}

#[test]
fn raw_range_query_returns_requested_window() {
    for series in Series::ALL {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let wal = fresh_wal("range");
        let (rt, topology) = platform(series, &store, &wal, 1, TopologySpec::default());
        let client = ShmClient::new(rt.handle());
        let channel = topology.physical_channels().next().unwrap();

        let points: Vec<DataPoint> = (0..100).map(|i| dp(i * 100, i as f64)).collect();
        client.ingest(channel, points).unwrap().wait().unwrap();

        let hits = client
            .raw_range(channel, 2_000, 4_000, 0)
            .unwrap()
            .wait_for(Duration::from_secs(5))
            .unwrap();
        assert_eq!(hits.len(), 21, "{series:?}");
        assert_eq!(hits.first().unwrap().ts_ms, 2_000);
        assert_eq!(hits.last().unwrap().ts_ms, 4_000);
        let capped = client
            .raw_range(channel, 2_000, 4_000, 5)
            .unwrap()
            .wait_for(Duration::from_secs(5))
            .unwrap();
        assert_eq!(capped, hits[..5], "{series:?}");
        rt.shutdown();
    }
}

/// A range over points ingested out of time order returns every point in
/// the range, in the order they were ingested.
#[test]
fn raw_range_over_out_of_order_ingest_returns_every_point_in_range() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let (rt, topology) = small_platform(&store, 1, TopologySpec::default());
    let client = ShmClient::new(rt.handle());
    let channel = topology.physical_channels().next().unwrap();

    let points = vec![dp(0, 0.0), dp(300, 3.0), dp(100, 1.0), dp(200, 2.0)];
    client.ingest(channel, points).unwrap().wait().unwrap();
    let hits = client
        .raw_range(channel, 100, 200, 0)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(hits, [dp(100, 1.0), dp(200, 2.0)]);
    rt.shutdown();
}

#[test]
fn virtual_channel_derives_sum_of_inputs() {
    for series in Series::ALL {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let wal = fresh_wal("virtual");
        let (rt, topology) = platform(series, &store, &wal, 1, TopologySpec::default());
        let client = ShmClient::new(rt.handle());
        let sensor = &topology.orgs[0].sensors[0];
        let vkey = sensor
            .virtual_channel
            .as_ref()
            .expect("sensor 0 has a virtual channel");

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
            .virtual_channel_stats(vkey)
            .unwrap()
            .wait_for(Duration::from_secs(5))
            .unwrap();
        // Two derived points: 10 (only input 0 known) then 42 (both known).
        assert_eq!(stats.total_points, 2, "{series:?}");
        assert_eq!(stats.last.unwrap().value, 42.0);
        // Derived points are range-queryable from the virtual series.
        let hits = client
            .raw_range_virtual(vkey, 0, u64::MAX, 0)
            .unwrap()
            .wait_for(Duration::from_secs(5))
            .unwrap();
        assert_eq!(hits, [dp(0, 10.0), dp(5, 42.0)], "{series:?}");
        rt.shutdown();
    }
}

#[test]
fn threshold_breach_raises_alert_in_org_log() {
    for series in Series::ALL {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let wal = fresh_wal("alert");
        let spec = TopologySpec {
            threshold: Threshold {
                high: Some(100.0),
                ..Default::default()
            },
            ..Default::default()
        };
        let (rt, topology) = platform(series, &store, &wal, 1, spec);
        let client = ShmClient::new(rt.handle());
        let channel = topology.physical_channels().next().unwrap();
        let org = topology.orgs[0].key.as_str();

        client
            .ingest(
                channel,
                vec![dp(0, 50.0), dp(1, 150.0), dp(2, 160.0), dp(3, 40.0)],
            )
            .unwrap()
            .wait()
            .unwrap();
        assert!(rt.quiesce(Duration::from_secs(5)));

        let alerts = client
            .recent_alerts(org, 10)
            .unwrap()
            .wait_for(Duration::from_secs(5))
            .unwrap();
        assert_eq!(alerts.len(), 1, "hysteresis: one alert per breach episode");
        assert_eq!(alerts[0].kind, AlertKind::AboveHigh);
        assert_eq!(alerts[0].value, 150.0);
        assert_eq!(&alerts[0].channel, channel);
        assert_eq!(client.alert_count(org).unwrap().wait().unwrap(), 1);
        rt.shutdown();
    }
}

/// A turn that panics after admitting a batch's dedup token must not
/// leave the token behind: the faulted activation is discarded, so the
/// client's retransmission is applied instead of acked as a duplicate.
#[test]
fn retransmission_after_a_panicked_ingest_turn_is_applied() {
    for series in Series::ALL {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let wal = fresh_wal("panicked-turn");
        let env = series.env(&store, &wal);
        let rt = Runtime::single(2);
        // No `AlertLog` yet: the fan-out of a breaching batch panics in
        // the turn, after the channel admitted the batch's token.
        PhysicalSensorChannel::register(&rt, env.clone());
        VirtualSensorChannel::register(&rt, env.clone());
        let channel = rt.actor_ref::<PhysicalSensorChannel>("org-0/s-0/c-0");
        channel
            .call(ConfigureChannel {
                org: "org-0".into(),
                sensor: "org-0/s-0".into(),
                threshold: Threshold {
                    high: Some(100.0),
                    ..Default::default()
                },
                subscribers: Vec::new(),
            })
            .unwrap();
        let batch = vec![dp(0, 50.0), dp(1, 150.0), dp(2, 160.0), dp(3, 40.0)];
        let ingest = || Ingest::deduped(batch.clone(), 7, 1);

        let first = channel.ask(ingest()).unwrap().wait();
        assert_eq!(first, Err(PromiseError::Lost), "{series:?}");
        AlertLog::register(&rt, env);
        let retry = channel.ask(ingest()).unwrap().wait();
        assert_eq!(
            retry,
            Ok(4),
            "{series:?}: retransmission acked as a duplicate"
        );
        let points = channel
            .call(QueryRange {
                from_ms: 0,
                to_ms: u64::MAX,
                limit: 0,
            })
            .unwrap();
        assert_eq!(points, batch, "{series:?}");
        rt.shutdown();
    }
}

#[test]
fn live_data_gathers_every_channel_of_the_org() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let (rt, topology) = small_platform(&store, 10, TopologySpec::default());
    let client = ShmClient::new(rt.handle());
    let org = topology.orgs[0].key.as_str();

    // 10 sensors → 20 physical + 1 virtual = 21 channels.
    for (i, channel) in topology.physical_channels().enumerate() {
        client
            .ingest(channel, vec![dp(0, i as f64)])
            .unwrap()
            .wait()
            .unwrap();
    }
    assert!(rt.quiesce(Duration::from_secs(5)));

    let report = client
        .live_data(org)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(report.channels.len(), 21);
    let with_data = report.channels.iter().filter(|(_, p)| p.is_some()).count();
    assert_eq!(
        with_data, 21,
        "every channel (incl. virtual) must report a point"
    );
    rt.shutdown();
}

#[test]
fn live_data_on_empty_platform_completes() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let (rt, topology) = small_platform(&store, 2, TopologySpec::default());
    let client = ShmClient::new(rt.handle());
    let report = client
        .live_data(&topology.orgs[0].key)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert!(report.channels.iter().all(|(_, p)| p.is_none()));
    rt.shutdown();
}

#[test]
fn day_buckets_count_every_point_of_their_hours() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let (rt, topology) = small_platform(&store, 1, TopologySpec::default());
    let client = ShmClient::new(rt.handle());
    let channel = topology.physical_channels().next().unwrap();

    const HOUR: u64 = 3_600_000;
    // 3 points in hour 0, 2 in hour 1, 1 in hour 25 (day 1). Every level
    // folds the series at its own width, so a day counts its open hour
    // as well as its closed ones.
    for (ts, v) in [
        (0, 1.0),
        (HOUR / 2, 2.0),
        (HOUR - 1, 3.0),
        (HOUR, 10.0),
        (HOUR + 5, 20.0),
        (25 * HOUR, 100.0),
    ] {
        client
            .ingest(channel, vec![dp(ts, v)])
            .unwrap()
            .wait()
            .unwrap();
    }
    assert!(rt.quiesce(Duration::from_secs(5)));

    let hours = client
        .aggregates(channel, AggregateLevel::Hour, 0, 26 * HOUR)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(hours.len(), 3);
    let hour0 = hours.iter().find(|(b, _)| *b == 0).unwrap().1;
    assert_eq!(hour0.count, 3);
    assert_eq!(hour0.sum, 6.0);
    assert_eq!(hour0.max, 3.0);

    let days = client
        .aggregates(channel, AggregateLevel::Day, 0, 26 * HOUR)
        .unwrap()
        .wait()
        .unwrap();
    // Day 0 holds hours 0 and 1: 5 points. Day 1 holds hour 25, still
    // open: 1 point.
    let counts: Vec<(u64, u64, f64)> = days.iter().map(|(b, a)| (*b, a.count, a.sum)).collect();
    assert_eq!(counts, [(0, 5, 36.0), (24 * HOUR, 1, 100.0)]);
    rt.shutdown();
}

#[test]
fn batch_order_does_not_change_the_aggregates() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let (rt, topology) = small_platform(&store, 1, TopologySpec::default());
    let client = ShmClient::new(rt.handle());
    let mut channels = topology.physical_channels();
    let (in_order, stepping_back) = (channels.next().unwrap(), channels.next().unwrap());

    const HOUR: u64 = 3_600_000;
    // One batch across three hour buckets, once in time order and once
    // with a point out of place. The aggregators fold each point into
    // its own bucket, so both land on the same pyramid.
    let sorted = vec![
        dp(10, 1.0),
        dp(HOUR - 1, 2.0),
        dp(HOUR, 10.0),
        dp(HOUR + 7, 20.0),
        dp(2 * HOUR + 1, 100.0),
    ];
    let mut shuffled = sorted.clone();
    shuffled.swap(1, 3);
    client.ingest(in_order, sorted).unwrap().wait().unwrap();
    client
        .ingest(stepping_back, shuffled)
        .unwrap()
        .wait()
        .unwrap();
    assert!(rt.quiesce(Duration::from_secs(5)));

    for level in [AggregateLevel::Hour, AggregateLevel::Day] {
        let of = |channel| {
            client
                .aggregates(channel, level, 0, 3 * HOUR)
                .unwrap()
                .wait()
                .unwrap()
        };
        let expected = of(in_order);
        assert!(!expected.is_empty());
        assert_eq!(of(stepping_back), expected, "{level:?}");
    }
    let hours = client
        .aggregates(in_order, AggregateLevel::Hour, 0, 3 * HOUR)
        .unwrap()
        .wait()
        .unwrap();
    let counts: Vec<(u64, u64)> = hours.iter().map(|(b, a)| (*b, a.count)).collect();
    assert_eq!(counts, [(0, 2), (HOUR, 2), (2 * HOUR, 1)]);
    rt.shutdown();
}

#[test]
fn sensor_relocation_persists() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let (rt, topology) = small_platform(&store, 1, TopologySpec::default());
    let sensor_key = topology.orgs[0].sensors[0].key.as_str();
    let sensor = rt.actor_ref::<Sensor>(sensor_key);
    sensor
        .call(UpdatePosition(Position {
            x: 1.0,
            y: 2.0,
            z: 3.0,
        }))
        .unwrap();
    rt.shutdown();

    // Fresh runtime over the same store: position must survive.
    let rt = Runtime::single(2);
    register_all(&rt, ShmEnv::paper_default(Arc::clone(&store)));
    let info = rt
        .actor_ref::<Sensor>(sensor_key)
        .call(GetSensorInfo)
        .unwrap();
    assert_eq!(
        info.position,
        Position {
            x: 1.0,
            y: 2.0,
            z: 3.0
        }
    );
    assert_eq!(info.channels.len(), 3); // 2 physical + 1 virtual
    rt.shutdown();
}

/// A silo that dies without deactivating anything loses no acked point,
/// stat or dedup watermark: a new runtime over the same store sees them
/// all.
#[test]
fn channel_data_survives_a_silo_kill() {
    for series in Series::ALL {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let wal = fresh_wal("kill");
        let channel;
        {
            let (rt, topology) = platform(series, &store, &wal, 1, TopologySpec::default());
            channel = topology.physical_channels().next().unwrap().to_string();
            let points: Vec<DataPoint> = (0..50).map(|i| dp(i * 10, i as f64)).collect();
            let accepted = ShmClient::new(rt.handle())
                .channel(&channel)
                .ask(Ingest::deduped(points, 7, 3))
                .unwrap()
                .wait_for(Duration::from_secs(5))
                .unwrap();
            assert_eq!(accepted, 50, "{series:?}");
            rt.kill_silo(SiloId(0));
        }

        let rt = Runtime::single(2);
        register_all(&rt, series.env(&store, &wal));
        let client = ShmClient::new(rt.handle());
        let stats = client.channel_stats(&channel).unwrap().wait().unwrap();
        assert_eq!(stats.total_points, 50, "{series:?}");
        assert_eq!(stats.accumulated_change, 49.0);
        assert_eq!(stats.last, Some(dp(490, 49.0)));
        let hits = client
            .raw_range(&channel, 0, u64::MAX, 0)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(hits.len(), 50, "{series:?}");
        // The watermark committed with the points it admitted: a replay
        // is rejected.
        let replayed = client
            .channel(&channel)
            .ask(Ingest::deduped(vec![dp(0, 0.0)], 7, 3))
            .unwrap()
            .wait_for(Duration::from_secs(5))
            .unwrap();
        assert_eq!(replayed, 0, "{series:?}: watermark lost with the silo");
        rt.shutdown();
    }
}

/// Channel configuration is saved when it is set, not when the channel
/// deactivates: a silo killed right after provisioning loses none of it,
/// so the next ingest still raises its threshold alert and still feeds
/// its virtual channel.
#[test]
fn channel_configuration_survives_a_silo_kill() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let rt = Runtime::builder()
        .silos(2, 2)
        .placement(PreferLocalPlacement)
        .build();
    register_all(&rt, ShmEnv::paper_default(Arc::clone(&store)));
    let spec = TopologySpec {
        threshold: Threshold {
            high: Some(100.0),
            ..Default::default()
        },
        ..Default::default()
    };
    let topology = Topology::layout(1, spec);
    provision(&rt, &topology, |_| Some(SiloId(1))).unwrap();
    rt.kill_silo(SiloId(1));
    assert!(rt.restart_silo(SiloId(1)));

    let client = ShmClient::new(rt.handle_on(SiloId(1)));
    let org = topology.orgs[0].key.as_str();
    let sensor = &topology.orgs[0].sensors[0];
    let vkey = sensor.virtual_channel.as_ref().unwrap();
    client
        .ingest(&sensor.physical[0], vec![dp(0, 150.0)])
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert!(rt.quiesce(Duration::from_secs(5)));

    let alerts = client.alert_count(org).unwrap().wait().unwrap();
    assert_eq!(alerts, 1, "the threshold died with the silo");
    let derived = client
        .raw_range_virtual(vkey, 0, u64::MAX, 0)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(
        derived,
        [dp(0, 150.0)],
        "the subscribers died with the silo"
    );
    rt.shutdown();
}

/// Aggregates are a cache of the series: after a silo kill they count
/// exactly the points a raw range returns, and a bucket blob an older
/// version left in the state store is never read.
#[test]
fn aggregates_agree_with_the_series_after_a_silo_kill() {
    const HOUR: u64 = 3_600_000;
    for series in Series::ALL {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let wal = fresh_wal("aggregates-kill");
        let (rt, topology) = platform(series, &store, &wal, 1, TopologySpec::default());
        let client = ShmClient::new(rt.handle());
        let sensor = &topology.orgs[0].sensors[0];
        let channel = sensor.physical[0].as_str();
        let points: Vec<DataPoint> = (0..60).map(|i| dp(i * HOUR / 20, i as f64)).collect();
        let ingest = |points: &[DataPoint]| {
            client
                .ingest(channel, points.to_vec())
                .unwrap()
                .wait_for(Duration::from_secs(5))
                .unwrap()
        };
        ingest(&points[..30]);
        let hours = |client: &ShmClient| {
            client
                .aggregates(channel, AggregateLevel::Hour, 0, u64::MAX)
                .unwrap()
                .wait_for(Duration::from_secs(5))
                .unwrap()
        };
        assert_eq!(hours(&client).len(), 2, "{series:?}");
        // A bucket blob in the format aggregators once persisted, with a
        // bucket the series never held.
        let orphan =
            br#"{"buckets":{"0":{"count":99,"sum":1.0,"min":1.0,"max":1.0,"sum_sq":1.0}}}"#;
        let key = aggregator_key(channel, AggregateLevel::Hour);
        store
            .put(
                &state_key(Aggregator::TYPE_NAME, &key.into()),
                orphan.to_vec().into(),
            )
            .unwrap();
        ingest(&points[30..]);
        rt.kill_silo(SiloId(0));
        drop(rt);

        let rt = Runtime::single(2);
        register_all(&rt, series.env(&store, &wal));
        let client = ShmClient::new(rt.handle());
        let mut expected = std::collections::BTreeMap::<u64, Aggregate>::new();
        for p in &points {
            expected
                .entry(AggregateLevel::Hour.bucket_start(p.ts_ms))
                .or_default()
                .record(p.value);
        }
        let expected: Vec<(u64, Aggregate)> = expected.into_iter().collect();
        assert_eq!(hours(&client), expected, "{series:?}");
        let days = client
            .aggregates(channel, AggregateLevel::Day, 0, u64::MAX)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(days.len(), 1, "{series:?}");
        assert_eq!(days[0].1.count, 60, "{series:?}: the open hour is counted");
        rt.shutdown();
    }
}

#[test]
fn org_info_reflects_paper_provisioning_ratio() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let (rt, topology) = small_platform(&store, 100, TopologySpec::default());
    let client = ShmClient::new(rt.handle());
    let info = client
        .org_info(&topology.orgs[0].key)
        .unwrap()
        .wait_for(Duration::from_secs(5))
        .unwrap();
    assert_eq!(info.users.len(), 1);
    assert_eq!(info.projects.len(), 1);
    assert_eq!(info.sensors.len(), 100);
    assert_eq!(info.channels.len(), 210, "200 physical + 10 virtual");
    rt.shutdown();
}

#[test]
fn multi_silo_prefer_local_keeps_org_traffic_local() {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let rt = Runtime::builder()
        .silos(2, 2)
        .placement(PreferLocalPlacement)
        .network(NetConfig::lan())
        .build();
    register_all(&rt, ShmEnv::paper_default(Arc::clone(&store)));
    // Two orgs, one per silo.
    let topology = Topology::layout(
        20,
        TopologySpec {
            sensors_per_org: 10,
            ..Default::default()
        },
    );
    assert_eq!(topology.orgs.len(), 2);
    provision(&rt, &topology, |org_idx| Some(SiloId(org_idx as u32))).unwrap();

    let before = rt.metrics();
    // Ingest through each org's local gateway: all hops silo-local.
    for (org_idx, org) in topology.orgs.iter().enumerate() {
        let client = ShmClient::new(rt.handle_on(SiloId(org_idx as u32)));
        for sensor in &org.sensors {
            for channel in &sensor.physical {
                client
                    .ingest(channel, vec![dp(0, 1.0)])
                    .unwrap()
                    .wait()
                    .unwrap();
            }
        }
    }
    assert!(rt.quiesce(Duration::from_secs(5)));
    let after = rt.metrics();
    assert_eq!(
        after.remote_messages, before.remote_messages,
        "prefer-local + affine gateways must produce zero cross-silo hops"
    );
    rt.shutdown();
}

//! Criterion micro-benchmarks of the SHM platform's hot paths: channel
//! ingest (with and without derived streams and aggregation), raw range
//! queries, and the organization live-data fan-out.

use std::sync::Arc;
use std::time::Duration;

use aodb_runtime::Runtime;
use aodb_shm::types::DataPoint;
use aodb_shm::{provision, register_all, ShmClient, ShmEnv, Topology, TopologySpec};
use aodb_store::MemStore;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn points(ts: u64) -> Vec<DataPoint> {
    (0..10)
        .map(|i| DataPoint {
            ts_ms: ts + i * 100,
            value: i as f64,
        })
        .collect()
}

fn build(spec: TopologySpec, sensors: usize) -> (Runtime, Topology, ShmClient) {
    let rt = Runtime::single(2);
    register_all(&rt, ShmEnv::paper_default(Arc::new(MemStore::new())));
    let topology = Topology::layout(sensors, spec);
    provision(&rt, &topology, |_| None).unwrap();
    let client = ShmClient::new(rt.handle());
    (rt, topology, client)
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("shm_ingest");
    group.throughput(Throughput::Elements(10)); // points per request

    {
        // Plain channel: no virtual subscriber.
        let spec = TopologySpec {
            virtual_every: 0,
            ..Default::default()
        };
        let (rt, topology, client) = build(spec, 2);
        let channel = client.channel(topology.orgs[0].sensors[1].physical[0].as_str());
        let mut ts = 0u64;
        group.bench_function("plain_channel_10pts", |b| {
            b.iter(|| {
                ts += 1000;
                channel
                    .call(aodb_shm::messages::Ingest::new(points(ts)))
                    .unwrap()
            })
        });
        rt.shutdown();
    }
    {
        // Full paper path: a virtual subscriber.
        let (rt, topology, client) = build(TopologySpec::default(), 2);
        let sensor = &topology.orgs[0].sensors[0];
        assert!(sensor.virtual_channel.is_some());
        let channel = client.channel(sensor.physical[0].as_str());
        let mut ts = 0u64;
        group.bench_function("subscribed_channel_10pts", |b| {
            b.iter(|| {
                ts += 1000;
                channel
                    .call(aodb_shm::messages::Ingest::new(points(ts)))
                    .unwrap()
            })
        });
        rt.shutdown();
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("shm_queries");
    let (rt, topology, client) = build(TopologySpec::default(), 10);
    let channel_key = topology.orgs[0].sensors[0].physical[0].clone();
    // Preload a window.
    for batch in 0..100u64 {
        client
            .ingest(&channel_key, points(batch * 1000))
            .unwrap()
            .wait()
            .unwrap();
    }
    rt.quiesce(Duration::from_secs(10));

    group.bench_function("raw_range_100pts", |b| {
        b.iter(|| {
            client
                .raw_range(&channel_key, 0, 10_000, 0)
                .unwrap()
                .wait()
                .unwrap()
        })
    });

    group.bench_function("live_data_21_channels", |b| {
        b.iter(|| {
            client
                .live_data(&topology.orgs[0].key)
                .unwrap()
                .wait_for(Duration::from_secs(10))
                .unwrap()
        })
    });

    group.bench_function("channel_stats", |b| {
        b.iter(|| client.channel_stats(&channel_key).unwrap().wait().unwrap())
    });
    group.finish();
    rt.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1))
        .sample_size(20);
    targets = bench_ingest, bench_queries
}
criterion_main!(benches);

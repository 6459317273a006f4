//! Ingest-gateway tests: batching, backpressure, flush (explicit, timer,
//! and drain-on-shutdown), and end-to-end delivery into channels.

use std::sync::Arc;
use std::time::Duration;

use aodb_runtime::Runtime;
use aodb_shm::gateway::{
    ConfigureGateway, FlushGateway, GatewayAck, GatewayConfig, GatewayIngest, GatewayStats,
};
use aodb_shm::types::DataPoint;
use aodb_shm::{provision, register_all, IngestGateway, ShmClient, ShmEnv, Topology, TopologySpec};
use aodb_store::{MemStore, StateStore};

const T: Duration = Duration::from_secs(10);

fn dp(ts_ms: u64) -> DataPoint {
    DataPoint { ts_ms, value: 1.0 }
}

fn setup() -> (Runtime, Topology, ShmClient) {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let rt = Runtime::single(2);
    register_all(&rt, ShmEnv::paper_default(store));
    let topology = Topology::layout(2, TopologySpec::default());
    provision(&rt, &topology, |_| None).unwrap();
    let client = ShmClient::new(rt.handle());
    (rt, topology, client)
}

#[test]
fn gateway_coalesces_small_packets_into_batches() {
    let (rt, topology, client) = setup();
    let gw = rt.actor_ref::<IngestGateway>("gw-0");
    gw.call(ConfigureGateway(GatewayConfig {
        flush_batch: 10,
        capacity_points: 1000,
    }))
    .unwrap();
    let channel = topology.physical_channels().next().unwrap().to_string();

    // 10 packets of 2 points: the gateway should forward exactly 2
    // batches of 10 instead of 10 tiny ingests.
    for i in 0..10u64 {
        let ack = gw
            .call(GatewayIngest {
                channel: channel.clone(),
                points: vec![dp(i * 2), dp(i * 2 + 1)],
            })
            .unwrap();
        assert_eq!(ack, GatewayAck::Accepted);
    }
    assert!(rt.quiesce(T));
    let stats = gw.call(GatewayStats).unwrap();
    assert_eq!(stats.forwarded_batches, 2);
    assert_eq!(stats.buffered_points, 0);
    let channel_stats = client.channel_stats(&channel).unwrap().wait_for(T).unwrap();
    assert_eq!(channel_stats.total_points, 20);
    rt.shutdown();
}

#[test]
fn explicit_flush_drains_partial_batches() {
    let (rt, topology, client) = setup();
    let gw = rt.actor_ref::<IngestGateway>("gw-1");
    gw.call(ConfigureGateway(GatewayConfig {
        flush_batch: 100,
        capacity_points: 1000,
    }))
    .unwrap();
    let channel = topology.physical_channels().next().unwrap().to_string();

    gw.call(GatewayIngest {
        channel: channel.clone(),
        points: vec![dp(1), dp(2), dp(3)],
    })
    .unwrap();
    // Below flush_batch: nothing forwarded yet.
    assert_eq!(
        client
            .channel_stats(&channel)
            .unwrap()
            .wait_for(T)
            .unwrap()
            .total_points,
        0
    );
    assert_eq!(gw.call(FlushGateway).unwrap(), 3);
    assert!(rt.quiesce(T));
    assert_eq!(
        client
            .channel_stats(&channel)
            .unwrap()
            .wait_for(T)
            .unwrap()
            .total_points,
        3
    );
    rt.shutdown();
}

#[test]
fn periodic_flush_timer_works() {
    let (rt, topology, client) = setup();
    let gw = rt.actor_ref::<IngestGateway>("gw-2");
    gw.call(ConfigureGateway(GatewayConfig {
        flush_batch: 1000,
        capacity_points: 10_000,
    }))
    .unwrap();
    let channel = topology.physical_channels().next().unwrap().to_string();
    let _timer = rt.schedule_interval(&gw, FlushGateway, Duration::from_millis(20));

    gw.call(GatewayIngest {
        channel: channel.clone(),
        points: vec![dp(1), dp(2)],
    })
    .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let n = client
            .channel_stats(&channel)
            .unwrap()
            .wait_for(T)
            .unwrap()
            .total_points;
        if n == 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "timer flush never delivered"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    rt.shutdown();
}

#[test]
fn full_buffer_rejects_with_backpressure() {
    let (rt, topology, _client) = setup();
    let gw = rt.actor_ref::<IngestGateway>("gw-3");
    gw.call(ConfigureGateway(GatewayConfig {
        flush_batch: 1000,
        capacity_points: 10,
    }))
    .unwrap();
    let channel = topology.physical_channels().next().unwrap().to_string();

    assert_eq!(
        gw.call(GatewayIngest {
            channel: channel.clone(),
            points: (0..10).map(dp).collect()
        })
        .unwrap(),
        GatewayAck::Accepted
    );
    assert_eq!(
        gw.call(GatewayIngest {
            channel: channel.clone(),
            points: vec![dp(99)]
        })
        .unwrap(),
        GatewayAck::Rejected
    );
    let stats = gw.call(GatewayStats).unwrap();
    assert_eq!(stats.rejected, 1);
    // Draining restores acceptance.
    gw.call(FlushGateway).unwrap();
    assert_eq!(
        gw.call(GatewayIngest {
            channel,
            points: vec![dp(100)]
        })
        .unwrap(),
        GatewayAck::Accepted
    );
    rt.shutdown();
}

#[test]
fn shutdown_drains_buffered_points() {
    // The env, and with it the series store, outlives the first runtime.
    let env = ShmEnv::paper_default(Arc::new(MemStore::new()));
    let channel;
    {
        let rt = Runtime::single(2);
        register_all(&rt, env.clone());
        let topology = Topology::layout(2, TopologySpec::default());
        provision(&rt, &topology, |_| None).unwrap();
        channel = topology.physical_channels().next().unwrap().to_string();
        let gw = rt.actor_ref::<IngestGateway>("gw-4");
        gw.call(ConfigureGateway(GatewayConfig {
            flush_batch: 1000,
            capacity_points: 1000,
        }))
        .unwrap();
        gw.call(GatewayIngest {
            channel: channel.clone(),
            points: vec![dp(1), dp(2)],
        })
        .unwrap();
        // No flush: the points only exist in the gateway buffer. Orderly
        // shutdown must push them into the channel, whose deactivation
        // then persists them.
        rt.shutdown();
    }
    let rt = Runtime::single(2);
    register_all(&rt, env);
    let client = ShmClient::new(rt.handle());
    assert_eq!(
        client
            .channel_stats(&channel)
            .unwrap()
            .wait_for(T)
            .unwrap()
            .total_points,
        2
    );
    rt.shutdown();
}

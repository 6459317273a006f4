//! End-to-end behavioural tests of the virtual-actor runtime: activation
//! lifecycle, turn-based execution, placement, simulated network, timers,
//! panic isolation, and shutdown semantics.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aodb_runtime::{
    gather, Actor, ActorContext, CallError, ConsistentHashPlacement, Handler, LatencyModel,
    Message, NetConfig, PreferLocalPlacement, PromiseError, Runtime, SendError, SiloId,
};

// ---------------------------------------------------------------- fixtures

/// Shared probe counters handed to test actors through their factories.
#[derive(Default)]
struct Probe {
    activations: AtomicUsize,
    deactivations: AtomicUsize,
}

struct Counter {
    value: u64,
    probe: Arc<Probe>,
}

impl Actor for Counter {
    const TYPE_NAME: &'static str = "test.counter";

    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.probe.activations.fetch_add(1, Ordering::SeqCst);
    }

    fn on_deactivate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.probe.deactivations.fetch_add(1, Ordering::SeqCst);
    }
}

#[derive(Clone)]
struct Add(u64);
impl Message for Add {
    type Reply = u64;
}
impl Handler<Add> for Counter {
    fn handle(&mut self, msg: Add, _ctx: &mut ActorContext<'_>) -> u64 {
        self.value += msg.0;
        self.value
    }
}

struct Get;
impl Message for Get {
    type Reply = u64;
}
impl Handler<Get> for Counter {
    fn handle(&mut self, _msg: Get, _ctx: &mut ActorContext<'_>) -> u64 {
        self.value
    }
}

struct Boom;
impl Message for Boom {
    type Reply = ();
}
impl Handler<Boom> for Counter {
    fn handle(&mut self, _msg: Boom, _ctx: &mut ActorContext<'_>) {
        panic!("intentional test panic");
    }
}

struct Retire;
impl Message for Retire {
    type Reply = ();
}
impl Handler<Retire> for Counter {
    fn handle(&mut self, _msg: Retire, ctx: &mut ActorContext<'_>) {
        ctx.deactivate();
    }
}

struct WhichSilo;
impl Message for WhichSilo {
    type Reply = SiloId;
}
impl Handler<WhichSilo> for Counter {
    fn handle(&mut self, _msg: WhichSilo, ctx: &mut ActorContext<'_>) -> SiloId {
        ctx.silo()
    }
}

fn counter_runtime(probe: &Arc<Probe>) -> Runtime {
    let rt = Runtime::single(2);
    let probe = Arc::clone(probe);
    rt.register(move |_id| Counter {
        value: 0,
        probe: Arc::clone(&probe),
    });
    rt
}

// ------------------------------------------------------------------ tests

#[test]
fn virtual_actor_activates_on_first_message() {
    let probe = Arc::new(Probe::default());
    let rt = counter_runtime(&probe);
    assert_eq!(rt.active_actors(), 0);
    let c = rt.actor_ref::<Counter>(1u64);
    assert_eq!(c.call(Add(3)).unwrap(), 3);
    assert_eq!(rt.active_actors(), 1);
    assert_eq!(probe.activations.load(Ordering::SeqCst), 1);
    rt.shutdown();
}

#[test]
fn state_persists_across_messages_within_activation() {
    let probe = Arc::new(Probe::default());
    let rt = counter_runtime(&probe);
    let c = rt.actor_ref::<Counter>("acc");
    for i in 1..=100u64 {
        assert_eq!(c.call(Add(1)).unwrap(), i);
    }
    assert_eq!(
        probe.activations.load(Ordering::SeqCst),
        1,
        "must not re-activate"
    );
    rt.shutdown();
}

#[test]
fn distinct_keys_are_distinct_actors() {
    let probe = Arc::new(Probe::default());
    let rt = counter_runtime(&probe);
    let a = rt.actor_ref::<Counter>(1u64);
    let b = rt.actor_ref::<Counter>(2u64);
    a.call(Add(10)).unwrap();
    b.call(Add(20)).unwrap();
    assert_eq!(a.call(Get).unwrap(), 10);
    assert_eq!(b.call(Get).unwrap(), 20);
    assert_eq!(rt.active_actors(), 2);
    rt.shutdown();
}

#[test]
fn turn_based_execution_means_no_lost_updates() {
    // 8 client threads hammer one actor; turn-based execution must make
    // the increments fully serialized.
    let probe = Arc::new(Probe::default());
    let rt = counter_runtime(&probe);
    let per_thread = 5_000u64;
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let c = rt.actor_ref::<Counter>("shared");
            std::thread::spawn(move || {
                for _ in 0..per_thread {
                    c.tell(Add(1)).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(rt.quiesce(Duration::from_secs(10)));
    let c = rt.actor_ref::<Counter>("shared");
    assert_eq!(c.call(Get).unwrap(), 8 * per_thread);
    rt.shutdown();
}

#[test]
fn unregistered_type_reports_error() {
    let rt = Runtime::single(1);
    let err = rt.try_actor_ref::<Counter>(1u64).unwrap_err();
    assert!(matches!(err, SendError::NotRegistered(_)));
    rt.shutdown();
}

#[test]
fn handler_panic_is_isolated_and_reply_is_lost() {
    let probe = Arc::new(Probe::default());
    let rt = counter_runtime(&probe);
    let c = rt.actor_ref::<Counter>("panicky");
    c.call(Add(5)).unwrap();
    let err = c.call(Boom).unwrap_err();
    assert!(matches!(err, CallError::Reply(PromiseError::Lost)));
    // The panicked activation is discarded; the next message builds a
    // fresh one from durable state (this counter keeps none).
    assert_eq!(c.call(Get).unwrap(), 0);
    assert_eq!(probe.activations.load(Ordering::SeqCst), 2);
    assert_eq!(rt.metrics().handler_panics, 1);
    rt.shutdown();
}

#[test]
fn explicit_deactivation_resets_state_and_reactivates() {
    let probe = Arc::new(Probe::default());
    let rt = counter_runtime(&probe);
    let c = rt.actor_ref::<Counter>("cycle");
    c.call(Add(42)).unwrap();
    c.call(Retire).unwrap();
    assert!(rt.quiesce(Duration::from_secs(5)));
    // Deactivation happens right after the turn; give the worker a moment.
    let deadline = Instant::now() + Duration::from_secs(2);
    while probe.deactivations.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(probe.deactivations.load(Ordering::SeqCst), 1);
    // Next message transparently re-activates with factory-fresh state.
    assert_eq!(c.call(Get).unwrap(), 0);
    assert_eq!(probe.activations.load(Ordering::SeqCst), 2);
    rt.shutdown();
}

#[test]
fn idle_timeout_reclaims_activations() {
    let probe = Arc::new(Probe::default());
    let rt = Runtime::builder()
        .silos(1, 2)
        .idle_timeout(Duration::from_millis(50))
        .build();
    {
        let probe = Arc::clone(&probe);
        rt.register(move |_id| Counter {
            value: 0,
            probe: Arc::clone(&probe),
        });
    }
    let c = rt.actor_ref::<Counter>("idler");
    c.call(Add(1)).unwrap();
    assert_eq!(rt.active_actors(), 1);
    let deadline = Instant::now() + Duration::from_secs(3);
    while rt.active_actors() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(rt.active_actors(), 0, "idle activation should be reclaimed");
    assert_eq!(probe.deactivations.load(Ordering::SeqCst), 1);
    // Virtual actor is still addressable afterwards.
    assert_eq!(c.call(Get).unwrap(), 0);
    rt.shutdown();
}

#[test]
fn shutdown_deactivates_everything() {
    let probe = Arc::new(Probe::default());
    let rt = counter_runtime(&probe);
    for k in 0..10u64 {
        rt.actor_ref::<Counter>(k).call(Add(1)).unwrap();
    }
    assert_eq!(rt.active_actors(), 10);
    rt.shutdown();
    assert_eq!(probe.deactivations.load(Ordering::SeqCst), 10);
}

#[test]
fn consistent_hash_placement_is_reproducible_across_silos() {
    let probe = Arc::new(Probe::default());
    let build = || {
        let rt = Runtime::builder()
            .silos(4, 1)
            .placement(ConsistentHashPlacement)
            .build();
        let probe = Arc::clone(&probe);
        rt.register(move |_id| Counter {
            value: 0,
            probe: Arc::clone(&probe),
        });
        rt
    };
    let rt1 = build();
    let placements1: Vec<SiloId> = (0..32u64)
        .map(|k| rt1.actor_ref::<Counter>(k).call(WhichSilo).unwrap())
        .collect();
    rt1.shutdown();
    let rt2 = build();
    let placements2: Vec<SiloId> = (0..32u64)
        .map(|k| rt2.actor_ref::<Counter>(k).call(WhichSilo).unwrap())
        .collect();
    rt2.shutdown();
    assert_eq!(placements1, placements2);
    let distinct: std::collections::HashSet<_> = placements1.iter().collect();
    assert!(distinct.len() > 1, "keys should spread over silos");
}

#[test]
fn prefer_local_pins_to_gateway_silo() {
    let probe = Arc::new(Probe::default());
    let rt = Runtime::builder()
        .silos(3, 1)
        .placement(PreferLocalPlacement)
        .build();
    {
        let probe = Arc::clone(&probe);
        rt.register(move |_id| Counter {
            value: 0,
            probe: Arc::clone(&probe),
        });
    }
    for silo in 0..3u32 {
        let handle = rt.handle_on(SiloId(silo));
        let c = handle.actor_ref::<Counter>(1000 + silo as u64);
        assert_eq!(c.call(WhichSilo).unwrap(), SiloId(silo));
    }
    rt.shutdown();
}

#[test]
fn cross_silo_messages_pay_latency() {
    let probe = Arc::new(Probe::default());
    let rt = Runtime::builder()
        .silos(2, 1)
        .placement(PreferLocalPlacement)
        .network(NetConfig {
            cross_silo: Some(LatencyModel::fixed(Duration::from_millis(20))),
            client: None,
        })
        .build();
    {
        let probe = Arc::clone(&probe);
        rt.register(move |_id| Counter {
            value: 0,
            probe: Arc::clone(&probe),
        });
    }
    // Pin the actor to silo 0 via an affine gateway.
    let local = rt.handle_on(SiloId(0)).actor_ref::<Counter>("pinned");
    local.call(Add(1)).unwrap();

    // Local call: fast.
    let t0 = Instant::now();
    local.call(Get).unwrap();
    let local_latency = t0.elapsed();

    // Call from a gateway on the other silo: pays the 20 ms hop.
    let remote = rt.handle_on(SiloId(1)).actor_ref::<Counter>("pinned");
    let t0 = Instant::now();
    remote.call(Get).unwrap();
    let remote_latency = t0.elapsed();

    assert!(
        remote_latency >= Duration::from_millis(18),
        "remote call should pay the simulated hop, took {remote_latency:?}"
    );
    assert!(
        local_latency < Duration::from_millis(10),
        "local call should not pay the hop, took {local_latency:?}"
    );
    assert!(rt.metrics().remote_messages >= 1);
    rt.shutdown();
}

#[test]
fn scatter_gather_collects_from_many_actors() {
    let probe = Arc::new(Probe::default());
    let rt = counter_runtime(&probe);
    for k in 0..20u64 {
        rt.actor_ref::<Counter>(k).call(Add(k)).unwrap();
    }
    let (collector, promise) = gather::<u64>(20);
    for k in 0..20u64 {
        rt.actor_ref::<Counter>(k)
            .ask_with(Get, collector.slot())
            .unwrap();
    }
    let mut values = promise.wait_for(Duration::from_secs(5)).unwrap();
    values.sort_unstable();
    assert_eq!(values, (0..20).collect::<Vec<_>>());
    rt.shutdown();
}

#[test]
fn recipient_erases_actor_type() {
    let probe = Arc::new(Probe::default());
    let rt = counter_runtime(&probe);
    let recipient = rt.actor_ref::<Counter>("erased").recipient::<Add>();
    assert_eq!(recipient.ask(Add(4)).unwrap().wait().unwrap(), 4);
    recipient.tell(Add(6)).unwrap();
    assert!(rt.quiesce(Duration::from_secs(5)));
    assert_eq!(rt.actor_ref::<Counter>("erased").call(Get).unwrap(), 10);
    rt.shutdown();
}

#[test]
fn interval_timer_fires_until_cancelled() {
    let probe = Arc::new(Probe::default());
    let rt = counter_runtime(&probe);
    let c = rt.actor_ref::<Counter>("timed");
    c.call(Add(0)).unwrap();
    let timer = rt.schedule_interval(&c, Add(1), Duration::from_millis(10));
    let deadline = Instant::now() + Duration::from_secs(5);
    while c.call(Get).unwrap() < 5 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let at_cancel = c.call(Get).unwrap();
    assert!(at_cancel >= 5, "timer should have fired repeatedly");
    timer.cancel();
    std::thread::sleep(Duration::from_millis(60));
    let after = c.call(Get).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    // Allow one in-flight firing around cancellation, then it must stop.
    assert!(
        c.call(Get).unwrap() <= after + 1,
        "timer kept firing after cancel"
    );
    rt.shutdown();
}

#[test]
fn delayed_self_notification() {
    struct Echo {
        fired: Arc<AtomicU64>,
    }
    impl Actor for Echo {
        const TYPE_NAME: &'static str = "test.echo";
    }
    struct Kick;
    impl Message for Kick {
        type Reply = ();
    }
    impl Handler<Kick> for Echo {
        fn handle(&mut self, _msg: Kick, ctx: &mut ActorContext<'_>) {
            if self.fired.fetch_add(1, Ordering::SeqCst) == 0 {
                ctx.notify_self_after::<Echo, Kick>(Kick, Duration::from_millis(20));
            }
        }
    }
    let fired = Arc::new(AtomicU64::new(0));
    let rt = Runtime::single(1);
    {
        let fired = Arc::clone(&fired);
        rt.register(move |_id| Echo {
            fired: Arc::clone(&fired),
        });
    }
    rt.actor_ref::<Echo>("e").call(Kick).unwrap();
    let deadline = Instant::now() + Duration::from_secs(3);
    while fired.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(fired.load(Ordering::SeqCst), 2);
    rt.shutdown();
}

#[test]
fn throughput_sanity_many_actors_many_messages() {
    let probe = Arc::new(Probe::default());
    let rt = Runtime::single(4);
    {
        let probe = Arc::clone(&probe);
        rt.register(move |_id| Counter {
            value: 0,
            probe: Arc::clone(&probe),
        });
    }
    let n_actors = 1000u64;
    let per_actor = 100u64;
    for round in 0..per_actor {
        for k in 0..n_actors {
            let _ = round;
            rt.actor_ref::<Counter>(k).tell(Add(1)).unwrap();
        }
    }
    assert!(rt.quiesce(Duration::from_secs(30)));
    for k in (0..n_actors).step_by(97) {
        assert_eq!(rt.actor_ref::<Counter>(k).call(Get).unwrap(), per_actor);
    }
    let m = rt.metrics();
    assert!(m.messages_processed >= n_actors * per_actor);
    rt.shutdown();
}

//! Silo crash/restart semantics: eviction, SiloLost resolution,
//! re-placement on survivors, and reactivation accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aodb_runtime::{
    Actor, ActorContext, ActorError, FaultPlan, Handler, Message, NetConfig, Placement, Runtime,
    RuntimeBuilder, SendError, SiloId,
};

/// Pins every actor onto the silo named by the low bits of its key hash —
/// deterministic multi-silo spread for crash targeting.
struct ModuloPlacement;
impl Placement for ModuloPlacement {
    fn name(&self) -> &'static str {
        "modulo"
    }
    fn place(
        &self,
        id: &aodb_runtime::ActorId,
        _origin: aodb_runtime::Origin,
        silos: usize,
    ) -> SiloId {
        SiloId((id.stable_hash() % silos as u64) as u32)
    }
}

struct Counter {
    value: u64,
    activations: Arc<AtomicU64>,
}

impl Actor for Counter {
    const TYPE_NAME: &'static str = "crash.counter";
    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.activations.fetch_add(1, Ordering::SeqCst);
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

#[derive(Clone)]
struct SlowAdd(u64, Duration);
impl Message for SlowAdd {
    type Reply = u64;
}
impl Handler<SlowAdd> for Counter {
    fn handle(&mut self, msg: SlowAdd, _ctx: &mut ActorContext<'_>) -> u64 {
        std::thread::sleep(msg.1);
        self.value += msg.0;
        self.value
    }
}

fn multi_silo() -> (Runtime, Arc<AtomicU64>) {
    let rt = RuntimeBuilder::new()
        .silos(3, 2)
        .placement(ModuloPlacement)
        .build();
    let activations = Arc::new(AtomicU64::new(0));
    let acts = Arc::clone(&activations);
    rt.register(move |_id| Counter {
        value: 0,
        activations: Arc::clone(&acts),
    });
    (rt, activations)
}

/// Finds a key whose ModuloPlacement target is `silo`.
fn key_on(rt: &Runtime, silo: SiloId) -> String {
    for i in 0..10_000 {
        let key = format!("k{i}");
        let r = rt.actor_ref::<Counter>(key.as_str());
        if r.id().stable_hash() % rt.silo_count() as u64 == silo.index() as u64 {
            return key;
        }
    }
    panic!("no key maps to {silo}");
}

#[test]
fn kill_evicts_and_next_message_reactivates_elsewhere() {
    let (rt, activations) = multi_silo();
    let victim = SiloId(1);
    let key = key_on(&rt, victim);
    let r = rt.actor_ref::<Counter>(key.as_str());
    assert_eq!(r.call(Add(5)).unwrap(), 5);
    assert_eq!(activations.load(Ordering::SeqCst), 1);
    assert!(rt.quiesce(Duration::from_secs(2)));

    let report = rt.kill_silo(victim);
    assert!(!rt.silo_alive(victim));
    assert_eq!(report.evicted_activations, 1);
    assert_eq!(rt.active_actors(), 0);
    assert_eq!(rt.metrics().silo_crashes, 1);

    // Unpersisted state is gone; the next message re-activates fresh on a
    // surviving silo.
    assert_eq!(r.call(Add(3)).unwrap(), 3);
    assert_eq!(activations.load(Ordering::SeqCst), 2);
    assert_eq!(rt.metrics().reactivations, 1);
    rt.shutdown();
}

#[test]
fn kill_is_idempotent_and_restart_revives() {
    let (rt, _) = multi_silo();
    let victim = SiloId(2);
    assert_eq!(rt.kill_silo(victim).evicted_activations, 0);
    // Second kill is a no-op.
    let again = rt.kill_silo(victim);
    assert_eq!(again.evicted_activations, 0);
    assert_eq!(rt.metrics().silo_crashes, 1);

    assert!(rt.restart_silo(victim));
    assert!(!rt.restart_silo(victim)); // not dead anymore
    assert!(rt.silo_alive(victim));

    // The revived silo hosts work again.
    let key = key_on(&rt, victim);
    let r = rt.actor_ref::<Counter>(key.as_str());
    assert_eq!(r.call(Add(1)).unwrap(), 1);
    rt.shutdown();
}

#[test]
fn queued_work_on_killed_silo_resolves_as_silo_lost() {
    let (rt, _) = multi_silo();
    let victim = SiloId(1);
    let key = key_on(&rt, victim);
    let r = rt.actor_ref::<Counter>(key.as_str());

    // Occupy the activation with a slow turn, then queue more work behind
    // it so the kill catches a non-empty mailbox.
    let slow = r.ask(SlowAdd(1, Duration::from_millis(300))).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let queued: Vec<_> = (0..4).map(|_| r.ask(Add(1)).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(20));

    let _ = rt.kill_silo(victim);

    // The in-flight turn ran to completion (indistinguishable from
    // finishing just before the crash); everything queued behind it died
    // with the silo.
    assert_eq!(slow.wait().unwrap(), 1);
    let mut lost = 0;
    for p in queued {
        match p.wait() {
            Err(ActorError::SiloLost) => lost += 1,
            Ok(_) => panic!("queued turn survived a dead silo"),
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(lost, 4);
    assert_eq!(rt.metrics().lost_turns, 4);

    // SiloLost is retryable: the same reference works immediately.
    assert_eq!(r.call(Add(10)).unwrap(), 10);
    rt.shutdown();
}

#[test]
fn all_silos_dead_yields_no_silo_available() {
    let (rt, _) = multi_silo();
    for i in 0..rt.silo_count() {
        rt.kill_silo(SiloId(i as u32));
    }
    let r = rt.actor_ref::<Counter>("anyone");
    match r.tell(Add(1)) {
        Err(SendError::NoSiloAvailable) => {}
        other => panic!("expected NoSiloAvailable, got {other:?}"),
    }
    rt.restart_silo(SiloId(0));
    assert_eq!(r.call(Add(1)).unwrap(), 1);
    rt.shutdown();
}

#[test]
fn crash_under_load_loses_no_acknowledged_reply() {
    // Hammer one actor across a kill+restart: every Ok(reply) must reflect
    // a turn that really ran (monotonic counter), and every failure must be
    // a typed, retryable error — never a hang or a wrong value.
    let (rt, _) = multi_silo();
    let victim = SiloId(1);
    let key = key_on(&rt, victim);
    let r = rt.actor_ref::<Counter>(key.as_str());

    // Pipeline requests (don't wait one-by-one) so the kill catches a
    // backed-up mailbox; each turn sleeps a little to keep the queue deep.
    let mut promises = Vec::new();
    for i in 0..400 {
        if i == 150 {
            rt.kill_silo(victim);
        }
        if i == 250 {
            assert!(rt.restart_silo(victim));
        }
        match r.ask(SlowAdd(1, Duration::from_micros(200))) {
            Ok(p) => promises.push(p),
            Err(SendError::NoSiloAvailable) => {}
            Err(e) => panic!("unexpected send error: {e}"),
        }
    }
    let mut acked = 0u64;
    let mut lost = 0u64;
    for p in promises {
        match p.wait_for(Duration::from_secs(10)) {
            Ok(v) => {
                assert!(v > 0);
                acked += 1;
            }
            Err(ActorError::SiloLost) | Err(ActorError::Lost) => lost += 1,
            Err(e) => panic!("unexpected promise error: {e}"),
        }
    }
    // The counter restarts from zero on crash eviction (no persistence in
    // this fixture), so the final value can be below `acked`; what must
    // hold is that at least as many turns ran as were acknowledged.
    // (Quiesce first: a slice adds to `messages_processed` after its last
    // reply is delivered but before its mailbox goes Idle.)
    assert!(rt.quiesce(Duration::from_secs(5)));
    let processed = rt.metrics().messages_processed;
    assert!(
        processed >= acked,
        "acked {acked} > processed {processed} (acknowledged write lost)"
    );
    assert!(acked > 0, "no request ever succeeded");
    assert!(lost > 0, "kill never interfered — test proves nothing");
    rt.shutdown();
}

#[test]
fn chaos_plan_drops_and_delays_cross_silo_messages() {
    // All-faults-on plan over a latency-charging network: drops resolve as
    // Lost (never hang), and stats record injected faults.
    let plan = FaultPlan::new(0xC0FFEE).with_net(aodb_runtime::ChaosNetConfig {
        drop_per_mille: 200,
        duplicate_per_mille: 0,
        delay_per_mille: 300,
        max_extra_delay: Duration::from_micros(500),
    });
    let rt = RuntimeBuilder::new()
        .silos(2, 2)
        .placement(ModuloPlacement)
        .network(NetConfig {
            cross_silo: Some(aodb_runtime::LatencyModel::fixed(Duration::from_micros(50))),
            client: Some(aodb_runtime::LatencyModel::fixed(Duration::from_micros(50))),
        })
        .chaos(plan)
        .build();
    let activations = Arc::new(AtomicU64::new(0));
    let acts = Arc::clone(&activations);
    rt.register(move |_id| Counter {
        value: 0,
        activations: Arc::clone(&acts),
    });

    let r = rt.actor_ref::<Counter>("chaotic");
    let mut ok = 0;
    let mut lost = 0;
    for _ in 0..300 {
        match r.ask(Add(1)).unwrap().wait_for(Duration::from_secs(5)) {
            Ok(_) => ok += 1,
            Err(ActorError::Lost) => lost += 1,
            Err(e) => panic!("unexpected error under chaos: {e}"),
        }
    }
    let stats = rt.chaos_stats().expect("chaos installed");
    assert_eq!(stats.dropped, lost, "every drop must resolve a promise");
    assert!(ok > 0 && lost > 0, "ok={ok} lost={lost}");
    assert!(stats.delayed > 0);
    rt.shutdown();
}

#[test]
fn chaos_duplicates_replayable_sends_only() {
    let plan = FaultPlan::new(7).with_net(aodb_runtime::ChaosNetConfig {
        drop_per_mille: 0,
        duplicate_per_mille: 1000, // duplicate every message that can be
        delay_per_mille: 0,
        max_extra_delay: Duration::ZERO,
    });
    let rt = RuntimeBuilder::new()
        .silos(1, 2)
        .network(NetConfig {
            cross_silo: None,
            client: Some(aodb_runtime::LatencyModel::fixed(Duration::from_micros(20))),
        })
        .chaos(plan)
        .build();
    let activations = Arc::new(AtomicU64::new(0));
    let acts = Arc::clone(&activations);
    rt.register(move |_id| Counter {
        value: 0,
        activations: Arc::clone(&acts),
    });
    let r = rt.actor_ref::<Counter>("dup");

    // Non-replayable ask: delivered exactly once even at 100% duplication.
    assert_eq!(r.ask(Add(1)).unwrap().wait().unwrap(), 1);
    rt.quiesce(Duration::from_secs(2));
    assert_eq!(rt.chaos_stats().unwrap().duplicated, 0);

    // Replayable ask: the duplicate re-runs the handler with its reply
    // discarded, so the counter jumps by 2 per logical send.
    let v = r.ask_replayable(Add(1)).unwrap().wait().unwrap();
    assert!(v >= 2, "reply {v} should reflect first delivery");
    rt.quiesce(Duration::from_secs(2));
    assert_eq!(rt.chaos_stats().unwrap().duplicated, 1);
    assert_eq!(r.call(Add(0)).unwrap(), 3);
    rt.shutdown();
}

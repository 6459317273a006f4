//! Supervision tests: a faulted activation is discarded and rebuilt from
//! durable state under injected panics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aodb_runtime::{Actor, ActorContext, Handler, Message, Runtime, RuntimeBuilder};

/// An actor with in-memory state and a "durable" baseline restored on
/// activation (a stand-in for Persisted state without a store dependency).
struct Fragile {
    value: u64,
    activations: Arc<AtomicUsize>,
    deactivate_flushes: Arc<AtomicUsize>,
}

impl Actor for Fragile {
    const TYPE_NAME: &'static str = "test.fragile";

    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.activations.fetch_add(1, Ordering::SeqCst);
        self.value = 100; // the "durable" baseline
    }

    fn on_deactivate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.deactivate_flushes.fetch_add(1, Ordering::SeqCst);
    }
}

struct Add(u64);
impl Message for Add {
    type Reply = u64;
}
impl Handler<Add> for Fragile {
    fn handle(&mut self, msg: Add, _ctx: &mut ActorContext<'_>) -> u64 {
        self.value += msg.0;
        self.value
    }
}

struct CorruptAndPanic;
impl Message for CorruptAndPanic {
    type Reply = ();
}
impl Handler<CorruptAndPanic> for Fragile {
    fn handle(&mut self, _msg: CorruptAndPanic, _ctx: &mut ActorContext<'_>) {
        self.value = 999_999; // half-applied mutation...
        panic!("boom mid-mutation"); // ...then the turn dies
    }
}

fn build() -> (Runtime, Arc<AtomicUsize>, Arc<AtomicUsize>) {
    let activations = Arc::new(AtomicUsize::new(0));
    let flushes = Arc::new(AtomicUsize::new(0));
    let rt = RuntimeBuilder::new().silos(1, 2).build();
    {
        let activations = Arc::clone(&activations);
        let flushes = Arc::clone(&flushes);
        rt.register(move |_id| Fragile {
            value: 0,
            activations: Arc::clone(&activations),
            deactivate_flushes: Arc::clone(&flushes),
        });
    }
    (rt, activations, flushes)
}

#[test]
fn faulted_turn_discards_corrupted_state() {
    let (rt, activations, flushes) = build();
    let actor = rt.actor_ref::<Fragile>("a");
    assert_eq!(actor.call(Add(1)).unwrap(), 101);
    let _ = actor.call(CorruptAndPanic);
    // Next message re-activates from the durable baseline: the
    // half-applied 999_999 never escapes.
    assert_eq!(actor.call(Add(0)).unwrap(), 100);
    assert_eq!(activations.load(Ordering::SeqCst), 2);
    // Crucially the faulted instance was NOT flushed via on_deactivate.
    assert_eq!(flushes.load(Ordering::SeqCst), 0);
    assert_eq!(rt.metrics().handler_panics, 1);
    rt.shutdown();
}

#[test]
fn queued_messages_survive_a_faulted_turn() {
    let (rt, _, _) = build();
    let actor = rt.actor_ref::<Fragile>("q");
    actor.call(Add(0)).unwrap();
    // Queue a panic followed by a burst of adds in one go; the adds must
    // be re-dispatched to the fresh activation, not lost.
    actor.tell(CorruptAndPanic).unwrap();
    for _ in 0..10 {
        actor.tell(Add(1)).unwrap();
    }
    assert!(rt.quiesce(Duration::from_secs(10)));
    // Fresh activation at 100 + up to 10 adds; exact count depends on how
    // many adds were drained into the faulted slice (they are re-sent),
    // so all 10 must have landed.
    assert_eq!(actor.call(Add(0)).unwrap(), 110);
    rt.shutdown();
}

#[test]
fn repeated_faults_do_not_wedge_the_actor() {
    let (rt, activations, _) = build();
    let actor = rt.actor_ref::<Fragile>("r");
    for _ in 0..5 {
        let _ = actor.call(CorruptAndPanic);
        assert_eq!(actor.call(Add(1)).unwrap(), 101);
    }
    assert!(activations.load(Ordering::SeqCst) >= 5);
    assert_eq!(rt.metrics().handler_panics, 5);
    rt.shutdown();
}

#[test]
fn faulted_activations_count_as_deactivations_in_metrics() {
    let (rt, _, _) = build();
    let actor = rt.actor_ref::<Fragile>("m");
    let _ = actor.call(CorruptAndPanic);
    let deadline = Instant::now() + Duration::from_secs(2);
    while rt.metrics().deactivations == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(rt.metrics().deactivations, 1);
    rt.shutdown();
}

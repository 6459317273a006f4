//! Integration tests for the work-stealing silo scheduler: message
//! conservation under multi-silo load, the single-threaded-per-activation
//! invariant under steal pressure, deactivation races, parking behaviour
//! of idle workers, and shutdown latency.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aodb_runtime::{Actor, ActorContext, Handler, Message, Runtime, RuntimeBuilder};

struct Counter {
    count: u64,
    /// Shared tally across all activations of the fixture.
    total: Arc<AtomicU64>,
}

impl Actor for Counter {
    const TYPE_NAME: &'static str = "sched.counter";
}

#[derive(Clone)]
struct Inc;
impl Message for Inc {
    type Reply = ();
}
impl Handler<Inc> for Counter {
    fn handle(&mut self, _msg: Inc, _ctx: &mut ActorContext<'_>) {
        self.count += 1;
        self.total.fetch_add(1, Ordering::Relaxed);
    }
}

struct Get;
impl Message for Get {
    type Reply = u64;
}
impl Handler<Get> for Counter {
    fn handle(&mut self, _msg: Get, _ctx: &mut ActorContext<'_>) -> u64 {
        self.count
    }
}

/// N producer threads × M actors × K silos: every sent message must be
/// processed exactly once (no loss, no duplication) even while workers
/// steal from each other and from the injectors.
#[test]
fn multi_silo_stress_conserves_messages() {
    const PRODUCERS: usize = 4;
    const ACTORS: u64 = 32;
    const PER_PRODUCER: u64 = 2_000;
    let rt = Runtime::builder().silos(3, 2).build();
    let total = Arc::new(AtomicU64::new(0));
    {
        let total = Arc::clone(&total);
        rt.register(move |_id| Counter {
            count: 0,
            total: Arc::clone(&total),
        });
    }
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let handle = rt.handle();
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let key = (p as u64 + i) % ACTORS;
                    handle.actor_ref::<Counter>(key).tell(Inc).unwrap();
                }
            })
        })
        .collect();
    for t in producers {
        t.join().unwrap();
    }
    assert!(rt.quiesce(Duration::from_secs(30)), "runtime must quiesce");
    let sent = PRODUCERS as u64 * PER_PRODUCER;
    assert_eq!(total.load(Ordering::Relaxed), sent, "handler-side tally");
    assert_eq!(rt.metrics().messages_processed, sent, "metrics tally");
    // Per-actor counts must sum to the total as well.
    let sum: u64 = (0..ACTORS)
        .map(|k| rt.actor_ref::<Counter>(k).call(Get).unwrap())
        .sum();
    assert_eq!(sum, sent);
    assert_eq!(rt.metrics().handler_panics, 0);
    rt.shutdown();
}

/// An actor that detects overlapping turn execution itself: entering the
/// handler flips a flag that must never already be set. Run under heavy
/// multi-producer fire at a handful of actors on a many-worker silo so
/// local pops, injector pops, and steals all interleave.
struct Exclusive {
    entered: Arc<AtomicBool>,
    violations: Arc<AtomicU64>,
}

impl Actor for Exclusive {
    const TYPE_NAME: &'static str = "sched.exclusive";
}

#[derive(Clone)]
struct Probe;
impl Message for Probe {
    type Reply = ();
}
impl Handler<Probe> for Exclusive {
    fn handle(&mut self, _msg: Probe, _ctx: &mut ActorContext<'_>) {
        if self.entered.swap(true, Ordering::SeqCst) {
            self.violations.fetch_add(1, Ordering::SeqCst);
        }
        // Keep the turn open long enough for a concurrent runner to
        // overlap if the scheduler ever double-dispatches.
        std::hint::spin_loop();
        self.entered.store(false, Ordering::SeqCst);
    }
}

#[test]
fn single_threaded_per_activation_under_steal_pressure() {
    const ACTORS: u64 = 4;
    const PRODUCERS: usize = 6;
    const PER_PRODUCER: u64 = 3_000;
    let rt = Runtime::single(4);
    let violations = Arc::new(AtomicU64::new(0));
    {
        let violations = Arc::clone(&violations);
        rt.register(move |_id| Exclusive {
            entered: Arc::new(AtomicBool::new(false)),
            violations: Arc::clone(&violations),
        });
    }
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let handle = rt.handle();
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let key = (p as u64 + i) % ACTORS;
                    handle.actor_ref::<Exclusive>(key).tell(Probe).unwrap();
                }
            })
        })
        .collect();
    for t in producers {
        t.join().unwrap();
    }
    assert!(rt.quiesce(Duration::from_secs(30)));
    assert_eq!(
        violations.load(Ordering::SeqCst),
        0,
        "two workers ran the same activation concurrently"
    );
    assert_eq!(
        rt.metrics().messages_processed,
        PRODUCERS as u64 * PER_PRODUCER
    );
    rt.shutdown();
}

/// An actor that requests deactivation on every message, hammered by
/// producers: each message either lands in the current activation or
/// races its retirement and re-activates a fresh one. Nothing may be
/// lost either way.
struct Ephemeral {
    total: Arc<AtomicU64>,
}

impl Actor for Ephemeral {
    const TYPE_NAME: &'static str = "sched.ephemeral";
}

#[derive(Clone)]
struct Touch;
impl Message for Touch {
    type Reply = ();
}
impl Handler<Touch> for Ephemeral {
    fn handle(&mut self, _msg: Touch, ctx: &mut ActorContext<'_>) {
        self.total.fetch_add(1, Ordering::Relaxed);
        ctx.deactivate();
    }
}

#[test]
fn deactivation_race_under_steal_pressure_loses_nothing() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: u64 = 500;
    const BURSTS: u64 = 3;
    let rt = Runtime::single(4);
    let total = Arc::new(AtomicU64::new(0));
    {
        let total = Arc::clone(&total);
        rt.register(move |_id| Ephemeral {
            total: Arc::clone(&total),
        });
    }
    // Deactivation is honoured only on an empty mailbox, so while the
    // producers outrun two hot actors nothing need retire: how often
    // that happens inside a burst is timing. What is not timing is the
    // end of a burst — both actors have asked to deactivate and their
    // mailboxes drain, so each burst retires at least two activations
    // and the next one re-activates them.
    for _ in 0..BURSTS {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let handle = rt.handle();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        // Two hot keys maximize push-vs-retire races.
                        let key = (p as u64 + i) % 2;
                        handle.actor_ref::<Ephemeral>(key).tell(Touch).unwrap();
                    }
                })
            })
            .collect();
        for t in producers {
            t.join().unwrap();
        }
        assert!(rt.quiesce(Duration::from_secs(30)));
    }
    assert_eq!(
        total.load(Ordering::Relaxed),
        BURSTS * PRODUCERS as u64 * PER_PRODUCER
    );
    // The counter moves a moment after the mailbox retires (which is
    // what `quiesce` watches), so wait for it rather than race it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.metrics().deactivations < 2 * BURSTS {
        assert!(
            Instant::now() < deadline,
            "expected every burst to retire both activations, saw {} deactivations",
            rt.metrics().deactivations
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    rt.shutdown();
}

/// Idle workers park and *stay* parked: no periodic polling wakeups. The
/// parked-workers gauge must equal the worker count, and the cumulative
/// park counter must not move across an idle observation window.
#[test]
fn idle_workers_park_without_periodic_wakeups() {
    const WORKERS: usize = 4;
    let rt = Runtime::single(WORKERS);
    rt.register(|_id| Counter {
        count: 0,
        total: Arc::new(AtomicU64::new(0)),
    });
    // Run a little traffic, then let the runtime go idle.
    for i in 0..100u64 {
        rt.actor_ref::<Counter>(i % 8).tell(Inc).unwrap();
    }
    assert!(rt.quiesce(Duration::from_secs(10)));
    // Give the last workers time to finish their park protocol.
    let deadline = Instant::now() + Duration::from_secs(5);
    while rt.metrics().parked_workers < WORKERS as u64 {
        assert!(
            Instant::now() < deadline,
            "workers failed to park when idle"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = rt.metrics();
    std::thread::sleep(Duration::from_millis(150));
    let after = rt.metrics();
    assert_eq!(
        before.worker_parks, after.worker_parks,
        "parked workers woke up during an idle window (polling regression)"
    );
    assert_eq!(after.parked_workers, WORKERS as u64);
    rt.shutdown();
}

/// Dropping an idle runtime must complete quickly: parked workers, the
/// janitor, and the clock all get woken instead of timing out.
#[test]
fn idle_runtime_drops_fast() {
    let rt = Runtime::single(4);
    rt.register(|_id| Counter {
        count: 0,
        total: Arc::new(AtomicU64::new(0)),
    });
    rt.actor_ref::<Counter>(1u64).tell(Inc).unwrap();
    assert!(rt.quiesce(Duration::from_secs(10)));
    let start = Instant::now();
    drop(rt);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "idle Runtime::drop took {elapsed:?}, expected < 100ms"
    );
}

/// Shutdown latency must not include the janitor interval: even with a
/// deliberately huge idle timeout, so the janitor parks for 15 s between
/// scans, the janitor is unparked promptly at shutdown.
#[test]
fn shutdown_wakes_janitor_promptly() {
    let rt = RuntimeBuilder::new()
        .silos(1, 2)
        .idle_timeout(Duration::from_secs(60))
        .build();
    rt.register(|_id| Counter {
        count: 0,
        total: Arc::new(AtomicU64::new(0)),
    });
    rt.actor_ref::<Counter>(7u64).tell(Inc).unwrap();
    assert!(rt.quiesce(Duration::from_secs(10)));
    let start = Instant::now();
    rt.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown waited on the janitor interval: {elapsed:?}"
    );
}

/// The scheduler counters actually move: worker-originated dispatch uses
/// local deques, client dispatch goes through the injector.
#[test]
fn scheduler_counters_classify_dispatch_paths() {
    let rt = Runtime::single(2);
    rt.register(|_id| Counter {
        count: 0,
        total: Arc::new(AtomicU64::new(0)),
    });
    for i in 0..200u64 {
        rt.actor_ref::<Counter>(i % 16).tell(Inc).unwrap();
    }
    assert!(rt.quiesce(Duration::from_secs(10)));
    let m = rt.metrics();
    assert!(
        m.scheduler_injector_pops > 0,
        "client dispatches must flow through the injector"
    );
    assert_eq!(m.messages_processed, 200);
    rt.shutdown();
}

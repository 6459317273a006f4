//! Sends through held references: a reference remembers the activation
//! its last send reached and pushes straight into that mailbox next time.
//! These tests pin down every way the remembered activation can go stale
//! — self-deactivation, the idle janitor, a silo kill and restart,
//! shutdown — and the counters that say what a send cost.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aodb_runtime::{
    Actor, ActorContext, ActorError, ActorRef, CallDecl, ChaosNetConfig, FaultPlan, Handler,
    LatencyModel, Message, NetConfig, Placement, Recipient, Runtime, RuntimeBuilder, SendError,
    SiloId,
};
use parking_lot::Mutex;

// ---------------------------------------------------------------- fixtures

/// What every activation of the probed actor reports into.
#[derive(Default)]
struct Witness {
    /// Serial number handed to the next activation.
    next_serial: AtomicU64,
    /// Highest serial that ever ran a turn.
    newest_ran: AtomicU64,
    /// Set for the duration of a turn.
    in_turn: AtomicBool,
    /// Turns that overlapped another, or ran on an activation older than
    /// one that had already run.
    violations: AtomicU64,
    /// Per sender, the sequence number expected next.
    expected: Mutex<Vec<u64>>,
    /// `(activation serial, sender, seq)` of every `Note` handled.
    log: Mutex<Vec<(u64, usize, u64)>>,
}

struct Probed {
    serial: u64,
    witness: Arc<Witness>,
}

impl Actor for Probed {
    const TYPE_NAME: &'static str = "held.probed";
}

impl Probed {
    fn turn<R>(&mut self, body: impl FnOnce(&Witness) -> R) -> R {
        let w = &self.witness;
        if w.in_turn.swap(true, Ordering::SeqCst) {
            w.violations.fetch_add(1, Ordering::SeqCst);
        }
        if w.newest_ran.fetch_max(self.serial, Ordering::SeqCst) > self.serial {
            // An older activation ran after a newer one: two were live.
            w.violations.fetch_add(1, Ordering::SeqCst);
        }
        let out = body(w);
        w.in_turn.store(false, Ordering::SeqCst);
        out
    }
}

/// Sequence number `seq` from sender `sender`.
#[derive(Clone, Copy)]
struct Note {
    sender: usize,
    seq: u64,
}
impl Message for Note {
    type Reply = u64;
}
impl Handler<Note> for Probed {
    fn handle(&mut self, msg: Note, _ctx: &mut ActorContext<'_>) -> u64 {
        let serial = self.serial;
        self.turn(|w| {
            let mut expected = w.expected.lock();
            if expected[msg.sender] != msg.seq {
                w.violations.fetch_add(1, Ordering::SeqCst);
            }
            expected[msg.sender] = msg.seq + 1;
            w.log.lock().push((serial, msg.sender, msg.seq));
            serial
        })
    }
}

/// Asks the activation to deactivate once its mailbox drains.
struct Retire;
impl Message for Retire {
    type Reply = ();
}
impl Handler<Retire> for Probed {
    fn handle(&mut self, _msg: Retire, ctx: &mut ActorContext<'_>) {
        self.turn(|_| ctx.deactivate());
    }
}

/// Where the activation lives; optionally after sleeping.
#[derive(Clone, Copy)]
struct WhichSilo(Duration);
impl Message for WhichSilo {
    type Reply = SiloId;
}
impl Handler<WhichSilo> for Probed {
    fn handle(&mut self, msg: WhichSilo, ctx: &mut ActorContext<'_>) -> SiloId {
        std::thread::sleep(msg.0);
        ctx.silo()
    }
}

fn probed(rt: &Runtime, senders: usize) -> Arc<Witness> {
    let witness = Arc::new(Witness::default());
    *witness.expected.lock() = vec![0; senders];
    let w = Arc::clone(&witness);
    rt.register(move |_id| Probed {
        serial: w.next_serial.fetch_add(1, Ordering::SeqCst) + 1,
        witness: Arc::clone(&w),
    });
    witness
}

/// Places every actor on silo 1 while it lives (the runtime then walks on
/// to silo 0).
struct OnSiloOne;
impl Placement for OnSiloOne {
    fn name(&self) -> &'static str {
        "silo-one"
    }
    fn place(&self, _id: &aodb_runtime::ActorId, _o: aodb_runtime::Origin, _n: usize) -> SiloId {
        SiloId(1)
    }
}

// ------------------------------------------------------------------- tests

#[test]
fn references_are_clone_send_sync() {
    fn check<T: Clone + Send + Sync>() {}
    check::<ActorRef<Probed>>();
    check::<Recipient<Note>>();
}

#[test]
fn a_send_that_meets_a_retired_activation_counts_once() {
    let rt = Runtime::single(2);
    let witness = probed(&rt, 1);
    let r = rt.actor_ref::<Probed>("one");
    let before = rt.metrics();
    r.call(Retire).unwrap();
    assert!(rt.quiesce(Duration::from_secs(5)));
    // The reference still remembers the retired activation: this send
    // meets `Retired`, falls through to the directory and reactivates.
    assert_eq!(r.call(Note { sender: 0, seq: 0 }).unwrap(), 2);
    assert!(rt.quiesce(Duration::from_secs(5)));
    let after = rt.metrics();
    assert_eq!(after.local_messages - before.local_messages, 2);
    assert_eq!(after.messages_processed - before.messages_processed, 2);
    assert_eq!(after.directory_lookups - before.directory_lookups, 2);
    assert_eq!(after.activations, 2);
    assert_eq!(witness.violations.load(Ordering::SeqCst), 0);
    rt.shutdown();
}

#[test]
fn self_deactivation_hands_a_held_reference_a_fresh_activation_in_order() {
    let rt = Runtime::single(2);
    let witness = probed(&rt, 1);
    let r = rt.actor_ref::<Probed>("fifo");
    let mut retired = 0u64;
    for seq in 0..200u64 {
        r.tell(Note { sender: 0, seq }).unwrap();
        if seq % 20 == 19 {
            r.call(Retire).unwrap();
            // Quiescent means the deactivation the retire asked for ran.
            assert!(rt.quiesce(Duration::from_secs(5)));
            retired += 1;
        }
    }
    assert!(rt.quiesce(Duration::from_secs(5)));
    // The last batch's retire ran after its last note.
    let m = rt.metrics();
    assert_eq!(m.activations, retired);
    assert_eq!(m.deactivations, retired);
    let log = witness.log.lock();
    let seqs: Vec<u64> = log.iter().map(|&(_, _, seq)| seq).collect();
    assert_eq!(seqs, (0..200).collect::<Vec<_>>(), "per-sender FIFO");
    // Every batch of 20 ran on one activation, each a fresh one.
    for (i, &(serial, _, _)) in log.iter().enumerate() {
        assert_eq!(serial, i as u64 / 20 + 1);
    }
    assert_eq!(witness.violations.load(Ordering::SeqCst), 0);
    rt.shutdown();
}

#[test]
fn idle_janitor_races_senders_holding_their_own_references() {
    const SENDERS: usize = 4;
    const PER_SENDER: u64 = 300;
    let rt = Arc::new(
        RuntimeBuilder::new()
            .silos(1, 2)
            .idle_timeout(Duration::from_millis(1))
            .build(),
    );
    let witness = probed(&rt, SENDERS);
    let done = Arc::new(AtomicBool::new(false));
    let watcher = {
        let (rt, done) = (Arc::clone(&rt), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut most = 0;
            while !done.load(Ordering::SeqCst) {
                most = most.max(rt.active_actors());
                std::thread::sleep(Duration::from_micros(100));
            }
            most
        })
    };
    let senders: Vec<_> = (0..SENDERS)
        .map(|sender| {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                let r = rt.actor_ref::<Probed>("contended");
                let mut x = sender as u64 + 1;
                for seq in 0..PER_SENDER {
                    let note = Note { sender, seq };
                    if seq % 5 == 4 {
                        r.ask(note)
                            .unwrap()
                            .wait_for(Duration::from_secs(10))
                            .expect("every ask resolves");
                    } else {
                        r.tell(note).unwrap();
                    }
                    // Pauses of 0–2 ms let the janitor find the mailbox
                    // idle between sends.
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if x >> 62 != 0 {
                        std::thread::sleep(Duration::from_micros(x >> 53));
                    }
                }
            })
        })
        .collect();
    for s in senders {
        s.join().unwrap();
    }
    assert!(rt.quiesce(Duration::from_secs(10)));
    done.store(true, Ordering::SeqCst);
    assert!(watcher.join().unwrap() <= 1);

    let m = rt.metrics();
    let handled = witness.log.lock().len() as u64;
    assert_eq!(
        handled,
        SENDERS as u64 * PER_SENDER,
        "every tell handled once"
    );
    assert_eq!(m.messages_processed, handled);
    assert_eq!(m.local_messages, handled);
    assert_eq!(witness.violations.load(Ordering::SeqCst), 0);
    assert!(
        m.deactivations > 0,
        "the janitor never deactivated: the test raced nothing"
    );
    assert_eq!(*witness.expected.lock(), vec![PER_SENDER; SENDERS]);
    match Arc::try_unwrap(rt) {
        Ok(rt) => rt.shutdown(),
        Err(_) => panic!("runtime still shared"),
    }
}

fn two_silos() -> Runtime {
    RuntimeBuilder::new()
        .silos(2, 2)
        .placement(OnSiloOne)
        .build()
}

/// Queues four asks behind a slow turn on `r`'s activation, kills silo 1
/// and checks that the queued ones resolve `SiloLost`.
fn kill_with_queued_work(rt: &Runtime, r: &ActorRef<Probed>) {
    let slow = r.ask(WhichSilo(Duration::from_millis(200))).unwrap();
    std::thread::sleep(Duration::from_millis(40));
    let queued: Vec<_> = (0..4)
        .map(|_| r.ask(WhichSilo(Duration::ZERO)).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(10));
    rt.kill_silo(SiloId(1));
    assert_eq!(slow.wait().unwrap(), SiloId(1));
    for p in queued {
        assert!(matches!(p.wait(), Err(ActorError::SiloLost)));
    }
    assert_eq!(rt.metrics().lost_turns, 4);
}

#[test]
fn a_held_reference_follows_its_actor_off_a_killed_silo() {
    let rt = two_silos();
    probed(&rt, 1);
    let r = rt.actor_ref::<Probed>("mover");
    assert_eq!(r.call(WhichSilo(Duration::ZERO)).unwrap(), SiloId(1));
    kill_with_queued_work(&rt, &r);

    assert_eq!(r.call(WhichSilo(Duration::ZERO)).unwrap(), SiloId(0));
    assert_eq!(rt.metrics().reactivations, 1);
    // The restart brings silo 1 back empty; the activation on silo 0 is
    // current and the reference keeps reaching it.
    assert!(rt.restart_silo(SiloId(1)));
    assert_eq!(r.call(WhichSilo(Duration::ZERO)).unwrap(), SiloId(0));
    let m = rt.metrics();
    assert_eq!(m.reactivations, 1);
    assert_eq!(m.activations, 2);
    rt.shutdown();
}

#[test]
fn a_held_reference_reactivates_once_on_a_restarted_silo() {
    let rt = two_silos();
    probed(&rt, 1);
    let r = rt.actor_ref::<Probed>("returner");
    let copy = r.clone();
    assert_eq!(r.call(WhichSilo(Duration::ZERO)).unwrap(), SiloId(1));
    kill_with_queued_work(&rt, &r);
    assert!(rt.restart_silo(SiloId(1)));

    // The remembered activation sits on a live silo again but is retired:
    // the send falls through to the directory and placement.
    assert_eq!(r.call(WhichSilo(Duration::ZERO)).unwrap(), SiloId(1));
    assert_eq!(copy.call(WhichSilo(Duration::ZERO)).unwrap(), SiloId(1));
    let m = rt.metrics();
    assert_eq!(m.reactivations, 1);
    assert_eq!(m.activations, 2);
    rt.shutdown();
}

#[test]
fn a_held_reference_refuses_after_shutdown() {
    let rt = Runtime::single(2);
    probed(&rt, 1);
    let r = rt.actor_ref::<Probed>("late");
    let recipient = r.recipient::<Note>();
    assert_eq!(r.call(Note { sender: 0, seq: 0 }).unwrap(), 1);
    assert_eq!(
        recipient.ask(Note { sender: 0, seq: 1 }).unwrap().wait(),
        Ok(1)
    );
    rt.shutdown();
    assert!(matches!(
        r.tell(Note { sender: 0, seq: 2 }),
        Err(SendError::RuntimeShutdown)
    ));
    assert!(matches!(
        recipient.tell(Note { sender: 0, seq: 2 }),
        Err(SendError::RuntimeShutdown)
    ));
}

#[test]
fn a_hop_charged_send_never_starts_from_a_retired_memory() {
    // Prefer-local placement: the client's hop lands on the silo it is
    // charged to, and an activation is placed on the silo its first
    // message comes from.
    let rt = RuntimeBuilder::new()
        .silos(2, 1)
        .network(NetConfig {
            cross_silo: None,
            client: Some(LatencyModel::fixed(Duration::from_micros(20))),
        })
        .build();
    probed(&rt, 1);
    // A key the client alone would place on silo 0 ...
    let key = (0..)
        .map(|i| format!("k{i}"))
        .find(|k| {
            rt.actor_ref::<Probed>(k.as_str())
                .id()
                .stable_hash()
                .is_multiple_of(2)
        })
        .unwrap();
    // ... activated from silo 1, so it lives there.
    let gateway = rt.handle_on(SiloId(1)).actor_ref::<Probed>(key.as_str());
    assert_eq!(gateway.call(WhichSilo(Duration::ZERO)).unwrap(), SiloId(1));
    let client = rt.actor_ref::<Probed>(key.as_str());
    assert_eq!(client.call(WhichSilo(Duration::ZERO)).unwrap(), SiloId(1));
    client.call(Retire).unwrap();
    assert!(rt.quiesce(Duration::from_secs(5)));
    // The client remembers silo 1, but a fresh reference would activate
    // on silo 0, and so must this one.
    assert_eq!(client.call(WhichSilo(Duration::ZERO)).unwrap(), SiloId(0));
    rt.shutdown();
}

// ----------------------------------------------------- per-worker counters

struct Sink;
impl Actor for Sink {
    const TYPE_NAME: &'static str = "held.sink";
}

#[derive(Clone, Copy)]
struct Ping;
impl Message for Ping {
    type Reply = ();
}
impl Handler<Ping> for Sink {
    fn handle(&mut self, _msg: Ping, _ctx: &mut ActorContext<'_>) {}
}

/// Forwards every `Ping` to the sink through a reference it holds.
struct Relay {
    sink: Option<ActorRef<Sink>>,
}
impl Actor for Relay {
    const TYPE_NAME: &'static str = "held.relay";
    fn declared_calls() -> &'static [CallDecl] {
        const CALLS: &[CallDecl] = &[CallDecl::send("held.sink")];
        CALLS
    }
}
impl Handler<Ping> for Relay {
    fn handle(&mut self, msg: Ping, ctx: &mut ActorContext<'_>) {
        let sink = self.sink.get_or_insert_with(|| ctx.actor_ref::<Sink>(0u64));
        sink.tell(msg).unwrap();
    }
}

#[test]
fn per_worker_counter_sums_are_exact() {
    const CLIENTS: usize = 3;
    const RELAYS: u64 = 5;
    const PINGS: u64 = 400;
    let rt = Arc::new(RuntimeBuilder::new().silos(2, 2).build());
    rt.register(|_id| Sink);
    rt.register(|_id| Relay { sink: None });
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                let relays: Vec<_> = (0..RELAYS).map(|k| rt.actor_ref::<Relay>(k)).collect();
                for _ in 0..PINGS {
                    for relay in &relays {
                        relay.tell(Ping).unwrap();
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    assert!(rt.quiesce(Duration::from_secs(10)));
    let m = rt.metrics();
    let client_sends = CLIENTS as u64 * RELAYS * PINGS;
    // Every client send, and the relay's forward of it from a worker.
    assert_eq!(m.local_messages, 2 * client_sends);
    assert_eq!(m.messages_processed, 2 * client_sends);
    // One lookup per reference: each client's first send to each relay,
    // each relay's first forward.
    assert_eq!(m.directory_lookups, CLIENTS as u64 * RELAYS + RELAYS);
    assert!(m.scheduler_local_pops + m.scheduler_injector_pops + m.scheduler_steals > 0);
    match Arc::try_unwrap(rt) {
        Ok(rt) => rt.shutdown(),
        Err(_) => panic!("runtime still shared"),
    }
}

// ---------------------------------------------- determinism under a net model

struct Leaf {
    value: u64,
}
impl Actor for Leaf {
    const TYPE_NAME: &'static str = "held.leaf";
}

#[derive(Clone, Copy)]
struct Bump;
impl Message for Bump {
    type Reply = u64;
}
impl Handler<Bump> for Leaf {
    fn handle(&mut self, _msg: Bump, _ctx: &mut ActorContext<'_>) -> u64 {
        self.value += 1;
        self.value
    }
}

/// Forwards a `Bump` to the leaf on the other silo: through a reference
/// it holds, or through one minted for the send.
struct Forwarder {
    held: bool,
    leaf: Option<ActorRef<Leaf>>,
}
impl Actor for Forwarder {
    const TYPE_NAME: &'static str = "held.forwarder";
    fn declared_calls() -> &'static [CallDecl] {
        const CALLS: &[CallDecl] = &[CallDecl::send("held.leaf")];
        CALLS
    }
}

struct Forward;
impl Message for Forward {
    type Reply = ();
}
impl Handler<Forward> for Forwarder {
    fn handle(&mut self, _msg: Forward, ctx: &mut ActorContext<'_>) {
        let fresh;
        let leaf = if self.held {
            self.leaf
                .get_or_insert_with(|| ctx.actor_ref::<Leaf>("leaf"))
        } else {
            fresh = ctx.actor_ref::<Leaf>("leaf");
            &fresh
        };
        let _ = leaf.tell(Bump);
    }
}

/// Forwarder on silo 0, leaf on silo 1.
struct ByName;
impl Placement for ByName {
    fn name(&self) -> &'static str {
        "by-name"
    }
    fn place(&self, id: &aodb_runtime::ActorId, _o: aodb_runtime::Origin, _n: usize) -> SiloId {
        SiloId(u32::from(id.key.to_string() == "leaf"))
    }
}

/// One client thread drives a fixed sequence of hop-charged sends under
/// `plan`; returns every send's outcome and the injected-fault counts.
fn hop_charged_run(plan: FaultPlan, held: bool) -> (Vec<bool>, [u64; 3]) {
    let rt = RuntimeBuilder::new()
        .silos(2, 2)
        .placement(ByName)
        .network(NetConfig {
            cross_silo: Some(LatencyModel {
                base: Duration::from_micros(30),
                jitter: Duration::from_micros(20),
            }),
            client: Some(LatencyModel::fixed(Duration::from_micros(20))),
        })
        .chaos(plan)
        .build();
    rt.register(|_id| Leaf { value: 0 });
    rt.register(move |_id| Forwarder { held, leaf: None });
    let held_leaf = rt.actor_ref::<Leaf>("leaf");
    let held_forwarder = rt.actor_ref::<Forwarder>("fwd");
    let mut outcomes = Vec::new();
    for i in 0..300 {
        let (leaf, forwarder) = if held {
            (held_leaf.clone(), held_forwarder.clone())
        } else {
            (
                rt.actor_ref::<Leaf>("leaf"),
                rt.actor_ref::<Forwarder>("fwd"),
            )
        };
        let outcome = if i % 2 == 0 {
            // Replayable: its duplicates arrive later through the clock,
            // which draws nothing.
            leaf.ask_replayable(Bump).unwrap().wait().map(drop)
        } else {
            // Answered after the forward's own hop has drawn.
            forwarder.ask(Forward).unwrap().wait()
        };
        match outcome {
            Ok(()) => outcomes.push(true),
            Err(ActorError::Lost) => outcomes.push(false),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(rt.quiesce(Duration::from_secs(10)));
    let stats = rt.chaos_stats().expect("chaos installed");
    rt.shutdown();
    (outcomes, [stats.dropped, stats.duplicated, stats.delayed])
}

#[test]
fn held_references_draw_the_same_faults_as_fresh_ones() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x4E1D);
    let plan = FaultPlan::new(seed).with_net(ChaosNetConfig {
        drop_per_mille: 100,
        duplicate_per_mille: 150,
        delay_per_mille: 200,
        max_extra_delay: Duration::from_micros(300),
    });
    let fingerprint = plan.fingerprint();
    let fresh = hop_charged_run(plan.clone(), false);
    let held = hop_charged_run(plan.clone(), true);
    assert_eq!(plan.fingerprint(), fingerprint);
    assert_eq!(fresh.1, held.1, "chaos stats differ (seed {seed:#x})");
    assert_eq!(fresh.0, held.0, "send outcomes differ (seed {seed:#x})");
    assert!(fresh.1.iter().all(|&n| n > 0), "{:?}", fresh.1);
}

//! The runtime: type registry, dispatch, lifecycle management, and the
//! public [`Runtime`] / [`RuntimeBuilder`] / [`ActorRef`] API.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::actor::{Actor, AnyActor, Handler, Message};
use crate::chaos::{ChaosNetStatsSnapshot, ChaosRuntime, FaultPlan, NetFault};
use crate::directory::Directory;
use crate::envelope::{Envelope, EnvelopeKind};
use crate::error::{CallError, PromiseError, SendError};
use crate::identity::{ActorId, ActorKey, ActorTypeId, Origin, SiloId};
use crate::mailbox::PushOutcome;
use crate::metrics::{RuntimeMetrics, RuntimeMetricsSnapshot};
use crate::net::{clock_channel, clock_loop, ClockHandle, NetConfig, TimerHandle};
use crate::placement::{Placement, PreferLocalPlacement};
use crate::promise::{Promise, ReplyTo};
use crate::silo::{worker_loop, Activation, SiloConfig, SiloUnit};

/// How many times dispatch re-resolves an activation after losing a race
/// with deactivation. Each retry creates a fresh activation, so more than a
/// couple of iterations indicates a misconfigured idle timeout.
const DISPATCH_RETRIES: usize = 16;

type Factory = Arc<dyn Fn(&ActorId) -> Box<dyn AnyActor> + Send + Sync>;

struct TypeEntry {
    name: &'static str,
    factory: Factory,
    /// Only the debug-build edge check reads a type's declared edges.
    #[cfg(debug_assertions)]
    declared_calls: &'static [crate::CallDecl],
}

#[derive(Default)]
struct RegistryInner {
    entries: Vec<TypeEntry>,
    /// Name → slot index. Registration and reference minting both resolve
    /// names, so lookups must not scan `entries` under the lock.
    by_name: HashMap<&'static str, u16>,
}

struct Registry {
    inner: RwLock<RegistryInner>,
    /// Distinguishes this registry in the thread-local type-id cache, so
    /// references minted against one runtime never leak cached ids into
    /// another living in the same thread (tests routinely run several).
    uid: u64,
}

impl Default for Registry {
    fn default() -> Self {
        static NEXT_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        Registry {
            inner: RwLock::default(),
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

thread_local! {
    /// `(registry uid, Rust type) → ActorTypeId` memo for reference
    /// minting. Safe to cache forever: `Registry::register` keeps the
    /// `ActorTypeId` of a name stable across re-registration, and ids are
    /// never removed. Misses fall through to the registry lock; hits turn
    /// `typed_ref` into a pure thread-local map probe, which is what makes
    /// per-message `ActorRef` minting cheap on the dispatch fast path.
    static TYPE_ID_CACHE: std::cell::RefCell<HashMap<(u64, std::any::TypeId), ActorTypeId>> =
        RefCell::new(HashMap::new());
}

impl Registry {
    /// Lock-free-in-the-common-case lookup via the thread-local cache.
    fn lookup_cached<A: Actor>(&self) -> Option<ActorTypeId> {
        TYPE_ID_CACHE.with(|cache| {
            let key = (self.uid, std::any::TypeId::of::<A>());
            if let Some(&id) = cache.borrow().get(&key) {
                return Some(id);
            }
            let id = self.lookup(A::TYPE_NAME)?;
            cache.borrow_mut().insert(key, id);
            Some(id)
        })
    }

    fn register(&self, entry: TypeEntry) -> ActorTypeId {
        let mut inner = self.inner.write();
        if let Some(&pos) = inner.by_name.get(entry.name) {
            // Re-registration keeps the ActorTypeId stable (references
            // minted earlier must keep resolving) and replaces the
            // factory and edges: this supports tests that rebuild fixtures, and
            // matches Orleans' last-writer-wins code deployment semantics.
            inner.entries[pos as usize] = entry;
            return ActorTypeId(pos);
        }
        assert!(
            inner.entries.len() < u16::MAX as usize,
            "too many actor types"
        );
        let pos = inner.entries.len() as u16;
        inner.by_name.insert(entry.name, pos);
        inner.entries.push(entry);
        ActorTypeId(pos)
    }

    fn lookup(&self, name: &'static str) -> Option<ActorTypeId> {
        self.inner
            .read()
            .by_name
            .get(name)
            .map(|&pos| ActorTypeId(pos))
    }

    fn factory(&self, type_id: ActorTypeId) -> Option<Factory> {
        self.inner
            .read()
            .entries
            .get(type_id.index())
            .map(|e| Arc::clone(&e.factory))
    }

    fn name(&self, type_id: ActorTypeId) -> Option<&'static str> {
        self.inner
            .read()
            .entries
            .get(type_id.index())
            .map(|e| e.name)
    }

    /// Only the debug-build edge check reads one type's edges.
    #[cfg(debug_assertions)]
    fn declared_calls(&self, type_id: ActorTypeId) -> Option<&'static [crate::CallDecl]> {
        self.inner
            .read()
            .entries
            .get(type_id.index())
            .map(|e| e.declared_calls)
    }
}

/// Runtime-wide configuration derived from the builder.
pub(crate) struct CoreConfig {
    /// Max envelopes one scheduling slice processes before yielding.
    pub max_batch: usize,
    /// Activations idle longer than this are reclaimed; `None` disables
    /// idle deactivation. The janitor scans every quarter of it.
    pub idle_timeout: Option<Duration>,
    /// Runs once after each deactivation sweep (janitor batch, shutdown
    /// drain, or a single on-idle deactivation). The write-coalescing
    /// seam for deactivation-time state flushes: actors persist via
    /// deferred puts in `on_deactivate`, and this hook issues the one
    /// `sync()` that makes the whole batch durable with a single group
    /// fsync instead of one per actor.
    pub on_deactivation_sweep: Option<Arc<dyn Fn() + Send + Sync>>,
}

/// Shared state of the runtime; everything threads need.
pub(crate) struct RuntimeCore {
    pub silos: Vec<SiloUnit>,
    pub directory: Directory,
    registry: Registry,
    placement: Box<dyn Placement>,
    pub clock: ClockHandle,
    pub config: CoreConfig,
    pub metrics: RuntimeMetrics,
    /// Seeded network-fault dice, when a [`FaultPlan`] with message faults
    /// is installed.
    chaos: Option<ChaosRuntime>,
    /// Identities evicted by a silo crash and not yet reactivated; lets the
    /// `reactivations` metric count exactly the crash-displaced actors.
    /// Only consulted when `silo_crashes > 0`, so fault-free runs never
    /// touch this lock.
    crashed: Mutex<HashSet<ActorId>>,
    /// Refuses *client* dispatches once shutdown begins, while letting
    /// in-flight actor-to-actor cascades complete.
    accepting: AtomicBool,
    shutdown: AtomicBool,
    start: Instant,
    /// The janitor thread's handle, so shutdown can unpark it instead of
    /// waiting out its scan interval.
    janitor_thread: std::sync::OnceLock<std::thread::Thread>,
}

impl RuntimeCore {
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    pub fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Typed reference construction (shared by `Runtime`, handles, and
    /// actor contexts).
    pub(crate) fn typed_ref<A: Actor>(
        self: &Arc<Self>,
        key: ActorKey,
        origin: Origin,
    ) -> Result<ActorRef<A>, SendError> {
        let type_id = self
            .registry
            .lookup_cached::<A>()
            .ok_or_else(|| SendError::NotRegistered(A::TYPE_NAME.to_string()))?;
        Ok(ActorRef {
            core: Arc::clone(self),
            id: ActorId::new(type_id, key),
            origin,
            last: ActivationCell::default(),
            _marker: PhantomData,
        })
    }

    /// Dispatch through a reference, with network-latency accounting:
    /// `last` is the activation the reference's previous send reached.
    pub(crate) fn dispatch(
        self: &Arc<Self>,
        id: &ActorId,
        last: &ActivationCell,
        env: Envelope,
        origin: Origin,
    ) -> Result<(), SendError> {
        self.dispatch_inner(id, Some(last), env, origin, true)
    }

    /// Dispatch that never charges latency (deliveries whose latency was
    /// already paid, timers, self-notifications). Nothing remembers
    /// where these go, so each consults the directory.
    pub(crate) fn dispatch_free(
        self: &Arc<Self>,
        id: &ActorId,
        env: Envelope,
        origin: Origin,
    ) -> Result<(), SendError> {
        self.dispatch_inner(id, None, env, origin, false)
    }

    /// The one dispatch routine. Its first candidate is the activation
    /// `last` remembers, if any, and the directory's answer after that; a
    /// remembered activation takes every check a directory hit takes. It
    /// is sound because every path that unlinks an activation retires its
    /// mailbox first (`Directory::remove_entry` asserts it), so a mailbox
    /// that accepts the push belongs to the identity's current activation;
    /// a retired one hands the envelope back and the directory answers.
    fn dispatch_inner(
        self: &Arc<Self>,
        id: &ActorId,
        last: Option<&ActivationCell>,
        mut env: Envelope,
        origin: Origin,
        charge_latency: bool,
    ) -> Result<(), SendError> {
        if self.is_shutdown() {
            return Err(SendError::RuntimeShutdown);
        }
        if origin == Origin::Client && !self.accepting.load(Ordering::Acquire) {
            return Err(SendError::RuntimeShutdown);
        }
        #[cfg(debug_assertions)]
        self.enforce_declared_edge(id);
        let mut remembered = last.and_then(ActivationCell::take);
        for _ in 0..DISPATCH_RETRIES {
            let (act, from_memory) = match remembered.take() {
                Some(act) => (act, true),
                None => (self.lookup_or_activate(id, origin)?, false),
            };
            if !self.silos[act.silo.index()].is_alive() {
                // The hosting silo crashed between placement and now. If
                // the mailbox is quiescent we can evict it here and retry,
                // which re-places on a live silo; otherwise fall through —
                // a retired mailbox hands the envelope back below, and a
                // scheduled one is torn down by the crash machinery (this
                // envelope then resolves as `SiloLost`).
                if act.mailbox.try_retire() {
                    self.crash_finish(&act, Vec::new());
                    continue;
                }
            }
            if charge_latency {
                if let Some(hop) = self.clock.hop(origin, act.silo) {
                    // The clock redelivers from `act.silo`, the origin
                    // that places a fresh activation if this one is gone:
                    // a retired one must not choose it, so it defers to
                    // the directory before any draw, as a fresh
                    // reference would.
                    if from_memory && act.mailbox.is_retired() {
                        continue;
                    }
                    let mut delay = self.clock.sample(hop);
                    self.metrics.remote_messages.fetch_add(1, Ordering::Relaxed);
                    // The message is on the simulated wire: this is where
                    // the chaos layer gets to lose, double, or stall it.
                    if let Some(chaos) = &self.chaos {
                        match chaos.decide() {
                            NetFault::Deliver => {}
                            NetFault::Drop => {
                                chaos.stats.dropped.fetch_add(1, Ordering::Relaxed);
                                // The sender's promise must not hang forever.
                                env.abort(PromiseError::Lost);
                                return Ok(());
                            }
                            NetFault::Duplicate => {
                                if let Some(dup) = env.try_replay() {
                                    chaos.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                                    self.clock.deliver_after(
                                        id.clone(),
                                        Origin::Silo(act.silo),
                                        dup,
                                        delay + Duration::from_micros(50),
                                    );
                                }
                            }
                            NetFault::Delay(extra) => {
                                chaos.stats.delayed.fetch_add(1, Ordering::Relaxed);
                                delay += extra;
                            }
                        }
                    }
                    // Redeliver as if originating on the target silo so the
                    // hop is charged exactly once.
                    self.clock
                        .deliver_after(id.clone(), Origin::Silo(act.silo), env, delay);
                    if let Some(last) = last {
                        last.put(act);
                    }
                    return Ok(());
                }
            }
            match act.mailbox.push(env) {
                PushOutcome::Enqueued => {}
                PushOutcome::EnqueuedNeedsSchedule => {
                    self.silos[act.silo.index()].enqueue_run(Arc::clone(&act));
                }
                PushOutcome::Retired(back) => {
                    // Lost the race with deactivation (or remembered an
                    // activation since retired): unlink the corpse and
                    // retry, which re-activates.
                    self.directory.remove_entry(id, &act);
                    env = back;
                    continue;
                }
            }
            self.metrics
                .here()
                .local_messages
                .fetch_add(1, Ordering::Relaxed);
            if let Some(last) = last {
                last.put(act);
            }
            return Ok(());
        }
        Err(SendError::ActivationRace)
    }

    /// Debug-build check that a dispatch issued from inside an actor turn
    /// follows an edge the sending actor type declared
    /// ([`crate::Actor::declared_calls`]). Dispatches from client, clock,
    /// or janitor threads (no turn running) are exempt, as are self-sends.
    ///
    /// Panicking is the right failure mode: an undeclared edge means the
    /// static call graph `aodb-lint` verifies is incomplete, so its
    /// deadlock-freedom guarantee is void. The panic surfaces inside the
    /// sending turn, where the standard handler-panic machinery contains
    /// it (metrics increment + `Lost` reply).
    #[cfg(debug_assertions)]
    fn enforce_declared_edge(&self, target: &ActorId) {
        let Some(src) = crate::topology::current_turn_actor() else {
            return;
        };
        if src == target.type_id {
            return;
        }
        let Some(target_name) = self.registry.name(target.type_id) else {
            return; // dispatch itself will report NotRegistered
        };
        let declared = self.registry.declared_calls(src).unwrap_or(&[]);
        if !declared.iter().any(|d| d.covers(target_name)) {
            let src_name = self.registry.name(src).unwrap_or("<unknown>");
            panic!(
                "undeclared actor call edge: `{src_name}` -> `{target_name}`. \
                 Every cross-actor send must be declared in the sender's \
                 `Actor::declared_calls()` so the static call graph stays \
                 sound (see aodb-analysis)."
            );
        }
    }

    fn lookup_or_activate(
        self: &Arc<Self>,
        id: &ActorId,
        origin: Origin,
    ) -> Result<Arc<Activation>, SendError> {
        self.metrics
            .here()
            .directory_lookups
            .fetch_add(1, Ordering::Relaxed);
        if let Some(act) = self.directory.get(id) {
            return Ok(act);
        }
        let factory = self
            .registry
            .factory(id.type_id)
            .ok_or_else(|| SendError::NotRegistered(format!("type #{}", id.type_id.index())))?;
        let silo = self.place_alive(id, origin)?;
        let now = self.now_ms();
        let (act, created) = self.directory.get_or_insert_with(id, || {
            Arc::new(Activation::new(id.clone(), silo, factory(id), now))
        });
        if created {
            self.metrics.activations.fetch_add(1, Ordering::Relaxed);
            if self.metrics.silo_crashes.load(Ordering::Relaxed) > 0
                && self.crashed.lock().remove(id)
            {
                self.metrics.reactivations.fetch_add(1, Ordering::Relaxed);
            }
            // The mailbox was born Scheduled holding the activate turn;
            // this is its one matching run-queue insertion.
            self.silos[act.silo.index()].enqueue_run(Arc::clone(&act));
        }
        Ok(act)
    }

    /// Placement that never targets a crashed silo: starts from the
    /// strategy's preferred silo and walks forward to the first live one,
    /// so crash re-placement stays deterministic given the set of live
    /// silos. With every silo dead there is nowhere to activate.
    fn place_alive(&self, id: &ActorId, origin: Origin) -> Result<SiloId, SendError> {
        let n = self.silos.len();
        let first = self.placement.place(id, origin, n);
        for off in 0..n {
            let unit = &self.silos[(first.index() + off) % n];
            if unit.is_alive() {
                return Ok(unit.id);
            }
        }
        Err(SendError::NoSiloAvailable)
    }

    /// Retires (if needed) and finalizes one activation — a sweep of one,
    /// so even a lone `ctx.deactivate()` gets its durability barrier.
    pub(crate) fn deactivate(self: &Arc<Self>, act: &Arc<Activation>) {
        // Unlink first so new messages create a fresh activation instead of
        // piling onto the retired mailbox.
        self.directory.remove_entry(&act.id, act);
        crate::silo::finalize_deactivation_sweep(self, std::slice::from_ref(act));
    }

    /// Discards a faulted activation without running `on_deactivate`
    /// (its in-memory state is suspect and must not be flushed).
    pub(crate) fn discard_faulted(self: &Arc<Self>, act: &Arc<Activation>) {
        self.directory.remove_entry(&act.id, act);
        crate::silo::discard_activation(self, act);
    }

    /// Tears down one crash-evicted activation whose mailbox the caller
    /// has already retired. Pending envelopes abort as
    /// [`PromiseError::SiloLost`]; user turns among them count into
    /// `lost_turns`; the identity is recorded so its next activation
    /// counts as a reactivation; the actor object is dropped **without**
    /// `on_deactivate` (a crash never flushes — only state persisted
    /// before the crash survives, which is exactly the guarantee the
    /// chaos tests probe). Returns the number of lost user envelopes.
    pub(crate) fn crash_finish(
        self: &Arc<Self>,
        act: &Arc<Activation>,
        envs: Vec<Envelope>,
    ) -> u64 {
        let mut lost = 0u64;
        for env in envs {
            if env.kind() == EnvelopeKind::User {
                lost += 1;
            }
            env.abort(PromiseError::SiloLost);
        }
        if lost > 0 {
            self.metrics.lost_turns.fetch_add(lost, Ordering::Relaxed);
        }
        // Record the identity *before* unlinking it: a racing dispatch can
        // re-create the activation the instant the directory entry is gone,
        // and its reactivation must find the marker already set.
        self.crashed.lock().insert(act.id.clone());
        self.directory.remove_entry(&act.id, act);
        crate::silo::discard_activation(self, act);
        lost
    }

    /// Crash-evicts an activation the caller owns by having dequeued it
    /// from a (now dead) silo's run queue: retiring the mailbox is legal
    /// because dequeuing grants exclusive ownership of the Scheduled state.
    pub(crate) fn crash_evict_owned(self: &Arc<Self>, act: &Arc<Activation>) -> u64 {
        let envs = act.mailbox.retire_and_drain();
        self.crash_finish(act, envs)
    }

    /// Abruptly kills a silo, modelling a process crash: queued and
    /// in-flight turns are lost (their promises resolve as
    /// [`PromiseError::SiloLost`]), unpersisted actor state is dropped
    /// without `on_deactivate`, and every hosted activation is evicted
    /// from the directory so the next message re-places it on a live silo
    /// and reactivates it from its store-persisted snapshot. Idempotent:
    /// killing a dead silo is a no-op.
    ///
    /// Turns already executing when the kill lands run to their envelope
    /// boundary and are then torn down by their own worker — at the
    /// observable level they are indistinguishable from turns that
    /// completed just before the crash. The method waits briefly for such
    /// stragglers; the returned report counts what was evicted
    /// synchronously (a worker finishing a long turn after the window
    /// still tears its activation down itself).
    pub(crate) fn kill_silo(self: &Arc<Self>, silo: SiloId) -> SiloCrashReport {
        assert!(silo.index() < self.silos.len(), "no such silo: {silo}");
        let unit = &self.silos[silo.index()];
        let mut report = SiloCrashReport {
            silo,
            evicted_activations: 0,
            lost_envelopes: 0,
        };
        if !unit.mark_dead() {
            return report;
        }
        self.metrics.silo_crashes.fetch_add(1, Ordering::Relaxed);
        // Workers parked or mid-search must observe the flag and start
        // aborting whatever they find.
        unit.wake_all_workers();
        let deadline = Instant::now() + Duration::from_millis(250);
        loop {
            // Drain the run queue ourselves: dequeuing grants ownership, so
            // each popped activation is torn down right here.
            for act in unit.drain_runnable() {
                report.lost_envelopes += self.crash_evict_owned(&act);
                report.evicted_activations += 1;
            }
            // Sweep the directory for idle residents; activations running a
            // turn right now refuse `try_retire` and are counted as
            // stragglers for the bounded wait below.
            let mut stragglers = 0usize;
            for act in self.directory.collect_on_silo(silo) {
                if act.mailbox.try_retire() {
                    report.lost_envelopes += self.crash_finish(&act, Vec::new());
                    report.evicted_activations += 1;
                } else {
                    stragglers += 1;
                }
            }
            if stragglers == 0 || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        report
    }

    /// Brings a killed silo back into service. The silo returns empty —
    /// its actors reactivate lazily, on their next message, from persisted
    /// state. Returns `false` if the silo was not dead.
    pub(crate) fn restart_silo(&self, silo: SiloId) -> bool {
        assert!(silo.index() < self.silos.len(), "no such silo: {silo}");
        let unit = &self.silos[silo.index()];
        let revived = unit.mark_alive();
        if revived {
            unit.wake_all_workers();
        }
        revived
    }

    pub(crate) fn schedule_delayed(self: &Arc<Self>, id: ActorId, env: Envelope, delay: Duration) {
        // Deliver with a placement hint of "wherever it was" — Origin::Client
        // placement fallback is deterministic hashing.
        self.clock.deliver_after(id, Origin::Client, env, delay);
    }

    fn janitor_pass(self: &Arc<Self>) {
        let Some(idle) = self.config.idle_timeout else {
            return;
        };
        let now = self.now_ms();
        let cutoff = now.saturating_sub(idle.as_millis() as u64);
        // Collect the whole batch first, then finalize it as one sweep:
        // every actor's deferred state flush rides a single durability
        // barrier instead of paying one fsync per deactivation.
        let mut batch = Vec::new();
        for act in self.directory.collect_idle(cutoff) {
            if act.mailbox.try_retire() {
                self.directory.remove_entry(&act.id, &act);
                batch.push(act);
            }
        }
        crate::silo::finalize_deactivation_sweep(self, &batch);
    }
}

/// Janitor thread body. Parks between scans — `park_timeout` for a
/// quarter of the idle timeout (at least 1 ms) when idle deactivation is
/// on, indefinitely when it is off — so shutdown's unpark is noticed
/// immediately instead of after up to a full scan interval, and an
/// idle-timeout-less runtime performs no periodic janitor wakeups at all.
fn janitor_loop(core: Arc<RuntimeCore>) {
    let _ = core.janitor_thread.set(std::thread::current());
    // Pairs with the fence in `shutdown_impl`: either shutdown sees the
    // handle above and unparks us, or we see its flag below. A shutdown
    // that ran before this thread got going would otherwise leave it
    // parked for good, and the join with it.
    std::sync::atomic::fence(Ordering::SeqCst);
    loop {
        if core.is_shutdown() {
            return;
        }
        if let Some(idle) = core.config.idle_timeout {
            std::thread::park_timeout((idle / 4).max(Duration::from_millis(1)));
        } else {
            // Nothing to scan for: sleep until shutdown unparks us.
            // (Spurious unparks just loop back here.)
            std::thread::park();
        }
        if core.is_shutdown() {
            return;
        }
        core.janitor_pass();
    }
}

/// Builder for a [`Runtime`].
pub struct RuntimeBuilder {
    silos: Vec<SiloConfig>,
    placement: Box<dyn Placement>,
    net: NetConfig,
    max_batch: usize,
    idle_timeout: Option<Duration>,
    chaos: Option<FaultPlan>,
    on_deactivation_sweep: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeBuilder {
    /// Starts from a single 2-worker silo, prefer-local placement, no
    /// simulated network, no idle deactivation.
    pub fn new() -> Self {
        RuntimeBuilder {
            silos: vec![SiloConfig::default()],
            placement: Box::new(PreferLocalPlacement),
            net: NetConfig::disabled(),
            max_batch: 16,
            idle_timeout: None,
            chaos: None,
            on_deactivation_sweep: None,
        }
    }

    /// Replaces the silo layout with `count` identical silos of
    /// `workers_each` worker threads.
    pub fn silos(mut self, count: usize, workers_each: usize) -> Self {
        assert!(count > 0, "at least one silo required");
        assert!(workers_each > 0, "at least one worker per silo required");
        self.silos = vec![
            SiloConfig {
                workers: workers_each
            };
            count
        ];
        self
    }

    /// Sets the placement strategy.
    pub fn placement(mut self, p: impl Placement) -> Self {
        self.placement = Box::new(p);
        self
    }

    /// Sets the simulated-network profile.
    pub fn network(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Enables idle deactivation after `timeout` of inactivity; the
    /// janitor scans for idle activations every quarter of it.
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Max envelopes per scheduling slice (fairness/throughput knob).
    pub fn max_batch(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.max_batch = n;
        self
    }

    /// Installs a hook that runs once after every deactivation sweep —
    /// a janitor idle batch, the shutdown drain, or a single on-demand
    /// deactivation. Wire it to the state store's `sync()` so
    /// write-on-deactivate flushes performed with deferred puts get one
    /// coalesced durability barrier per sweep instead of one fsync per
    /// actor.
    pub fn on_deactivation_sweep(mut self, hook: impl Fn() + Send + Sync + 'static) -> Self {
        self.on_deactivation_sweep = Some(Arc::new(hook));
        self
    }

    /// Installs a seeded [`FaultPlan`]: its network faults apply to every
    /// message crossing the simulated network boundary (so a [`NetConfig`]
    /// with latency — e.g. [`NetConfig::lan`] — must be set for them to
    /// bite), and its crash events are scheduled on the runtime clock.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Spawns worker, clock, and janitor threads and returns the runtime.
    pub fn build(self) -> Runtime {
        let (clock, clock_rx) = clock_channel(self.net);
        let chaos_dice = self
            .chaos
            .as_ref()
            .and_then(|p| p.net.map(|cfg| ChaosRuntime::new(p.seed, cfg)));
        let core = Arc::new(RuntimeCore {
            silos: self
                .silos
                .iter()
                .enumerate()
                .map(|(i, cfg)| SiloUnit::new(SiloId(i as u32), *cfg))
                .collect(),
            directory: Directory::new(),
            registry: Registry::default(),
            placement: self.placement,
            clock,
            config: CoreConfig {
                max_batch: self.max_batch,
                idle_timeout: self.idle_timeout,
                on_deactivation_sweep: self.on_deactivation_sweep,
            },
            metrics: RuntimeMetrics::new(self.silos.iter().map(|s| s.workers).sum()),
            chaos: chaos_dice,
            crashed: Mutex::new(HashSet::new()),
            accepting: AtomicBool::new(true),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
            janitor_thread: std::sync::OnceLock::new(),
        });

        // Schedule the plan's crash events on the runtime clock. The
        // control closure spawns a dedicated thread because `kill_silo`
        // waits for in-flight turns and must not stall timer deliveries.
        if let Some(plan) = &self.chaos {
            for ev in &plan.crashes {
                assert!(
                    ev.silo.index() < core.silos.len(),
                    "fault plan targets nonexistent silo {}",
                    ev.silo
                );
                let (silo, restart_after) = (ev.silo, ev.restart_after);
                core.clock.control(
                    ev.at,
                    Box::new(move |core: &Arc<RuntimeCore>| {
                        let core = Arc::clone(core);
                        std::thread::spawn(move || {
                            core.kill_silo(silo);
                            std::thread::sleep(restart_after);
                            core.restart_silo(silo);
                        });
                    }),
                );
            }
        }

        let mut threads = Vec::new();
        for silo in &core.silos {
            for w in 0..silo.config.workers {
                let core = Arc::clone(&core);
                let silo_id = silo.id;
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("aodb-{silo_id}-w{w}"))
                        .spawn(move || worker_loop(core, silo_id, w))
                        .expect("spawn worker"),
                );
            }
        }
        {
            let weak = Arc::downgrade(&core);
            threads.push(
                std::thread::Builder::new()
                    .name("aodb-clock".into())
                    .spawn(move || clock_loop(weak, clock_rx))
                    .expect("spawn clock"),
            );
        }
        {
            let core = Arc::clone(&core);
            threads.push(
                std::thread::Builder::new()
                    .name("aodb-janitor".into())
                    .spawn(move || janitor_loop(core))
                    .expect("spawn janitor"),
            );
        }
        Runtime {
            core,
            threads: Some(threads),
        }
    }
}

/// What [`Runtime::kill_silo`] tore down synchronously.
///
/// Turns still executing when the kill landed are torn down by their own
/// workers moments later and are not counted here; the `silo_crashes` /
/// `lost_turns` metrics cover those too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiloCrashReport {
    /// The silo that was killed.
    pub silo: SiloId,
    /// Activations evicted from the directory by this call.
    pub evicted_activations: usize,
    /// Queued user envelopes aborted as [`PromiseError::SiloLost`].
    pub lost_envelopes: u64,
}

/// A running actor-oriented database runtime.
///
/// Dropping the runtime performs an orderly shutdown: client traffic is
/// refused, in-flight work drains, every activation is deactivated (running
/// `on_deactivate`, where persistent actors flush state), and all threads
/// join.
pub struct Runtime {
    core: Arc<RuntimeCore>,
    threads: Option<Vec<JoinHandle<()>>>,
}

impl Runtime {
    /// Entry point: a builder with sensible defaults.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// Single-silo runtime with `workers` threads; the common test fixture.
    pub fn single(workers: usize) -> Runtime {
        RuntimeBuilder::new().silos(1, workers).build()
    }

    /// Registers actor type `A` with its activation factory. The factory
    /// runs when a message targets an identity with no live activation.
    /// `A`'s declared call edges ([`Actor::declared_calls`]) are captured
    /// alongside the factory; debug builds enforce them at dispatch time.
    pub fn register<A: Actor>(
        &self,
        factory: impl Fn(&ActorId) -> A + Send + Sync + 'static,
    ) -> ActorTypeId {
        self.core.registry.register(TypeEntry {
            name: A::TYPE_NAME,
            factory: Arc::new(move |id| Box::new(factory(id))),
            #[cfg(debug_assertions)]
            declared_calls: A::declared_calls(),
        })
    }

    /// Typed reference from an external client (pays client latency if the
    /// network profile defines one).
    pub fn actor_ref<A: Actor>(&self, key: impl Into<ActorKey>) -> ActorRef<A> {
        self.try_actor_ref(key).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Runtime::actor_ref`].
    pub fn try_actor_ref<A: Actor>(
        &self,
        key: impl Into<ActorKey>,
    ) -> Result<ActorRef<A>, SendError> {
        self.core.typed_ref(key.into(), Origin::Client)
    }

    /// A client handle with silo affinity: references minted from it
    /// originate on `silo`, modelling a co-located ingest gateway
    /// (prefer-local placement will pin new activations there).
    pub fn handle_on(&self, silo: SiloId) -> RuntimeHandle {
        assert!(silo.index() < self.core.silos.len(), "no such silo: {silo}");
        RuntimeHandle {
            core: Arc::clone(&self.core),
            origin: Origin::Silo(silo),
        }
    }

    /// A plain external-client handle.
    pub fn handle(&self) -> RuntimeHandle {
        RuntimeHandle {
            core: Arc::clone(&self.core),
            origin: Origin::Client,
        }
    }

    /// Number of silos.
    pub fn silo_count(&self) -> usize {
        self.core.silos.len()
    }

    /// Abruptly crashes a silo: queued and in-flight work is lost (sync
    /// callers see [`PromiseError::SiloLost`] and can retry), unpersisted
    /// actor state is dropped without `on_deactivate`, and each hosted
    /// identity reactivates from its persisted state on a surviving silo
    /// at its next message. Idempotent on an already-dead silo.
    pub fn kill_silo(&self, silo: SiloId) -> SiloCrashReport {
        self.core.kill_silo(silo)
    }

    /// Returns a killed silo to service (empty; actors reactivate lazily).
    /// Returns `false` if the silo was not dead.
    pub fn restart_silo(&self, silo: SiloId) -> bool {
        self.core.restart_silo(silo)
    }

    /// Whether `silo` is currently alive.
    pub fn silo_alive(&self, silo: SiloId) -> bool {
        assert!(silo.index() < self.core.silos.len(), "no such silo: {silo}");
        self.core.silos[silo.index()].is_alive()
    }

    /// Injected network-fault counters, when a [`FaultPlan`] with message
    /// faults is installed.
    pub fn chaos_stats(&self) -> Option<ChaosNetStatsSnapshot> {
        self.core.chaos.as_ref().map(|c| c.snapshot())
    }

    /// Number of live activations.
    pub fn active_actors(&self) -> usize {
        self.core.directory.len()
    }

    /// Runtime counter snapshot, including the parked-workers gauge.
    pub fn metrics(&self) -> RuntimeMetricsSnapshot {
        let mut snap = self.core.metrics.read();
        snap.parked_workers = self
            .core
            .silos
            .iter()
            .map(|s| s.parked_workers() as u64)
            .sum();
        snap
    }

    /// Registered name of an actor type id, if any (diagnostics).
    pub fn type_name(&self, type_id: ActorTypeId) -> Option<&'static str> {
        self.core.registry.name(type_id)
    }

    /// Schedules `msg` to `target` every `every`, until cancelled. The
    /// message is rebuilt via `Clone` for each firing.
    pub fn schedule_interval<A, M>(
        &self,
        target: &ActorRef<A>,
        msg: M,
        every: Duration,
    ) -> TimerHandle
    where
        A: Actor + Handler<M>,
        M: Message + Clone,
    {
        let make = Box::new(move || Envelope::of::<A, M>(msg.clone(), ReplyTo::Ignore));
        self.core.clock.repeat(target.id.clone(), make, every)
    }

    /// Blocks until all mailboxes are drained or `timeout` elapses.
    /// Returns whether the system quiesced.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut calm_rounds = 0;
        while Instant::now() < deadline {
            let busy_queue = self.core.silos.iter().any(|s| s.queue_len() > 0);
            // any_busy early-exits per shard without cloning activation
            // Arcs — this loop polls every 2 ms, so the old collect_all
            // snapshot made quiesce itself a directory-wide allocation
            // storm on large actor populations.
            let busy_mail = self.core.directory.any_busy();
            if !busy_queue && !busy_mail {
                calm_rounds += 1;
                if calm_rounds >= 3 {
                    return true;
                }
            } else {
                calm_rounds = 0;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    /// Orderly shutdown (also performed on drop). Refuses new client
    /// traffic, waits up to `drain` for in-flight work, deactivates all
    /// activations (persisting their state), and joins all threads.
    pub fn shutdown_with_drain(mut self, drain: Duration) {
        self.shutdown_impl(drain);
    }

    /// [`Runtime::shutdown_with_drain`] with a 5 s drain budget.
    pub fn shutdown(self) {
        self.shutdown_with_drain(Duration::from_secs(5));
    }

    fn shutdown_impl(&mut self, drain: Duration) {
        let Some(threads) = self.threads.take() else {
            return;
        };
        self.core.accepting.store(false, Ordering::Release);
        self.quiesce(drain);

        // Deactivate until the directory is empty: turns may still be
        // finishing, and `on_deactivate` hooks may themselves send
        // messages that create *new* activations (e.g. a gateway draining
        // its buffer into channel actors), which must also be deactivated
        // — hence the re-collect loop rather than a one-shot snapshot.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let activations = self.core.directory.collect_all();
            if activations.is_empty() {
                break;
            }
            let mut progressed = false;
            let mut batch = Vec::new();
            for act in &activations {
                if act.mailbox.try_retire() {
                    self.core.directory.remove_entry(&act.id, act);
                    batch.push(Arc::clone(act));
                    progressed = true;
                }
            }
            // One durability barrier for the whole shutdown wave of
            // deactivation flushes (see `finalize_deactivation_sweep`).
            crate::silo::finalize_deactivation_sweep(&self.core, &batch);
            if Instant::now() > deadline {
                break; // stuck activations: abandon rather than hang
            }
            if !progressed {
                std::thread::sleep(Duration::from_millis(2));
            }
        }

        self.core.shutdown.store(true, Ordering::Release);
        std::sync::atomic::fence(Ordering::SeqCst);
        // Wake everything that may be parked or blocked so the joins below
        // complete promptly: workers (parked in the idle set), the janitor
        // (parked between scans), and the clock (blocked on its channel).
        for silo in &self.core.silos {
            silo.wake_all_workers();
        }
        if let Some(janitor) = self.core.janitor_thread.get() {
            janitor.unpark();
        }
        self.core.clock.wake();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown_impl(Duration::from_secs(5));
    }
}

/// A clonable client handle with a fixed message origin.
#[derive(Clone)]
pub struct RuntimeHandle {
    core: Arc<RuntimeCore>,
    origin: Origin,
}

impl RuntimeHandle {
    /// Typed reference originating at this handle's origin.
    pub fn actor_ref<A: Actor>(&self, key: impl Into<ActorKey>) -> ActorRef<A> {
        self.try_actor_ref(key).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`RuntimeHandle::actor_ref`].
    pub fn try_actor_ref<A: Actor>(
        &self,
        key: impl Into<ActorKey>,
    ) -> Result<ActorRef<A>, SendError> {
        self.core.typed_ref(key.into(), self.origin)
    }

    /// The origin this handle stamps on messages.
    pub fn origin(&self) -> Origin {
        self.origin
    }
}

/// The activation a reference's last send reached, the first candidate
/// of its next one (see `RuntimeCore::dispatch_inner`). A send takes it
/// out and puts it back after the push, so the lock is a leaf: it is
/// never held while anything else is acquired, the mailbox push
/// included. Two threads sending through one reference at once cost the
/// loser a directory lookup, nothing more.
#[derive(Default)]
pub(crate) struct ActivationCell {
    slot: Mutex<Option<Arc<Activation>>>,
}

impl ActivationCell {
    fn take(&self) -> Option<Arc<Activation>> {
        self.slot.lock().take()
    }

    fn put(&self, act: Arc<Activation>) {
        // Bound, so that a replaced activation drops after the guard.
        let _replaced = self.slot.lock().replace(act);
    }

    fn copy(&self) -> ActivationCell {
        ActivationCell {
            slot: Mutex::new(self.slot.lock().clone()),
        }
    }
}

/// Typed reference to a virtual actor.
///
/// References are cheap to clone and never dangle: the target is an
/// *identity*, not an activation, so a reference made before the actor's
/// first activation (or after a deactivation) works transparently. A
/// reference remembers the activation its last send reached, so sending
/// through one it holds again is a mailbox push: hold references that
/// are used repeatedly rather than minting one per send.
pub struct ActorRef<A: Actor> {
    core: Arc<RuntimeCore>,
    id: ActorId,
    origin: Origin,
    last: ActivationCell,
    _marker: PhantomData<fn(A)>,
}

impl<A: Actor> Clone for ActorRef<A> {
    fn clone(&self) -> Self {
        ActorRef {
            core: Arc::clone(&self.core),
            id: self.id.clone(),
            origin: self.origin,
            last: self.last.copy(),
            _marker: PhantomData,
        }
    }
}

impl<A: Actor> std::fmt::Debug for ActorRef<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ActorRef<{}>({})", A::TYPE_NAME, self.id)
    }
}

impl<A: Actor> ActorRef<A> {
    /// The target identity.
    pub fn id(&self) -> &ActorId {
        &self.id
    }

    /// The target key.
    pub fn key(&self) -> &ActorKey {
        &self.id.key
    }

    fn send(&self, env: Envelope) -> Result<(), SendError> {
        self.core.dispatch(&self.id, &self.last, env, self.origin)
    }

    /// One-way send; the reply (if the handler produces one) is discarded.
    pub fn tell<M>(&self, msg: M) -> Result<(), SendError>
    where
        A: Handler<M>,
        M: Message,
    {
        self.send(Envelope::of::<A, M>(msg, ReplyTo::Ignore))
    }

    /// Request/response: returns a promise for the reply.
    pub fn ask<M>(&self, msg: M) -> Result<Promise<M::Reply>, SendError>
    where
        A: Handler<M>,
        M: Message,
    {
        let (sink, promise) = ReplyTo::promise();
        self.send(Envelope::of::<A, M>(msg, sink))?;
        Ok(promise)
    }

    /// Request/response with an explicit reply sink (collector slots,
    /// forwarding into other actors' mailboxes, …).
    pub fn ask_with<M>(&self, msg: M, reply: ReplyTo<M::Reply>) -> Result<(), SendError>
    where
        A: Handler<M>,
        M: Message,
    {
        self.send(Envelope::of::<A, M>(msg, reply))
    }

    /// Like [`ActorRef::tell`], but the message can be re-delivered by the
    /// chaos layer's duplicate-delivery fault (hence `M: Clone`). Use for
    /// sends whose handlers are — or are being tested to be — idempotent.
    pub fn tell_replayable<M>(&self, msg: M) -> Result<(), SendError>
    where
        A: Handler<M>,
        M: Message + Clone,
    {
        self.send(Envelope::replayable::<A, M>(msg, ReplyTo::Ignore))
    }

    /// Like [`ActorRef::ask`], but duplicable by the chaos layer; the
    /// duplicate delivery re-runs the handler with its reply discarded.
    pub fn ask_replayable<M>(&self, msg: M) -> Result<Promise<M::Reply>, SendError>
    where
        A: Handler<M>,
        M: Message + Clone,
    {
        let (sink, promise) = ReplyTo::promise();
        self.send(Envelope::replayable::<A, M>(msg, sink))?;
        Ok(promise)
    }

    /// Blocking request/response for external clients. Do **not** call from
    /// inside actor handlers — use [`ActorRef::ask_with`] plus a
    /// [`crate::Collector`] instead.
    pub fn call<M>(&self, msg: M) -> Result<M::Reply, CallError>
    where
        A: Handler<M>,
        M: Message,
    {
        Ok(self.ask(msg)?.wait()?)
    }

    /// Blocking request/response with a timeout.
    pub fn call_timeout<M>(&self, msg: M, timeout: Duration) -> Result<M::Reply, CallError>
    where
        A: Handler<M>,
        M: Message,
    {
        Ok(self.ask(msg)?.wait_for(timeout)?)
    }

    /// Type-erased recipient for message type `M`: lets heterogeneous actor
    /// types (e.g. every participant of a transaction) be addressed
    /// uniformly.
    pub fn recipient<M>(&self) -> Recipient<M>
    where
        A: Handler<M>,
        M: Message,
    {
        Recipient {
            core: Arc::clone(&self.core),
            id: self.id.clone(),
            origin: self.origin,
            last: self.last.copy(),
            make: Envelope::of::<A, M>,
        }
    }
}

/// Type-erased, message-typed actor reference.
///
/// A `Recipient<M>` can address any actor type handling `M`, which is what
/// multi-actor machinery (transactions, workflows, indexes) needs.
pub struct Recipient<M: Message> {
    core: Arc<RuntimeCore>,
    id: ActorId,
    origin: Origin,
    last: ActivationCell,
    make: fn(M, ReplyTo<M::Reply>) -> Envelope,
}

impl<M: Message> Clone for Recipient<M> {
    fn clone(&self) -> Self {
        Recipient {
            core: Arc::clone(&self.core),
            id: self.id.clone(),
            origin: self.origin,
            last: self.last.copy(),
            make: self.make,
        }
    }
}

impl<M: Message> std::fmt::Debug for Recipient<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Recipient({})", self.id)
    }
}

impl<M: Message> Recipient<M> {
    /// The target identity.
    pub fn id(&self) -> &ActorId {
        &self.id
    }

    fn send(&self, env: Envelope) -> Result<(), SendError> {
        self.core.dispatch(&self.id, &self.last, env, self.origin)
    }

    /// One-way send.
    pub fn tell(&self, msg: M) -> Result<(), SendError> {
        self.send((self.make)(msg, ReplyTo::Ignore))
    }

    /// Request/response.
    pub fn ask(&self, msg: M) -> Result<Promise<M::Reply>, SendError> {
        let (sink, promise) = ReplyTo::promise();
        self.send((self.make)(msg, sink))?;
        Ok(promise)
    }

    /// Request/response with an explicit reply sink.
    pub fn ask_with(&self, msg: M, reply: ReplyTo<M::Reply>) -> Result<(), SendError> {
        self.send((self.make)(msg, reply))
    }
}

//! Silos: the simulated servers of the cluster.
//!
//! Orleans deploys one silo per VM; grain activations live inside silos and
//! all application logic runs on silo threads. Here a [`SiloUnit`] is a
//! worker pool plus a work-stealing run queue. The worker count models the
//! server's CPU capacity (the paper's m5.large vs m5.xlarge distinction
//! becomes a worker-count ratio), and cross-silo messages pay simulated
//! network latency, so scale-out behaviour (Figure 7) is preserved
//! in-process.
//!
//! # Scheduling topology
//!
//! Each worker owns a LIFO deque (`crossbeam::deque::Worker`); the silo
//! additionally has one shared FIFO [`Injector`] for work arriving from
//! outside the pool (clients, other silos, the clock). A worker looks for
//! work in order: own deque (cache-hot LIFO pop) → injector (steal-half
//! batch) → siblings' deques (steal-half, rotating start). Every 61st scan
//! checks the injector *first* so locally-chained work (an actor whose
//! every turn schedules another local actor) cannot starve injected work.
//!
//! A worker dispatching to an actor of its own silo pushes straight onto
//! its own deque and — when that deque held no other work — wakes nobody:
//! the worker itself pops the task next, so chained actor-to-actor sends
//! proceed without ever touching a futex. Workers that find no work
//! anywhere park (see [`IdleSet`]); producers wake one parked worker when
//! they inject work or when a local deque grows beyond one task.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::actor::{ActorContext, AnyActor};
use crate::envelope::{Envelope, EnvelopeKind};
use crate::identity::{ActorId, SiloId};
use crate::mailbox::{Mailbox, TurnOutcome};
use crate::metrics::{Counters, RuntimeMetrics};
use crate::runq::{IdleSet, RunQueues, TaskSource, INJECTOR_FIRST_INTERVAL};
use crate::runtime::RuntimeCore;

thread_local! {
    /// Set for silo worker threads: which silo and worker slot this thread
    /// is, enabling the local-deque dispatch fast path.
    static CURRENT_WORKER: Cell<Option<(SiloId, usize)>> = const { Cell::new(None) };
}

/// Sizing of one silo.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiloConfig {
    /// Number of worker threads (the silo's "CPU cores").
    pub workers: usize,
}

impl Default for SiloConfig {
    fn default() -> Self {
        SiloConfig { workers: 2 }
    }
}

/// One in-memory activation of a virtual actor.
pub(crate) struct Activation {
    pub id: ActorId,
    pub silo: SiloId,
    pub mailbox: Mailbox,
    /// `None` once deactivated. The mutex is uncontended in steady state —
    /// the mailbox state machine ensures a single worker runs the actor —
    /// but protects the worker/janitor handoff during deactivation.
    actor: Mutex<Option<Box<dyn AnyActor>>>,
    /// When a turn slice last ended; kept only with idle deactivation on,
    /// for the janitor, its only reader.
    last_activity_ms: AtomicU64,
    /// Debug-build watchdog for the single-threaded-per-activation
    /// invariant: set for the duration of a turn slice; two workers ever
    /// both setting it means the mailbox state machine (or the stealing
    /// scheduler) double-scheduled the activation.
    #[cfg(debug_assertions)]
    running: std::sync::atomic::AtomicBool,
}

impl Activation {
    pub fn new(id: ActorId, silo: SiloId, actor: Box<dyn AnyActor>, now_ms: u64) -> Self {
        Activation {
            id,
            silo,
            mailbox: Mailbox::new_scheduled_with(Envelope::lifecycle_activate()),
            actor: Mutex::new(Some(actor)),
            last_activity_ms: AtomicU64::new(now_ms),
            #[cfg(debug_assertions)]
            running: std::sync::atomic::AtomicBool::new(false),
        }
    }

    pub fn last_activity_ms(&self) -> u64 {
        self.last_activity_ms.load(Ordering::Relaxed)
    }

    pub fn touch(&self, now_ms: u64) {
        self.last_activity_ms.store(now_ms, Ordering::Relaxed);
    }
}

/// The shared (non-thread) part of a silo.
pub(crate) struct SiloUnit {
    pub id: SiloId,
    pub config: SiloConfig,
    /// Work-stealing run queues (per-worker LIFO deques + FIFO injector),
    /// extracted to [`crate::runq`] so the model checker can drive the
    /// identical protocol over a toy task type.
    queues: RunQueues<Arc<Activation>>,
    idle: IdleSet,
    /// False after [`kill_silo`](crate::Runtime::kill_silo): the silo's
    /// workers abort (rather than run) anything they find, and dispatch
    /// treats activations hosted here as lost. Worker threads are not
    /// joined — a dead silo's pool idles parked until `restart_silo`,
    /// modelling a machine reboot without re-spawning OS threads.
    alive: AtomicBool,
}

impl SiloUnit {
    pub fn new(id: SiloId, config: SiloConfig) -> Self {
        SiloUnit {
            id,
            config,
            queues: RunQueues::new(config.workers),
            idle: IdleSet::new(config.workers),
            alive: AtomicBool::new(true),
        }
    }

    /// Whether the silo is accepting and executing work.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Transitions alive → dead. Returns `false` when already dead (the
    /// kill was someone else's; the caller must not tear down twice).
    pub fn mark_dead(&self) -> bool {
        self.alive
            .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Transitions dead → alive (restart). Returns `false` when the silo
    /// was not dead.
    pub fn mark_alive(&self) -> bool {
        self.alive
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Empties every run queue of this silo, returning the queued
    /// activations. Called by the crash path from the killing thread; the
    /// mailbox state machine guarantees each popped activation is owned
    /// exclusively by whoever dequeued it, so the caller may retire them.
    pub fn drain_runnable(&self) -> Vec<Arc<Activation>> {
        self.queues.drain_all()
    }

    /// Puts an activation on this silo's run queue.
    ///
    /// Fast path: a worker of this silo scheduling work pushes onto its own
    /// LIFO deque; when the deque held nothing else, no wakeup is issued —
    /// the pushing worker pops the task itself on its next scan, so
    /// actor-to-actor chains stay futex-free. All other producers (clients,
    /// other silos, clock, janitor) go through the injector and wake one
    /// parked worker.
    pub fn enqueue_run(&self, act: Arc<Activation>) {
        let slot = CURRENT_WORKER.with(|cw| cw.get());
        if let Some((silo, w)) = slot {
            if silo == self.id {
                // Backlog beyond the task this worker will pop next:
                // siblings can steal it, so make sure one is awake.
                if self.queues.push_local(w, act) > 1 {
                    self.idle.wake_one();
                }
                return;
            }
        }
        self.queues.push_injector(act);
        self.idle.wake_one();
    }

    /// Re-enqueues an activation that exhausted its turn slice with work
    /// still queued. Always goes to the back of the injector — the silo's
    /// FIFO — so saturated actors round-robin instead of a LIFO local push
    /// letting the most recent one monopolize its worker.
    ///
    /// Wake policy mirrors the local fast path: the yielding worker itself
    /// scans the injector on its next round, so a sibling is woken only
    /// when the injector holds surplus work beyond what the pusher will
    /// take. Unconditional waking here cost a wasted unpark/park futex
    /// pair per turn slice under saturated single-actor load.
    pub fn enqueue_yielded(&self, act: Arc<Activation>) {
        self.queues.push_injector(act);
        let own_silo_worker = CURRENT_WORKER
            .with(|cw| cw.get())
            .is_some_and(|(s, _)| s == self.id);
        if !own_silo_worker || self.queues.injector_len() > 1 {
            self.idle.wake_one();
        }
    }

    /// Pending run-queue length (diagnostics only).
    pub fn queue_len(&self) -> usize {
        self.queues.queued_len()
    }

    /// Number of currently parked workers (metrics gauge).
    pub fn parked_workers(&self) -> usize {
        self.idle.parked_count()
    }

    /// Wakes every worker thread (shutdown).
    pub fn wake_all_workers(&self) {
        self.idle.wake_all();
    }

    /// True when any queue holds runnable work for `worker`.
    fn has_work(&self, worker: usize) -> bool {
        self.queues.has_work(worker)
    }

    /// One scan for runnable work. `injector_first` periodically prefers
    /// injected work over the local deque (anti-starvation, see
    /// [`crate::runq`] docs).
    fn find_task(
        &self,
        worker: usize,
        injector_first: bool,
        counters: &Counters,
    ) -> Option<Arc<Activation>> {
        let (act, source) = self.queues.find_task(worker, injector_first)?;
        let counter = match source {
            TaskSource::Local => &counters.scheduler_local_pops,
            TaskSource::Injector => &counters.scheduler_injector_pops,
            TaskSource::Steal => &counters.scheduler_steals,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Some(act)
    }
}

/// Body of each worker thread.
pub(crate) fn worker_loop(core: Arc<RuntimeCore>, silo: SiloId, worker: usize) {
    let unit = &core.silos[silo.index()];
    unit.idle.register_thread(worker);
    CURRENT_WORKER.with(|cw| cw.set(Some((silo, worker))));
    // Workers are numbered across silos in silo order.
    let earlier: usize = core.silos[..silo.index()]
        .iter()
        .map(|s| s.config.workers)
        .sum();
    RuntimeMetrics::bind_worker_cell(earlier + worker);
    let counters = core.metrics.here();
    let mut batch: std::collections::VecDeque<Envelope> =
        std::collections::VecDeque::with_capacity(core.config.max_batch);
    let mut tick: u64 = 0;
    loop {
        tick = tick.wrapping_add(1);
        let injector_first = tick.is_multiple_of(INJECTOR_FIRST_INTERVAL);
        if let Some(act) = unit.find_task(worker, injector_first, counters) {
            if !unit.is_alive() {
                // The silo died with this activation still reaching the run
                // queue (a racing dispatch slipped past the kill's drain).
                // Popping granted us exclusive ownership: finish the crash's
                // work by evicting it and aborting its queue as SiloLost.
                core.crash_evict_owned(&act);
                continue;
            }
            run_activation_slice(&core, &act, &mut batch, counters);
            continue;
        }
        if core.is_shutdown() {
            return;
        }
        // Park protocol: register, re-check, then park (see IdleSet docs).
        unit.idle.prepare_park(worker);
        if unit.has_work(worker) || core.is_shutdown() {
            unit.idle.cancel_park(worker);
            if core.is_shutdown() {
                return;
            }
            continue;
        }
        counters.worker_parks.fetch_add(1, Ordering::Relaxed);
        unit.idle.park_current();
        unit.idle.cancel_park(worker);
    }
}

/// Runs one scheduling slice (up to `max_batch` turns) of an activation.
pub(crate) fn run_activation_slice(
    core: &Arc<RuntimeCore>,
    act: &Arc<Activation>,
    batch: &mut std::collections::VecDeque<Envelope>,
    counters: &Counters,
) {
    #[cfg(debug_assertions)]
    {
        let was_running = act.running.swap(true, Ordering::SeqCst);
        debug_assert!(
            !was_running,
            "single-threaded-per-activation invariant violated: two workers \
             are executing activation {} concurrently",
            act.id
        );
    }
    batch.clear();
    act.mailbox.drain_batch(core.config.max_batch, batch);
    let unit = &core.silos[act.silo.index()];
    let mut deactivate = false;
    let mut faulted = false;
    let mut killed = false;
    let mut processed = 0u64;
    // Envelopes salvaged from a faulted slice, re-dispatched to a fresh
    // activation below.
    let mut leftover: Vec<Envelope> = Vec::new();
    let ran = 'turns: {
        let mut guard = act.actor.lock();
        // Deactivated between scheduling and execution (shutdown path):
        // drop the messages — their reply sinks resolve as Lost.
        let Some(actor) = guard.as_mut() else {
            break 'turns false;
        };
        // Mark this thread as running turns of this actor type so debug
        // builds can check outgoing dispatches against its declared edges.
        let _turn = crate::topology::TurnGuard::enter(act.id.type_id);
        for mut env in batch.drain(..) {
            killed = killed || !unit.is_alive();
            if killed || faulted {
                // Either the silo crashed mid-slice (remaining turns are
                // lost with it), or an earlier turn corrupted the actor:
                // run nothing further against it; salvage instead.
                leftover.push(env);
                continue;
            }
            let kind = env.kind();
            let ctx = ActorContext::new(core, &act.id, act.silo, &mut deactivate);
            let outcome = catch_unwind(AssertUnwindSafe(|| env.run(actor.as_mut(), ctx)));
            if outcome.is_err() {
                core.metrics.handler_panics.fetch_add(1, Ordering::Relaxed);
                faulted = true;
            }
            if kind == EnvelopeKind::User {
                processed += 1;
            }
            // `env` drops here, after the count above: a reply sink its
            // handler panicked on resolves as `Lost` only now.
        }
        killed = killed || !unit.is_alive();
        true
    };
    // This worker is done with the actor. The flag clears before any
    // mailbox transition below: once `finish_turn` makes the mailbox idle,
    // another worker may legitimately pick the activation up.
    #[cfg(debug_assertions)]
    act.running.store(false, Ordering::SeqCst);
    if !ran {
        return;
    }
    if processed > 0 {
        counters
            .messages_processed
            .fetch_add(processed, Ordering::Relaxed);
    }
    // Only the janitor reads the activity stamp.
    if core.config.idle_timeout.is_some() {
        act.touch(core.now_ms());
    }
    if killed {
        // The silo died under this slice. The in-flight turn(s) already ran
        // — indistinguishable from completing just before the crash — but
        // everything still queued dies with the silo: abort as SiloLost,
        // drop the actor *without* on_deactivate (unpersisted state is
        // lost, exactly like a process kill), and evict the identity so
        // the next message reactivates it from durable state elsewhere.
        leftover.extend(act.mailbox.retire_and_drain());
        core.crash_finish(act, leftover);
        return;
    }
    if faulted {
        // Orleans faulted-grain behaviour: discard this activation right
        // away (without flushing its suspect state) and re-dispatch the
        // salvaged and still-queued messages to a fresh activation built
        // from the last durable state.
        leftover.extend(act.mailbox.retire_and_drain());
        core.discard_faulted(act);
        for env in leftover {
            let _ = core.dispatch_free(&act.id, env, crate::identity::Origin::Silo(act.silo));
        }
        return;
    }
    match act.mailbox.finish_turn(deactivate) {
        TurnOutcome::Drained => {}
        TurnOutcome::MorePending => core.silos[act.silo.index()].enqueue_yielded(Arc::clone(act)),
        TurnOutcome::RetiredForDeactivation => core.deactivate(act),
    }
}

/// Drops a faulted actor instance *without* running `on_deactivate`:
/// its in-memory state is suspect after a panic and must not overwrite
/// the last durable state.
pub(crate) fn discard_activation(core: &Arc<RuntimeCore>, act: &Arc<Activation>) {
    debug_assert!(act.mailbox.is_retired());
    if act.actor.lock().take().is_some() {
        core.metrics.deactivations.fetch_add(1, Ordering::Relaxed);
    }
}

/// Finalizes a batch of deactivations as one *sweep*: every actor's
/// `on_deactivate` runs (where persistent actors flush state, typically
/// via deferred puts that skip the per-write fsync), then the runtime's
/// `on_deactivation_sweep` hook runs **once** to issue the single
/// durability barrier covering all of them. This is the write-coalescing
/// path for deactivation-time flushes: a janitor batch of N idle actors
/// costs one group fsync, not N.
///
/// Callers must have retired every mailbox and unlinked the directory
/// entries. An empty batch is a no-op (no spurious barrier).
pub(crate) fn finalize_deactivation_sweep(core: &Arc<RuntimeCore>, acts: &[Arc<Activation>]) {
    if acts.is_empty() {
        return;
    }
    for act in acts {
        finalize_deactivation(core, act);
    }
    if let Some(hook) = &core.config.on_deactivation_sweep {
        hook();
    }
}

/// Runs `on_deactivate` and drops the actor instance. The caller must have
/// retired the mailbox first (so no worker can be executing the actor).
pub(crate) fn finalize_deactivation(core: &Arc<RuntimeCore>, act: &Arc<Activation>) {
    debug_assert!(act.mailbox.is_retired());
    let taken = act.actor.lock().take();
    if let Some(mut actor) = taken {
        // A deactivation request from `on_deactivate` has nothing left
        // to act on.
        let mut ignored = false;
        let mut ctx = ActorContext::new(core, &act.id, act.silo, &mut ignored);
        let _turn = crate::topology::TurnGuard::enter(act.id.type_id);
        if catch_unwind(AssertUnwindSafe(|| actor.deactivate(&mut ctx))).is_err() {
            core.metrics.handler_panics.fetch_add(1, Ordering::Relaxed);
        }
        core.metrics.deactivations.fetch_add(1, Ordering::Relaxed);
    }
}

//! The schedule-controlled exploration engine.
//!
//! A *model* is a closure that spawns [`crate::thread`] virtual threads and
//! exercises instrumented primitives ([`crate::sync`], [`crate::atomic`]).
//! The explorer runs the closure many times; within one execution only a
//! single virtual thread runs at a time, and at every synchronization
//! operation the running thread hands control to the explorer, which picks
//! the next thread to run from the *enabled* set. The sequence of picks is
//! driven either by a bounded-preemption depth-first search over the
//! schedule tree (CHESS-style) or by a seeded random walk.
//!
//! Virtual threads are real OS threads (recycled through a small pool), but
//! they are strictly co-routined: a thread off turn parks on the execution's
//! condvar, so model code observes sequentially-consistent interleavings
//! chosen by the explorer, never by the OS.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Panic payload used to unwind virtual threads when an execution is torn
/// down after a failure. Never escapes the pool worker.
pub(crate) struct ModelAbort;

// ---------------------------------------------------------------------------
// Per-object lazy ids
// ---------------------------------------------------------------------------

static NEXT_OBJ_ID: AtomicUsize = AtomicUsize::new(1);

/// Process-global lazily-assigned object id, usable from `const fn new`.
pub(crate) struct LazyId(AtomicUsize);

impl LazyId {
    pub(crate) const fn new() -> Self {
        LazyId(AtomicUsize::new(0))
    }

    pub(crate) fn get(&self) -> usize {
        let v = self.0.load(Ordering::Relaxed);
        if v != 0 {
            return v;
        }
        let fresh = NEXT_OBJ_ID.fetch_add(1, Ordering::Relaxed);
        match self
            .0
            .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => fresh,
            Err(winner) => winner,
        }
    }
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

/// What a blocked virtual thread is waiting for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Wait {
    /// Mutex acquisition (object id).
    Mutex(usize),
    /// RwLock shared acquisition (object id).
    RwRead(usize),
    /// RwLock exclusive acquisition (object id).
    RwWrite(usize),
    /// Condvar wait (condvar object id).
    Condvar(usize),
    /// `thread::park`.
    Park,
    /// Join on another virtual thread (vid).
    Join(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Run {
    Ready,
    Blocked(Wait),
    Exited,
}

struct TState {
    run: Run,
    /// Blocked wait is timed: the scheduler may elect to fire the timeout.
    timed: bool,
    /// Set when the scheduler woke this thread by firing its timeout.
    timed_out: bool,
    /// Park token (sticky unpark).
    token: bool,
}

impl TState {
    fn ready() -> Self {
        TState {
            run: Run::Ready,
            timed: false,
            timed_out: false,
            token: false,
        }
    }
}

#[derive(Default)]
struct MxState {
    locked: bool,
}

#[derive(Default)]
struct RwState {
    writer: bool,
    readers: usize,
}

#[derive(Default)]
struct CvState {
    waiters: Vec<usize>,
}

/// One scheduling decision: position chosen among `allowed` candidates.
#[derive(Clone, Copy)]
struct Decision {
    pos: usize,
    allowed: usize,
    /// Previously-running thread was enabled here (so pos > 0 preempts it).
    prev_enabled: bool,
    /// Preemption count before this decision.
    pre_before: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Mode {
    Dfs,
    Random,
}

struct Ctl {
    mode: Mode,
    /// Replay prefix: forced candidate positions for the first decisions.
    forced: Vec<usize>,
    rng: u64,
    bound: u32,
}

pub(crate) struct Exec {
    threads: Vec<TState>,
    current: usize,
    live: usize,
    steps: u64,
    max_steps: u64,
    preemptions: u32,
    mutexes: HashMap<usize, MxState>,
    rws: HashMap<usize, RwState>,
    cvs: HashMap<usize, CvState>,
    decisions: Vec<Decision>,
    ctl: Ctl,
    failure: Option<String>,
    done: bool,
}

pub(crate) struct ExecShared {
    m: Mutex<Exec>,
    cv: Condvar,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<ExecShared>, usize)>> = const { RefCell::new(None) };
}

/// The current virtual-thread context, if this OS thread is a vthread of a
/// live model execution. `None` means "run on the real primitives".
pub(crate) fn ctx() -> Option<(Arc<ExecShared>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

/// Context for *acquisition-side* scheduling operations. `None` while the
/// calling thread is unwinding: destructors that run during a panic (a
/// caught committer panic, or the ModelAbort teardown) must not take
/// scheduling decisions — a decision can itself panic, and a second panic
/// inside a destructor aborts the process. Acquisitions therefore fall
/// back to the real primitives. Release-side operations (unlock, notify,
/// unpark) still reach the model through [`ctx`] so lock state stays
/// consistent and model waiters are woken; they skip only the yield (the
/// unwind runs as one atomic step until normal code resumes).
pub(crate) fn sched_ctx() -> Option<(Arc<ExecShared>, usize)> {
    if std::thread::panicking() {
        None
    } else {
        ctx()
    }
}

fn set_ctx(v: Option<(Arc<ExecShared>, usize)>) {
    CTX.with(|c| *c.borrow_mut() = v);
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl Exec {
    fn enabled(&self, t: usize) -> bool {
        match self.threads[t].run {
            Run::Ready => true,
            Run::Blocked(_) => self.threads[t].timed,
            Run::Exited => false,
        }
    }

    fn fail(&mut self, msg: String) {
        if self.failure.is_none() {
            self.failure = Some(msg);
        }
    }

    fn wait_dump(&self) -> String {
        let mut parts = Vec::new();
        for (i, t) in self.threads.iter().enumerate() {
            if let Run::Blocked(w) = t.run {
                parts.push(format!("t{i}={w:?}"));
            }
        }
        parts.join(", ")
    }

    /// Pick the next thread to run. Sets `failure` on deadlock or when the
    /// step budget is exhausted, `done` when every thread has exited.
    fn pick(&mut self) {
        if self.failure.is_some() || self.done {
            return;
        }
        self.steps += 1;
        if self.steps > self.max_steps {
            self.fail(format!(
                "step budget exceeded ({} scheduling points) — livelock or runaway model",
                self.max_steps
            ));
            return;
        }
        let prev = self.current;
        let enabled: Vec<usize> = (0..self.threads.len())
            .filter(|&t| self.enabled(t))
            .collect();
        if enabled.is_empty() {
            if self.live > 0 {
                self.fail(format!(
                    "deadlock: {} live thread(s), none enabled [{}]",
                    self.live,
                    self.wait_dump()
                ));
            } else {
                self.done = true;
            }
            return;
        }
        let prev_enabled = enabled.contains(&prev);
        let mut cand: Vec<usize> = Vec::with_capacity(enabled.len());
        if prev_enabled {
            cand.push(prev);
            cand.extend(enabled.iter().copied().filter(|&t| t != prev));
            if self.preemptions >= self.ctl.bound {
                cand.truncate(1);
            }
        } else {
            cand = enabled;
        }
        let depth = self.decisions.len();
        let pos = if depth < self.ctl.forced.len() {
            self.ctl.forced[depth].min(cand.len() - 1)
        } else {
            match self.ctl.mode {
                Mode::Dfs => 0,
                Mode::Random => (splitmix(&mut self.ctl.rng) as usize) % cand.len(),
            }
        };
        let chosen = cand[pos];
        self.decisions.push(Decision {
            pos,
            allowed: cand.len(),
            prev_enabled,
            pre_before: self.preemptions,
        });
        if prev_enabled && chosen != prev {
            self.preemptions += 1;
        }
        // Firing a timeout wakes the thread as "timed out".
        let ts = &mut self.threads[chosen];
        if let Run::Blocked(w) = ts.run {
            debug_assert!(ts.timed);
            ts.run = Run::Ready;
            ts.timed = false;
            ts.timed_out = true;
            if let Wait::Condvar(cv) = w {
                if let Some(cvs) = self.cvs.get_mut(&cv) {
                    cvs.waiters.retain(|&t| t != chosen);
                }
            }
        }
        self.current = chosen;
    }

    fn wake(&mut self, t: usize) {
        let ts = &mut self.threads[t];
        if matches!(ts.run, Run::Blocked(_)) {
            ts.run = Run::Ready;
            ts.timed = false;
        }
    }

    fn wake_waiters_of(&mut self, pred: impl Fn(Wait) -> bool) {
        for t in 0..self.threads.len() {
            if let Run::Blocked(w) = self.threads[t].run {
                if pred(w) {
                    self.wake(t);
                }
            }
        }
    }
}

/// Run a scheduling decision and block until it is this thread's turn again.
/// Panics with [`ModelAbort`] when the execution has failed.
fn yield_turn<'a>(
    shared: &'a ExecShared,
    mut g: MutexGuard<'a, Exec>,
    vid: usize,
) -> MutexGuard<'a, Exec> {
    g.pick();
    shared.cv.notify_all();
    loop {
        if g.failure.is_some() {
            drop(g);
            std::panic::panic_any(ModelAbort);
        }
        if g.current == vid && matches!(g.threads[vid].run, Run::Ready) {
            return g;
        }
        g = shared.cv.wait(g).unwrap_or_else(|e| e.into_inner());
    }
}

fn lock_exec(shared: &ExecShared) -> MutexGuard<'_, Exec> {
    shared.m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Operations invoked by the instrumented primitives (crate::sync / thread)
// ---------------------------------------------------------------------------

/// A plain scheduling point (atomics, yields, spawn sites).
pub(crate) fn schedule_point(shared: &ExecShared, vid: usize) {
    let g = lock_exec(shared);
    drop(yield_turn(shared, g, vid));
}

pub(crate) fn mutex_lock(shared: &ExecShared, vid: usize, id: usize) {
    schedule_point(shared, vid);
    let mut g = lock_exec(shared);
    loop {
        let mx = g.mutexes.entry(id).or_default();
        if !mx.locked {
            mx.locked = true;
            return;
        }
        g.threads[vid].run = Run::Blocked(Wait::Mutex(id));
        g = yield_turn(shared, g, vid);
    }
}

pub(crate) fn mutex_unlock(shared: &ExecShared, vid: usize, id: usize) {
    let mut g = lock_exec(shared);
    if g.failure.is_some() || g.done {
        return; // teardown: guards dropped during unwind
    }
    g.mutexes.entry(id).or_default().locked = false;
    g.wake_waiters_of(|w| w == Wait::Mutex(id));
    if std::thread::panicking() {
        // Unwinding release: state updated and waiters woken above; take
        // no scheduling decision (see `sched_ctx`).
        drop(g);
        shared.cv.notify_all();
        return;
    }
    drop(yield_turn(shared, g, vid));
}

pub(crate) fn rw_lock(shared: &ExecShared, vid: usize, id: usize, write: bool) {
    schedule_point(shared, vid);
    let mut g = lock_exec(shared);
    loop {
        let rw = g.rws.entry(id).or_default();
        if write {
            if !rw.writer && rw.readers == 0 {
                rw.writer = true;
                return;
            }
            g.threads[vid].run = Run::Blocked(Wait::RwWrite(id));
        } else {
            if !rw.writer {
                rw.readers += 1;
                return;
            }
            g.threads[vid].run = Run::Blocked(Wait::RwRead(id));
        }
        g = yield_turn(shared, g, vid);
    }
}

pub(crate) fn rw_try_lock(shared: &ExecShared, vid: usize, id: usize, write: bool) -> bool {
    schedule_point(shared, vid);
    let mut g = lock_exec(shared);
    let rw = g.rws.entry(id).or_default();
    if write {
        if rw.writer || rw.readers > 0 {
            return false;
        }
        rw.writer = true;
    } else {
        if rw.writer {
            return false;
        }
        rw.readers += 1;
    }
    true
}

pub(crate) fn rw_unlock(shared: &ExecShared, vid: usize, id: usize, write: bool) {
    let mut g = lock_exec(shared);
    if g.failure.is_some() || g.done {
        return;
    }
    {
        let rw = g.rws.entry(id).or_default();
        if write {
            rw.writer = false;
        } else {
            rw.readers = rw.readers.saturating_sub(1);
        }
    }
    g.wake_waiters_of(|w| w == Wait::RwRead(id) || w == Wait::RwWrite(id));
    if std::thread::panicking() {
        // Unwinding release: state updated and waiters woken above; take
        // no scheduling decision (see `sched_ctx`).
        drop(g);
        shared.cv.notify_all();
        return;
    }
    drop(yield_turn(shared, g, vid));
}

/// Condvar wait. The caller has already dropped the real guard and released
/// the model mutex is done here; returns `true` when woken by timeout.
pub(crate) fn condvar_wait(
    shared: &ExecShared,
    vid: usize,
    cv_id: usize,
    mx_id: usize,
    timed: bool,
) -> bool {
    let mut g = lock_exec(shared);
    g.cvs.entry(cv_id).or_default().waiters.push(vid);
    g.threads[vid].run = Run::Blocked(Wait::Condvar(cv_id));
    g.threads[vid].timed = timed;
    // Release the associated mutex (wait's atomic unlock half).
    g.mutexes.entry(mx_id).or_default().locked = false;
    g.wake_waiters_of(|w| w == Wait::Mutex(mx_id));
    let mut g = yield_turn(shared, g, vid);
    let to = g.threads[vid].timed_out;
    g.threads[vid].timed_out = false;
    to
}

pub(crate) fn condvar_notify(shared: &ExecShared, vid: usize, cv_id: usize, all: bool) {
    let mut g = lock_exec(shared);
    if g.failure.is_some() || g.done {
        return;
    }
    let woken: Vec<usize> = {
        let cvs = g.cvs.entry(cv_id).or_default();
        if all {
            std::mem::take(&mut cvs.waiters)
        } else if cvs.waiters.is_empty() {
            Vec::new()
        } else {
            vec![cvs.waiters.remove(0)]
        }
    };
    for t in woken {
        g.wake(t);
    }
    if std::thread::panicking() {
        // Unwinding release: state updated and waiters woken above; take
        // no scheduling decision (see `sched_ctx`).
        drop(g);
        shared.cv.notify_all();
        return;
    }
    drop(yield_turn(shared, g, vid));
}

/// `thread::park` / `park_timeout`.
pub(crate) fn park(shared: &ExecShared, vid: usize, timed: bool) {
    let mut g = lock_exec(shared);
    if g.threads[vid].token {
        g.threads[vid].token = false;
    } else {
        g.threads[vid].run = Run::Blocked(Wait::Park);
        g.threads[vid].timed = timed;
    }
    let mut g = yield_turn(shared, g, vid);
    g.threads[vid].timed_out = false;
}

/// `Thread::unpark` on vthread `target`. `vid` is the calling vthread, or
/// `None` when a non-model thread holds a handle to a model thread (the
/// token is still delivered, without a scheduling decision).
pub(crate) fn unpark(shared: &ExecShared, vid: Option<usize>, target: usize) {
    let mut g = lock_exec(shared);
    if g.failure.is_some() || g.done {
        return;
    }
    if matches!(g.threads[target].run, Run::Blocked(Wait::Park)) {
        g.wake(target);
    } else {
        g.threads[target].token = true;
    }
    match vid {
        Some(vid) if !std::thread::panicking() => drop(yield_turn(shared, g, vid)),
        _ => {
            // Non-model caller, or an unwinding one: deliver the token
            // without a scheduling decision.
            drop(g);
            shared.cv.notify_all();
        }
    }
}

pub(crate) fn join(shared: &ExecShared, vid: usize, target: usize) {
    schedule_point(shared, vid);
    let mut g = lock_exec(shared);
    while !matches!(g.threads[target].run, Run::Exited) {
        g.threads[vid].run = Run::Blocked(Wait::Join(target));
        g = yield_turn(shared, g, vid);
    }
}

// ---------------------------------------------------------------------------
// Virtual-thread spawning and the worker pool
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    tx: mpsc::Sender<Job>,
    rx: Mutex<mpsc::Receiver<Job>>,
    idle: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let (tx, rx) = mpsc::channel();
        Pool {
            tx,
            rx: Mutex::new(rx),
            idle: AtomicUsize::new(0),
        }
    })
}

fn dispatch(job: Job) {
    let p = pool();
    // Reserve an idle worker for this job, or spawn a fresh one. The
    // reservation must be an atomic decrement, not a `== 0` check: a
    // vthread job occupies its worker for the whole execution (it blocks
    // inside the job waiting for turns), so two dispatches that both saw
    // the same single idle worker would strand the second job in the
    // channel with nobody left to run it — an OS-level deadlock that no
    // model schedule can ever resolve.
    let reserved = p
        .idle
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
        .is_ok();
    if !reserved {
        std::thread::Builder::new()
            .name("modelcheck-vthread".into())
            .spawn(|| {
                let p = pool();
                loop {
                    let job = {
                        let rx = p.rx.lock().unwrap_or_else(|e| e.into_inner());
                        rx.recv()
                    };
                    match job {
                        Ok(job) => job(),
                        Err(_) => return,
                    }
                    // Only count ourselves idle once the job is fully
                    // done; the dispatcher owns the decrement.
                    p.idle.fetch_add(1, Ordering::AcqRel);
                }
            })
            .expect("spawn modelcheck pool worker");
    }
    p.tx.send(job).expect("modelcheck pool receiver alive");
}

/// Register a new vthread running `f` and hand it to the pool. Takes a
/// scheduling decision (the spawn is a visible operation).
pub(crate) fn spawn_vthread(
    shared: &Arc<ExecShared>,
    parent: usize,
    f: Box<dyn FnOnce() + Send + 'static>,
) -> usize {
    let mut g = lock_exec(shared);
    g.threads.push(TState::ready());
    g.live += 1;
    let vid = g.threads.len() - 1;
    drop(g);
    let sh = Arc::clone(shared);
    dispatch(Box::new(move || run_vthread(sh, vid, f)));
    let g = lock_exec(shared);
    drop(yield_turn(shared, g, parent));
    vid
}

fn run_vthread(shared: Arc<ExecShared>, vid: usize, f: Box<dyn FnOnce() + Send + 'static>) {
    set_ctx(Some((Arc::clone(&shared), vid)));
    // Wait for our first turn.
    let start_ok = {
        let mut g = lock_exec(&shared);
        loop {
            if g.failure.is_some() {
                break false;
            }
            if g.current == vid && matches!(g.threads[vid].run, Run::Ready) {
                break true;
            }
            g = shared.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    };
    if start_ok {
        let r = catch_unwind(AssertUnwindSafe(f));
        let mut g = lock_exec(&shared);
        g.threads[vid].run = Run::Exited;
        g.live -= 1;
        match r {
            Ok(()) => {
                g.wake_waiters_of(|w| w == Wait::Join(vid));
                if g.live == 0 {
                    g.done = true;
                } else {
                    g.pick();
                }
            }
            Err(p) => {
                if p.downcast_ref::<ModelAbort>().is_none() {
                    let msg = p
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "virtual thread panicked".into());
                    g.fail(format!("thread t{vid} panicked: {msg}"));
                }
                // On ModelAbort the failure is already recorded.
            }
        }
        shared.cv.notify_all();
    }
    set_ctx(None);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Exploration statistics returned by [`model_report`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of distinct executions (schedules) run.
    pub schedules: u64,
    /// The bounded-DFS tree was fully explored within the budget.
    pub exhausted: bool,
    /// Exploration mode that ran ("dfs", "random", or "replay").
    pub mode: &'static str,
    /// Seed used for random mode (0 in DFS mode).
    pub seed: u64,
}

struct Config {
    mode: Mode,
    max_schedules: u64,
    budget_ms: u64,
    seed: u64,
    bound: u32,
    max_steps: u64,
    min_schedules: u64,
    replay: Option<(String, Vec<usize>)>,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn config() -> Config {
    let mode = match std::env::var("MODEL_MODE").as_deref() {
        Ok("random") => Mode::Random,
        _ => Mode::Dfs,
    };
    let replay = std::env::var("MODEL_SCHEDULE").ok().and_then(|s| {
        let (name, trace) = s.split_once(':')?;
        let positions = if trace.is_empty() {
            Vec::new()
        } else {
            trace
                .split('.')
                .map(|p| p.parse().ok())
                .collect::<Option<Vec<usize>>>()?
        };
        Some((name.to_string(), positions))
    });
    Config {
        mode,
        max_schedules: env_u64("MODEL_SCHEDULES", 2_000),
        budget_ms: env_u64("MODEL_BUDGET_MS", 10_000),
        seed: env_u64("MODEL_SEED", 0x5eed_cafe),
        bound: env_u64("MODEL_PREEMPTIONS", 2) as u32,
        max_steps: env_u64("MODEL_MAX_STEPS", 100_000),
        min_schedules: env_u64("MODEL_MIN_SCHEDULES", 0),
        replay,
    }
}

/// Given a finished execution's decisions, produce the forced prefix of the
/// next DFS schedule, or `None` when the bounded tree is exhausted.
fn next_forced(decisions: &[Decision], bound: u32) -> Option<Vec<usize>> {
    for d in (0..decisions.len()).rev() {
        let dec = decisions[d];
        if dec.pos + 1 < dec.allowed && (!dec.prev_enabled || dec.pre_before < bound) {
            let mut forced: Vec<usize> = decisions[..d].iter().map(|x| x.pos).collect();
            forced.push(dec.pos + 1);
            return Some(forced);
        }
    }
    None
}

fn new_exec(ctl: Ctl, max_steps: u64) -> Arc<ExecShared> {
    Arc::new(ExecShared {
        m: Mutex::new(Exec {
            threads: Vec::new(),
            current: 0,
            live: 0,
            steps: 0,
            max_steps,
            preemptions: 0,
            mutexes: HashMap::new(),
            rws: HashMap::new(),
            cvs: HashMap::new(),
            decisions: Vec::new(),
            ctl,
            failure: None,
            done: false,
        }),
        cv: Condvar::new(),
    })
}

/// Run one execution of the model body; returns `(decisions, failure)`.
fn run_once(
    f: &Arc<dyn Fn() + Send + Sync>,
    ctl: Ctl,
    max_steps: u64,
) -> (Vec<Decision>, Option<String>) {
    let shared = new_exec(ctl, max_steps);
    {
        let mut g = lock_exec(&shared);
        g.threads.push(TState::ready());
        g.live = 1;
        g.current = 0;
    }
    let body = Arc::clone(f);
    let sh = Arc::clone(&shared);
    dispatch(Box::new(move || {
        run_vthread(sh, 0, Box::new(move || body()))
    }));
    let mut g = lock_exec(&shared);
    loop {
        if g.done || g.failure.is_some() {
            break;
        }
        g = shared.cv.wait(g).unwrap_or_else(|e| e.into_inner());
    }
    // Give unwinding vthreads a moment to observe failure; they park only on
    // our condvar so the notify in report/exit paths has released them.
    (std::mem::take(&mut g.decisions), g.failure.take())
}

fn fail_with_trace(name: &str, decisions: &[Decision], msg: &str, extra: &str) -> ! {
    let trace: Vec<String> = decisions.iter().map(|d| d.pos.to_string()).collect();
    panic!(
        "model `{name}` failed: {msg}\n  replay with: MODEL_SCHEDULE={name}:{}\n{extra}",
        trace.join(".")
    );
}

/// Explore `name`, panicking (with a replayable `MODEL_SCHEDULE=` line) on
/// any invariant violation, deadlock, or vthread panic. Returns exploration
/// statistics.
pub fn model_report(name: &str, f: impl Fn() + Send + Sync + 'static) -> Report {
    assert!(
        ctx().is_none(),
        "model() may not be called from inside a model execution"
    );
    let cfg = config();
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(f);

    // Pinned replay of a single schedule takes priority over exploration.
    if let Some((target, positions)) = &cfg.replay {
        if target == name {
            let ctl = Ctl {
                mode: Mode::Dfs,
                forced: positions.clone(),
                rng: 0,
                bound: u32::MAX, // the pinned trace dictates everything
            };
            let (decisions, failure) = run_once(&body, ctl, cfg.max_steps);
            if let Some(msg) = failure {
                fail_with_trace(name, &decisions, &msg, "(pinned replay)");
            }
            return Report {
                schedules: 1,
                exhausted: false,
                mode: "replay",
                seed: 0,
            };
        }
    }

    let start = Instant::now();
    let mut forced: Vec<usize> = Vec::new();
    let mut schedules = 0u64;
    let mut exhausted = false;
    let mut seed_stream = cfg.seed;
    while schedules < cfg.max_schedules && start.elapsed().as_millis() < u128::from(cfg.budget_ms) {
        let ctl = Ctl {
            mode: cfg.mode,
            forced: std::mem::take(&mut forced),
            rng: splitmix(&mut seed_stream),
            bound: cfg.bound,
        };
        let (decisions, failure) = run_once(&body, ctl, cfg.max_steps);
        schedules += 1;
        if let Some(msg) = failure {
            let extra = format!(
                "  (mode={:?} seed={:#x} schedule #{schedules})",
                cfg.mode, cfg.seed
            );
            fail_with_trace(name, &decisions, &msg, &extra);
        }
        match cfg.mode {
            Mode::Dfs => match next_forced(&decisions, cfg.bound) {
                Some(next) => forced = next,
                None => {
                    exhausted = true;
                    break;
                }
            },
            Mode::Random => {}
        }
    }
    let report = Report {
        schedules,
        exhausted,
        mode: if cfg.mode == Mode::Dfs {
            "dfs"
        } else {
            "random"
        },
        seed: cfg.seed,
    };
    println!(
        "model {name}: {} schedules explored (mode={}, seed={:#x}, exhausted={}, bound={}, {:?})",
        report.schedules,
        report.mode,
        report.seed,
        report.exhausted,
        cfg.bound,
        start.elapsed()
    );
    if cfg.min_schedules > 0 && !exhausted && schedules < cfg.min_schedules {
        panic!(
            "model `{name}` explored only {schedules} schedules (< MODEL_MIN_SCHEDULES={}) without exhausting the tree",
            cfg.min_schedules
        );
    }
    report
}

/// Explore `name` with env-driven configuration; panic on any failure.
pub fn model(name: &str, f: impl Fn() + Send + Sync + 'static) {
    let _ = model_report(name, f);
}

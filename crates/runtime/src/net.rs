//! Simulated network and delayed delivery ("clock") service.
//!
//! In the paper's deployment, messages between the client and the silos and
//! between silos traverse a real datacenter network. In-process we charge a
//! configurable latency to every hop that would have been remote: the
//! envelope is parked in a timing heap and delivered when due. Local
//! deliveries bypass this entirely, which is what makes the prefer-local
//! placement ablation measurable.
//!
//! The same machinery implements actor timers (`notify_self_after`,
//! interval timers).

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::envelope::Envelope;
use crate::identity::{ActorId, Origin, SiloId};
use crate::runtime::RuntimeCore;

/// Latency distribution of one network hop: `base ± uniform(0..jitter)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Minimum latency of the hop.
    pub base: Duration,
    /// Additional uniformly distributed jitter.
    pub jitter: Duration,
}

impl LatencyModel {
    /// A fixed-latency hop.
    pub const fn fixed(base: Duration) -> Self {
        LatencyModel {
            base,
            jitter: Duration::ZERO,
        }
    }

    fn sample(&self, seed: &AtomicU64) -> Duration {
        if self.jitter.is_zero() {
            return self.base;
        }
        // xorshift on a shared seed: contention is irrelevant here (the
        // value only needs to look noisy) and Relaxed updates are fine.
        let mut x = seed.load(Ordering::Relaxed) | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        seed.store(x, Ordering::Relaxed);
        self.base + Duration::from_nanos(x % self.jitter.as_nanos().max(1) as u64)
    }
}

/// Network simulation settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetConfig {
    /// Latency charged to messages between two different silos.
    pub cross_silo: Option<LatencyModel>,
    /// Latency charged to messages from external clients
    /// ([`Origin::Client`]). Clients with silo affinity
    /// (`Runtime::handle_on`) model a co-located gateway and never pay it.
    pub client: Option<LatencyModel>,
}

impl NetConfig {
    /// No simulated network at all (unit tests, single-machine semantics).
    pub const fn disabled() -> Self {
        NetConfig {
            cross_silo: None,
            client: None,
        }
    }

    /// A LAN-like profile: 250 µs ± 100 µs between silos, free client hop.
    pub const fn lan() -> Self {
        NetConfig {
            cross_silo: Some(LatencyModel {
                base: Duration::from_micros(250),
                jitter: Duration::from_micros(100),
            }),
            client: None,
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::disabled()
    }
}

enum ClockJob {
    /// Deliver an envelope to an actor, dispatching as if from `origin`.
    Deliver {
        target: ActorId,
        origin: Origin,
        env: Envelope,
    },
    /// Repeating timer: build a fresh envelope each period until cancelled.
    Repeat {
        target: ActorId,
        make: Box<dyn Fn() -> Envelope + Send>,
        every: Duration,
        cancelled: Arc<AtomicBool>,
    },
    /// No-op that exists to interrupt a blocked `recv`: the loop re-checks
    /// the shutdown flag after every message. Sent by [`ClockHandle::wake`].
    Wake,
    /// Scheduled runtime surgery (chaos silo crashes). The closure runs on
    /// the clock thread and must not block — long operations spawn their
    /// own thread.
    Control(ControlFn),
}

/// A deferred action against the runtime core, run on the clock thread.
pub(crate) type ControlFn = Box<dyn FnOnce(&Arc<RuntimeCore>) + Send>;

pub(crate) struct HeapItem {
    due: Instant,
    seq: u64,
    job: ClockJob,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-due first.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

/// Handle for cancelling an interval timer.
#[derive(Clone)]
pub struct TimerHandle {
    cancelled: Arc<AtomicBool>,
}

impl TimerHandle {
    /// Stops future firings. Idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the timer has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Sender half of the clock service, embedded in the runtime core.
pub(crate) struct ClockHandle {
    tx: Sender<HeapItem>,
    seq: AtomicU64,
    rng_seed: AtomicU64,
    pub config: NetConfig,
}

impl ClockHandle {
    /// The latency model of a hop from `origin` to `target`, if that hop
    /// is charged. Draws nothing; [`ClockHandle::sample`] does.
    pub fn hop(&self, origin: Origin, target: SiloId) -> Option<LatencyModel> {
        match origin {
            Origin::Client => self.config.client,
            Origin::Silo(s) if s != target => self.config.cross_silo,
            Origin::Silo(_) => None,
        }
    }

    /// One latency draw for a charged hop.
    pub fn sample(&self, hop: LatencyModel) -> Duration {
        hop.sample(&self.rng_seed)
    }

    pub fn deliver_after(&self, target: ActorId, origin: Origin, env: Envelope, delay: Duration) {
        let item = HeapItem {
            due: Instant::now() + delay,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            job: ClockJob::Deliver {
                target,
                origin,
                env,
            },
        };
        let _ = self.tx.send(item);
    }

    /// Interrupts the clock thread's blocking wait so it notices shutdown
    /// immediately instead of at its next due timer.
    pub fn wake(&self) {
        let item = HeapItem {
            due: Instant::now(),
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            job: ClockJob::Wake,
        };
        let _ = self.tx.send(item);
    }

    /// Schedules a control action (e.g. a fault-plan silo crash) to run on
    /// the clock thread after `delay`.
    pub fn control(&self, delay: Duration, f: ControlFn) {
        let item = HeapItem {
            due: Instant::now() + delay,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            job: ClockJob::Control(f),
        };
        let _ = self.tx.send(item);
    }

    pub fn repeat(
        &self,
        target: ActorId,
        make: Box<dyn Fn() -> Envelope + Send>,
        every: Duration,
    ) -> TimerHandle {
        let cancelled = Arc::new(AtomicBool::new(false));
        let item = HeapItem {
            due: Instant::now() + every,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            job: ClockJob::Repeat {
                target,
                make,
                every,
                cancelled: Arc::clone(&cancelled),
            },
        };
        let _ = self.tx.send(item);
        TimerHandle { cancelled }
    }
}

pub(crate) fn clock_channel(config: NetConfig) -> (ClockHandle, Receiver<HeapItem>) {
    let (tx, rx) = unbounded();
    (
        ClockHandle {
            tx,
            seq: AtomicU64::new(0),
            rng_seed: AtomicU64::new(0x0DDB_1A5E_5BAD_5EED),
            config,
        },
        rx,
    )
}

/// Body of the clock thread. Blocks indefinitely while the heap is empty
/// (no periodic polling — [`ClockHandle::wake`] interrupts the wait at
/// shutdown); otherwise sleeps exactly until the next job is due.
pub(crate) fn clock_loop(core: Weak<RuntimeCore>, rx: Receiver<HeapItem>) {
    let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
    loop {
        match heap.peek() {
            None => match rx.recv() {
                Ok(item) => heap.push(item),
                Err(_) => return,
            },
            Some(next) => {
                let timeout = next.due.saturating_duration_since(Instant::now());
                match rx.recv_timeout(timeout) {
                    Ok(item) => heap.push(item),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        }
        // Drain the channel opportunistically so a burst of sends does not
        // serialize behind per-item heap wakeups.
        while let Ok(item) = rx.try_recv() {
            heap.push(item);
        }
        let Some(core) = core.upgrade() else { return };
        if core.is_shutdown() {
            return;
        }
        let now = Instant::now();
        while heap.peek().is_some_and(|item| item.due <= now) {
            let item = heap.pop().expect("peeked item");
            match item.job {
                ClockJob::Deliver {
                    target,
                    origin,
                    env,
                } => {
                    // Latency (if any) was charged when the job was
                    // scheduled; delivery itself is free. Failure means
                    // shutdown or a persistent race; replies resolve as
                    // Lost, which is the contract.
                    let _ = core.dispatch_free(&target, env, origin);
                }
                ClockJob::Repeat {
                    target,
                    make,
                    every,
                    cancelled,
                } => {
                    if cancelled.load(Ordering::Relaxed) {
                        continue;
                    }
                    let env = make();
                    let _ = core.dispatch_free(&target, env, Origin::Client);
                    heap.push(HeapItem {
                        due: item.due + every,
                        seq: item.seq,
                        job: ClockJob::Repeat {
                            target,
                            make,
                            every,
                            cancelled,
                        },
                    });
                }
                ClockJob::Wake => {}
                ClockJob::Control(f) => f(&core),
            }
        }
    }
}

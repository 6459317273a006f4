//! Allocation budgets of one acked channel ingest and of one live-data
//! request, as counts.
//!
//! A counting `#[global_allocator]` tallies allocator calls per thread;
//! the tests drive requests through the real stack — channel turn,
//! side-car encode, `TsStore::with_wal` delta append, deferred ack from
//! the WAL committer; organization turn, one series read and side-car
//! decode per channel — and read the tally of the
//! silo worker threads only (the client and the committer have their own
//! costs, which are not what a turn costs a worker). A count, unlike a
//! timing, is the same on every host and every run — the tests check
//! that by measuring two fresh stacks — so a budget is an exact
//! assertion: it fails the moment a per-message allocation creeps back
//! into the hot path.
//!
//! Next to them, the runtime's `directory_lookups` counter checks that
//! those requests travel through held references: none of their sends
//! consults the directory once the references have been used.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aodb_runtime::{Actor, ActorContext, ActorRef, CallDecl, Handler, Message, ReplyTo, Runtime};
use aodb_shm::messages::{GetLiveData, Ingest};
use aodb_shm::types::DataPoint;
use aodb_shm::{
    provision, register_all, Organization, PhysicalSensorChannel, ShmEnv, Topology, TopologySpec,
};
use aodb_store::tseries::{TsConfig, TsStore};
use aodb_store::{FsyncPolicy, MemStore, StateStore, WalConfig};

const MAX_THREADS: usize = 64;

/// Allocator calls (alloc, alloc_zeroed, realloc) per thread slot.
static CALLS: [AtomicU64; MAX_THREADS] = [const { AtomicU64::new(0) }; MAX_THREADS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
/// Bit `i` set: slot `i` ran an actor turn, i.e. is a silo worker.
static WORKER_SLOTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's slot in `CALLS`; const-initialised and without a
    /// destructor, so reading it inside the allocator allocates nothing.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn slot() -> Option<usize> {
    SLOT.try_with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed));
        }
        s.get()
    })
    .ok()
    .filter(|&i| i < MAX_THREADS)
}

struct Counting;

impl Counting {
    fn note() {
        if let Some(i) = slot() {
            CALLS[i].fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// touches only atomics and a const-initialised thread-local `Cell`, so it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls made so far by the threads known to be workers.
fn worker_calls() -> u64 {
    let workers = WORKER_SLOTS.load(Ordering::Relaxed);
    (0..MAX_THREADS)
        .filter(|i| workers >> i & 1 == 1)
        .map(|i| CALLS[i].load(Ordering::Relaxed))
        .sum()
}

/// Handlers run on silo workers and nowhere else: whichever thread runs
/// this one is a worker.
struct Marker;

impl Actor for Marker {
    const TYPE_NAME: &'static str = "test.marker";
}

struct Mark;

impl Message for Mark {
    type Reply = ();
}

impl Handler<Mark> for Marker {
    fn handle(&mut self, _msg: Mark, _ctx: &mut ActorContext<'_>) {
        if let Some(i) = slot() {
            WORKER_SLOTS.fetch_or(1 << i, Ordering::Relaxed);
        }
    }
}

/// One worker: with a sibling, whether it happens to be awake to steal
/// a turn (a steal batch is one more allocation) is timing, and the
/// count below must not be.
const WORKERS: usize = 1;
const POINTS_PER_INGEST: u64 = 10;
/// Ingests per channel: warm-up, then the measured ones. Together they
/// stay under the engine's 512-point seal threshold, so every measured
/// ingest takes the same path: a delta append.
const WARM_UP: u64 = 10;
const MEASURED: u64 = 40;
/// Worker-thread allocator calls one acked channel ingest may cost: the
/// boxed ack, the WAL record and the run queue's steal batch. The
/// channel's turn is the only one an ingest of a plain channel runs.
const BUDGET: u64 = 3;
/// Allocator calls the growth of one channel's compressed tail may add
/// over the measured ingests: its buffer grows three times on the way
/// from 100 to 500 points.
const TAIL_GROWTH_PER_CHANNEL: u64 = 3;
/// Worker-thread allocator calls one live-data request may cost per
/// channel of the organization — the meta copy the series read returns
/// and the name the report owns; the series name is built in the
/// organization's reused buffer — and per request whatever the channel
/// count: the report's vector, and the two the request costs outside
/// the handler (an empty handler measures those).
const LIVE_BUDGET_PER_CHANNEL: u64 = 2;
const LIVE_BUDGET_PER_REQUEST: u64 = 3;
const LIVE_REQUESTS: u64 = 20;

/// The tallies are process-wide: one measurement at a time.
static ONE_AT_A_TIME: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// Drives `rounds` ingests into every channel, each acked before the
/// next is sent, and returns with the runtime quiescent.
fn ingest_rounds(
    rt: &Runtime,
    channels: &[ActorRef<PhysicalSensorChannel>],
    next_batch: &mut u64,
    rounds: u64,
) {
    for _ in 0..rounds {
        let t0 = 3_600_000 + *next_batch * POINTS_PER_INGEST * 100;
        for channel in channels {
            let points: Vec<DataPoint> = (0..POINTS_PER_INGEST)
                .map(|i| DataPoint {
                    ts_ms: t0 + i * 100,
                    value: (t0 + i) as f64 * 0.25,
                })
                .collect();
            let accepted = channel
                .ask(Ingest::new(points))
                .unwrap()
                .wait_for(Duration::from_secs(10))
                .expect("ingest acked");
            assert_eq!(u64::from(accepted), POINTS_PER_INGEST);
        }
        *next_batch += 1;
    }
    // The ack comes from the committer, possibly before the channel's
    // turn has returned.
    assert!(rt.quiesce(Duration::from_secs(10)));
}

/// A fresh stack over 8 plain channels of one organization, its worker
/// thread(s) known to `worker_calls`.
struct Stack {
    rt: Runtime,
    engine: Arc<TsStore>,
    topology: Topology,
    channels: Vec<ActorRef<PhysicalSensorChannel>>,
    org: ActorRef<Organization>,
    wal_dir: std::path::PathBuf,
}

impl Stack {
    fn build(tag: &str) -> Stack {
        let wal_dir =
            std::env::temp_dir().join(format!("aodb-alloc-budget-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let engine = Arc::new(
            TsStore::with_wal(
                Arc::clone(&store),
                TsConfig::default(),
                wal_dir.join("ingest.wal"),
                WalConfig {
                    fsync_policy: FsyncPolicy::OnDemand,
                },
            )
            .unwrap(),
        );
        let env = ShmEnv::paper_default(store).with_series_store(Arc::clone(&engine) as _);
        let rt = Runtime::builder().silos(1, WORKERS).build();
        register_all(&rt, env);
        rt.register(|_id| Marker);
        // Plain sensors, as in the benchmark's ingest workloads.
        let spec = TopologySpec {
            virtual_every: 0,
            ..TopologySpec::default()
        };
        let topology = Topology::layout(4, spec);
        provision(&rt, &topology, |_| None).unwrap();
        let channels: Vec<_> = topology
            .physical_channels()
            .map(|key| rt.actor_ref::<PhysicalSensorChannel>(key))
            .collect();
        assert_eq!(channels.len(), 8);
        assert_eq!(topology.orgs.len(), 1);
        let org = rt.actor_ref::<Organization>(topology.orgs[0].key.as_str());

        // Find this stack's worker thread(s): bursts of turns until each
        // has run one.
        let known = WORKER_SLOTS.load(Ordering::Relaxed).count_ones();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while WORKER_SLOTS.load(Ordering::Relaxed).count_ones() < known + WORKERS as u32 {
            assert!(
                std::time::Instant::now() < deadline,
                "not every worker ran a turn"
            );
            for n in 0..256u64 {
                rt.actor_ref::<Marker>(n).tell(Mark).unwrap();
            }
            assert!(rt.quiesce(Duration::from_secs(10)));
        }
        Stack {
            rt,
            engine,
            topology,
            channels,
            org,
            wal_dir,
        }
    }

    fn tear_down(self) {
        self.rt.shutdown();
        drop(self.engine);
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

/// Directory lookups the runtime has made so far, on every thread.
fn lookups(rt: &Runtime) -> u64 {
    rt.metrics().directory_lookups
}

/// Builds a fresh stack, warms it up and returns the worker-thread
/// allocator calls of `MEASURED` acked ingests into each of 8 channels,
/// and the directory lookups they made.
fn measure(tag: &str) -> (u64, u64) {
    let stack = Stack::build(tag);
    let mut next_batch = 0u64;
    ingest_rounds(&stack.rt, &stack.channels, &mut next_batch, WARM_UP);
    let (before, looked_up) = (worker_calls(), lookups(&stack.rt));
    ingest_rounds(&stack.rt, &stack.channels, &mut next_batch, MEASURED);
    let calls = worker_calls() - before;
    let looked_up = lookups(&stack.rt) - looked_up;
    assert_eq!(
        stack.engine.wal_stats().frames,
        (WARM_UP + MEASURED) * stack.channels.len() as u64,
        "every ingest must have taken the delta path"
    );
    stack.tear_down();
    (calls, looked_up)
}

/// Drives `requests` live-data requests at the stack's organization, each
/// answered (and checked) before the next is sent.
fn live_requests(stack: &Stack, requests: u64) {
    for _ in 0..requests {
        let (reply, report) = ReplyTo::promise();
        stack.org.tell(GetLiveData { reply }).unwrap();
        let report = report
            .wait_for(Duration::from_secs(10))
            .expect("live data answered");
        // Registration order, every channel with its last ingested point.
        let names = report.channels.iter().map(|(name, _)| name.as_str());
        assert!(names.eq(stack.topology.physical_channels()));
        assert!(report.channels.iter().all(|(_, latest)| latest.is_some()));
    }
    assert!(stack.rt.quiesce(Duration::from_secs(10)));
}

/// Builds a fresh stack with one point batch in every channel and
/// returns the worker-thread allocator calls of `LIVE_REQUESTS`
/// live-data requests over its 8 channels, after a first one, and the
/// directory lookups they made.
fn measure_live(tag: &str) -> (u64, u64) {
    let stack = Stack::build(tag);
    ingest_rounds(&stack.rt, &stack.channels, &mut 0, 1);
    live_requests(&stack, 1);
    let (before, looked_up) = (worker_calls(), lookups(&stack.rt));
    live_requests(&stack, LIVE_REQUESTS);
    let calls = worker_calls() - before;
    let looked_up = lookups(&stack.rt) - looked_up;
    stack.tear_down();
    (calls, looked_up)
}

#[test]
fn acked_channel_ingest_stays_within_its_allocation_budget() {
    let _one = ONE_AT_A_TIME.lock();
    let ingests = MEASURED * 8;
    let (calls, looked_up) = measure("a");
    assert!(
        calls <= BUDGET * ingests + TAIL_GROWTH_PER_CHANNEL * 8,
        "{calls} worker-thread allocator calls for {ingests} acked ingests into 8 channels, \
         budget {BUDGET} each + {TAIL_GROWTH_PER_CHANNEL} per channel"
    );
    println!(
        "worker-thread allocator calls per acked channel ingest: {:.3}",
        calls as f64 / ingests as f64
    );
    assert_eq!(
        measure("b").0,
        calls,
        "the same ingests must cost the same allocator calls on every run"
    );
    // The client's held channel reference; the channel sends nothing.
    assert_eq!(
        looked_up, 0,
        "directory lookups for {ingests} acked ingests"
    );
}

#[test]
fn live_data_fan_out_stays_within_its_allocation_budget() {
    let _one = ONE_AT_A_TIME.lock();
    let (calls, looked_up) = measure_live("live-a");
    let budget = LIVE_REQUESTS * (LIVE_BUDGET_PER_CHANNEL * 8 + LIVE_BUDGET_PER_REQUEST);
    println!(
        "worker-thread allocator calls per live-data request over 8 channels: {:.2}",
        calls as f64 / LIVE_REQUESTS as f64
    );
    assert!(
        calls <= budget,
        "{calls} worker-thread allocator calls for {LIVE_REQUESTS} live-data requests over 8 \
         channels, budget {LIVE_BUDGET_PER_CHANNEL} per channel + {LIVE_BUDGET_PER_REQUEST} each"
    );
    assert_eq!(
        measure_live("live-b").0,
        calls,
        "the same requests must cost the same allocator calls on every run"
    );
    // The held organization reference; the organization sends nothing.
    assert_eq!(
        looked_up, 0,
        "directory lookups for {LIVE_REQUESTS} live-data requests"
    );
}

/// Sends `Mark` to marker 0 through a reference minted for the send.
struct Minter;

impl Actor for Minter {
    const TYPE_NAME: &'static str = "test.minter";
    fn declared_calls() -> &'static [CallDecl] {
        const CALLS: &[CallDecl] = &[CallDecl::send("test.marker")];
        CALLS
    }
}

struct Mint;

impl Message for Mint {
    type Reply = ();
}

impl Handler<Mint> for Minter {
    fn handle(&mut self, _msg: Mint, ctx: &mut ActorContext<'_>) {
        ctx.actor_ref::<Marker>(0u64).tell(Mark).unwrap();
    }
}

#[test]
fn a_freshly_minted_reference_consults_the_directory_once() {
    // `Mark` turns make their worker count as one in the other tests.
    let _one = ONE_AT_A_TIME.lock();
    let rt = Runtime::builder().silos(1, WORKERS).build();
    rt.register(|_id| Marker);
    rt.register(|_id| Minter);
    let minter = rt.actor_ref::<Minter>(0u64);
    minter.tell(Mint).unwrap();
    assert!(rt.quiesce(Duration::from_secs(10)));
    const SENDS: u64 = 10;
    let before = lookups(&rt);
    for _ in 0..SENDS {
        minter.tell(Mint).unwrap();
    }
    assert!(rt.quiesce(Duration::from_secs(10)));
    assert_eq!(lookups(&rt) - before, SENDS);
    rt.shutdown();
}

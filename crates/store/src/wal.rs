//! Group-commit write-ahead log.
//!
//! A [`GroupWal`] amortizes the two expensive parts of durable logging —
//! the write syscall and the fsync — across concurrent writers. Callers
//! submit opaque frames from any thread; a single **committer thread**
//! drains the queue of pending frames, writes them as one coalesced
//! buffer, issues one `fdatasync` for the whole group, and only then
//! resolves each waiter's acknowledgement (a blocking [`WalTicket`] or a
//! completion callback, in submission order). The result is the classic
//! group-commit contract: *ack ⇒ durable*, at a per-frame cost that
//! shrinks as concurrency grows.
//!
//! ## On-disk format
//!
//! The file is a flat sequence of [`FramedRecord`]s
//! (`len | crc32 | payload`) — grouping is purely a *write batching*
//! concern and leaves no trace on disk. Recovery parses records from the
//! front; a torn tail (crash mid-group-write) ends the committed prefix
//! and is physically truncated, while a checksum mismatch anywhere
//! earlier is reported as corruption. Because groups are written with a
//! single `write_all`, a crash can only tear the *last* group, and the
//! recovered frames are always a prefix of the submission order.
//!
//! ## Who frames
//!
//! The submitting thread, always: every record reaches the queue as a
//! [`FramedRecord`], so the one thread every ack waits on only
//! concatenates, writes, fsyncs and acks. [`GroupWal::submit`] and
//! [`GroupWal::submit_with`] frame the payload they are given before
//! queueing it; [`GroupWal::submit_framed`] takes a record the caller
//! encoded straight into its frame. The log bytes are the same.
//!
//! ## Batching policy
//!
//! The committer takes whatever is queued the moment it becomes free,
//! up to 256 frames (natural batching: the previous group's flush *is*
//! the accumulation window), and never holds a group open waiting for
//! more.
//!
//! ## Faults
//!
//! Any media error marks the WAL dead and errors every unresolved
//! waiter. Injected kills take the same road: tests arm one of the five
//! [`CrashPoint`]s with [`GroupWal::arm_crash`], and the media wrapper
//! every committer runs over turns it into a media event — un-synced
//! bytes are dropped with the page cache, a mid-group tear leaves
//! partial frame bytes behind, and the operation fails. The chaos suite
//! reopens the file afterwards and asserts the invariant *acked ⇒
//! recovered, and recovered is a prefix of submitted*.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::{Index, Range};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

// Under the `model` feature the committer thread routes through the model
// checker's shims, so spawn/join on the group-commit path are schedule
// points. Off the feature this is exactly `std`. The WAL's `AtomicU64`s
// stay on std in both modes: per the ordering policy on [`WalCounters`]
// they are Relaxed monotonic statistics with no control-flow role, so
// they would only inflate the schedule space.
#[cfg(feature = "model")]
use modelcheck::thread as mthread;
use std::sync::atomic::AtomicU64;
#[cfg(not(feature = "model"))]
use std::thread as mthread;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::api::{StoreError, StoreResult};
use crate::codec::{replay_framed, FramedRecord};
use crate::tseries::engine::{AppendAck, AppendOutcome};

/// When the committer issues fsync.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FsyncPolicy {
    /// One `fdatasync` per group (the group-commit contract: a resolved
    /// ack means the frame is on durable media). The default.
    #[default]
    PerGroup,
    /// Never fsync on the append path; [`GroupWal::sync`] forces one.
    /// Acks then mean "written to the OS", like a
    /// [`LogStore`](crate::LogStore) write before its
    /// [`sync`](crate::StateStore::sync).
    OnDemand,
}

/// Largest number of frames coalesced into one group.
const MAX_GROUP_FRAMES: usize = 256;

/// Tuning of a [`GroupWal`].
#[derive(Clone, Copy, Debug, Default)]
pub struct WalConfig {
    /// Fsync policy.
    pub fsync_policy: FsyncPolicy,
}

/// The write/fsync/ack boundaries of the group-commit path, for fault
/// injection. Each variant names the media event at which the emulated
/// process kill lands; group N is the media's N-th non-empty
/// `write_all`, so a group of pure barriers is never the armed one. A
/// kill truncates the media to its last synced offset before the
/// operation fails.
///
/// Under [`FsyncPolicy::OnDemand`], where no `sync_data` follows a
/// group's write, the two fsync-side points fire at the media's next
/// operation. A [`GroupWal`] holds one armed fault: arming replaces it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CrashPoint {
    /// Group N's `write_all` fails before writing: every frame of the
    /// group (and everything queued behind it) is lost, none were acked.
    BeforeGroupWrite,
    /// Group N's `write_all` writes half the coalesced buffer, tearing a
    /// frame, then fails. Recovery must truncate the tear and keep the
    /// clean prefix.
    MidGroupWrite,
    /// Group N's `write_all` writes everything, then fails: the page
    /// cache is lost with the process, so the whole group evaporates. No
    /// acks were resolved, so nothing acked is lost.
    AfterWriteBeforeFsync,
    /// The next `sync_data` syncs, then fails: durable but
    /// unacknowledged. The frames *must* survive recovery
    /// (durable-but-unacked is the allowed direction).
    AfterFsyncBeforeAck,
    /// That `sync_data` succeeds and the group is acked; the media's
    /// next operation fails. Recovery must observe every acked frame.
    AfterAck,
}

impl CrashPoint {
    /// Every crash point, in pipeline order, which is declaration order:
    /// `ALL[p as usize] == p`. The chaos matrix iterates this so no
    /// boundary is left untested.
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::BeforeGroupWrite,
        CrashPoint::MidGroupWrite,
        CrashPoint::AfterWriteBeforeFsync,
        CrashPoint::AfterFsyncBeforeAck,
        CrashPoint::AfterAck,
    ];
}

/// Arms a crash at `point` on group number `at_group` (0-based count of
/// non-empty group writes since the WAL opened).
#[derive(Clone, Copy, Debug)]
pub struct CrashPlan {
    /// Which boundary to kill at.
    pub point: CrashPoint,
    /// Which group to kill (lets seeded tests vary how much committed
    /// prefix exists before the crash).
    pub at_group: u64,
}

/// The committer's live counters, read through [`GroupWal::stats`].
///
/// # Atomic-ordering policy
///
/// Every atomic here — and the WAL's `written_len` — is accessed with
/// `Ordering::Relaxed`, the same policy as the runtime's metrics module:
/// they are monotonic statistics, and no reader derives control flow or
/// cross-thread ordering from them. The commit/ack handshake never
/// touches these cells; it is ordered entirely by the queue mutex and
/// each ticket's `Mutex`/`Condvar` pair, so a waiter that has observed
/// its ack is already happens-after the group's write and fsync without
/// any help from the counters. A snapshot taken mid-group may therefore
/// be internally skewed (e.g. `groups` bumped, `frames` not yet) — that
/// is the accepted cost, as with the runtime histograms.
#[derive(Default)]
struct WalCounters {
    /// Groups committed (one coalesced write each).
    groups: AtomicU64,
    /// Frames across all groups; `frames / groups` is the mean group
    /// size.
    frames: AtomicU64,
    /// Fsyncs issued.
    fsyncs: AtomicU64,
}

/// Point-in-time copy of the WAL's own counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStatsSnapshot {
    /// Groups committed.
    pub groups: u64,
    /// Frames across all groups.
    pub frames: u64,
    /// Fsyncs issued.
    pub fsyncs: u64,
}

impl WalStatsSnapshot {
    /// Mean frames per group (0 when no group has committed).
    pub fn mean_group_size(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.frames as f64 / self.groups as f64
        }
    }
}

// ------------------------------------------------------------- completions

struct TicketCell {
    state: Mutex<Option<StoreResult<()>>>,
    cv: Condvar,
}

impl TicketCell {
    fn new() -> Arc<Self> {
        Arc::new(TicketCell {
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn resolve(&self, result: StoreResult<()>) {
        *self.state.lock() = Some(result);
        self.cv.notify_all();
    }
}

/// A pending acknowledgement: resolves once the submitted frame's group
/// is committed (per the configured [`FsyncPolicy`]).
pub struct WalTicket(Arc<TicketCell>);

impl WalTicket {
    /// Blocks until the frame's group commits; `Err` if the WAL died
    /// (I/O error or injected crash) before that.
    pub fn wait(self) -> StoreResult<()> {
        let mut state = self.0.state.lock();
        while state.is_none() {
            state = self.0.cv.wait(state);
        }
        state.take().expect("ticket resolved")
    }
}

enum DoneKind {
    Ticket(Arc<TicketCell>),
    Callback(Box<dyn FnOnce(StoreResult<()>) + Send>),
    /// The tseries engine's ack, carried as it arrived with the outcome
    /// it resolves to: wrapping the already-boxed [`AppendAck`] in a
    /// `Callback` closure would cost a second allocation per frame,
    /// freed on the committer thread.
    Append(AppendAck, AppendOutcome),
}

/// A pending acknowledgement. Resolving consumes it; if one is ever
/// *dropped* unresolved — the committer panicking while unwinding through
/// an assembled group — the drop resolves the waiter with an error. A
/// crashed committer must wake its waiters, never strand them in
/// [`WalTicket::wait`].
struct Done(Option<DoneKind>);

impl Done {
    fn ticket(cell: Arc<TicketCell>) -> Done {
        Done(Some(DoneKind::Ticket(cell)))
    }

    fn callback(f: impl FnOnce(StoreResult<()>) + Send + 'static) -> Done {
        Done(Some(DoneKind::Callback(Box::new(f))))
    }

    fn append(ack: AppendAck, outcome: AppendOutcome) -> Done {
        Done(Some(DoneKind::Append(ack, outcome)))
    }

    fn resolve(mut self, result: &StoreResult<()>) {
        if let Some(kind) = self.0.take() {
            kind.resolve(result.clone());
        }
    }
}

impl DoneKind {
    fn resolve(self, result: StoreResult<()>) {
        match self {
            DoneKind::Ticket(cell) => cell.resolve(result),
            DoneKind::Callback(f) => f(result),
            DoneKind::Append(ack, outcome) => ack(result.map(|()| outcome)),
        }
    }
}

impl Drop for Done {
    fn drop(&mut self) {
        if let Some(kind) = self.0.take() {
            kind.resolve(Err(StoreError::Io(
                "wal committer died before resolving this ack".into(),
            )));
        }
    }
}

/// Frames `payload` on the calling thread.
fn framed(payload: &[u8]) -> FramedRecord {
    FramedRecord::build(payload.len(), |out| out.extend_from_slice(payload))
}

enum Op {
    /// A frame (empty payload = pure barrier). `force_sync` makes the
    /// group fsync regardless of policy.
    Frame {
        record: FramedRecord,
        force_sync: bool,
        done: Done,
    },
    /// Truncate the log to zero bytes, in queue order: frames submitted
    /// before the reset are written (then wiped), frames submitted
    /// after land in the fresh log. The caller must guarantee every
    /// earlier frame is superseded by a checkpoint elsewhere.
    Reset { done: Done },
}

struct Queue {
    items: VecDeque<Op>,
    /// True while the committer is parked on `work` with nothing to do.
    /// Set by the committer before it waits and cleared by the submitter
    /// that notifies it (or by the committer itself after a spurious
    /// wake-up) — always under this lock. A submitter therefore pays the
    /// wake-up syscall only when there is a parked thread to wake, and
    /// at most once per park.
    waiting: bool,
    shutdown: bool,
    /// Set when the committer died (a media error or a panic); every
    /// queued and future submission resolves with a clone of this.
    dead: Option<StoreError>,
}

struct Shared {
    q: Mutex<Queue>,
    work: Condvar,
    config: WalConfig,
    /// Bytes written to the log (observability + checkpoint triggers;
    /// Relaxed per the [`WalCounters`] ordering policy — never a
    /// durability decision).
    written_len: AtomicU64,
    counters: WalCounters,
    /// Teeth flag for the model suite: ack groups *before* the fsync,
    /// deliberately breaking ack ⇒ durable. Plain `std` atomic on
    /// purpose — it is test configuration, not a modeled sync point.
    ack_early: AtomicBool,
}

impl Shared {
    fn bump(&self, frames: u64, fsyncs: u64) {
        self.counters.groups.fetch_add(1, Ordering::Relaxed);
        self.counters.frames.fetch_add(frames, Ordering::Relaxed);
        self.counters.fsyncs.fetch_add(fsyncs, Ordering::Relaxed);
    }
}

// ------------------------------------------------------------------ media

/// The committer's view of durable media: positioned appends, fsync, and
/// truncation. Production logs run over a real [`File`]; model tests use
/// [`MemMedia`] so schedule exploration never touches a filesystem —
/// every write/fsync is a pure in-memory state transition the checker
/// can interleave.
pub trait WalMedia: Send + 'static {
    /// Writes `buf` at the current position, advancing it.
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()>;
    /// Makes everything written so far durable.
    fn sync_data(&mut self) -> std::io::Result<()>;
    /// Truncates (or zero-extends) to `len` bytes without moving the
    /// position.
    fn set_len(&mut self, len: u64) -> std::io::Result<()>;
    /// Moves the write position to `pos`.
    fn seek_to(&mut self, pos: u64) -> std::io::Result<()>;
}

impl WalMedia for File {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        Write::write_all(self, buf)
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        File::sync_data(self)
    }

    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        File::set_len(self, len)
    }

    fn seek_to(&mut self, pos: u64) -> std::io::Result<()> {
        self.seek(SeekFrom::Start(pos)).map(|_| ())
    }
}

/// In-memory [`WalMedia`] with an explicit durability watermark: only
/// bytes covered by a `sync_data` survive an emulated kill, exactly like
/// the page cache. Model tests read back [`MemMedia::durable`] to check
/// acked frames against what an fsync actually covered.
#[doc(hidden)]
#[derive(Clone, Default)]
pub struct MemMedia {
    inner: Arc<Mutex<MemMediaState>>,
}

#[derive(Default)]
struct MemMediaState {
    data: Vec<u8>,
    synced: usize,
    pos: usize,
}

impl MemMedia {
    /// Fresh, empty media.
    pub fn new() -> MemMedia {
        MemMedia::default()
    }

    /// The durable prefix: what the last `sync_data` made survivable.
    pub fn durable(&self) -> Vec<u8> {
        let st = self.inner.lock();
        st.data[..st.synced].to_vec()
    }

    /// Everything written, synced or not.
    pub fn written(&self) -> Vec<u8> {
        self.inner.lock().data.clone()
    }
}

impl WalMedia for MemMedia {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        let mut st = self.inner.lock();
        let pos = st.pos;
        let end = pos + buf.len();
        if st.data.len() < end {
            st.data.resize(end, 0);
        }
        st.data[pos..end].copy_from_slice(buf);
        st.pos = end;
        Ok(())
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        let mut st = self.inner.lock();
        st.synced = st.data.len();
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        let mut st = self.inner.lock();
        st.data.resize(len as usize, 0);
        st.synced = st.synced.min(len as usize);
        Ok(())
    }

    fn seek_to(&mut self, pos: u64) -> std::io::Result<()> {
        self.inner.lock().pos = pos as usize;
        Ok(())
    }
}

// ----------------------------------------------------------------- faults

/// The one fault armed on a [`GroupWal`], shared with its committer's
/// `FaultyMedia`. Plain `std` atomics, like `ack_early`: test
/// configuration, ordered before the targeted write by the queue mutex.
#[derive(Default)]
struct Faults {
    /// `(at_group << 3 | kind) + 1`, `kind` being a [`CrashPoint`] or
    /// [`PANIC`]; 0 when nothing is armed. The one load a disarmed
    /// committer pays per non-empty group.
    armed: AtomicU64,
    /// The [`CrashPoint`] that fired, plus one; 0 while none has.
    fired: AtomicU8,
}

/// The fault kind of [`GroupWal::arm_panic`].
const PANIC: u64 = 5;

/// The media every committer runs over: forwards to `inner`, and turns
/// an armed [`CrashPlan`] into the media event its [`CrashPoint`]
/// names, so an injected kill reaches the committer as an ordinary
/// `io::Error`.
struct FaultyMedia<M> {
    inner: M,
    faults: Arc<Faults>,
    /// Non-empty `write_all`s so far.
    groups: u64,
    /// Bytes written, and bytes the last `sync_data` covered (the
    /// committer only appends, and rewinds only after `set_len(0)`).
    len: u64,
    synced: u64,
    /// An fsync-side point armed on its group's write; it fires at the
    /// media's next operation (after syncing, if that is a `sync_data`).
    deferred: Option<CrashPoint>,
}

impl<M: WalMedia> FaultyMedia<M> {
    /// Emulates a process kill at `point`: bytes past the last sync are
    /// lost with the page cache, `torn` bytes of the in-flight group are
    /// left behind, and the operation fails.
    fn kill(&mut self, point: CrashPoint, torn: &[u8]) -> std::io::Result<()> {
        let _ = self.inner.set_len(self.synced);
        let _ = self.inner.seek_to(self.synced);
        if !torn.is_empty() {
            let _ = self.inner.write_all(torn);
        }
        self.faults.fired.store(point as u8 + 1, Ordering::Relaxed);
        Err(std::io::Error::other(format!(
            "injected crash at {point:?}"
        )))
    }

    fn fire_deferred(&mut self) -> std::io::Result<()> {
        match self.deferred {
            Some(point) => self.kill(point, &[]),
            None => Ok(()),
        }
    }
}

impl<M: WalMedia> WalMedia for FaultyMedia<M> {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.fire_deferred()?;
        let mut point = None;
        if !buf.is_empty() {
            let armed = self.faults.armed.load(Ordering::Relaxed);
            if let Some(word) = armed.checked_sub(1).filter(|w| w >> 3 == self.groups) {
                match word & 7 {
                    PANIC => panic!("injected wal committer panic at group {}", self.groups),
                    kind => point = Some(CrashPoint::ALL[kind as usize]),
                }
            }
            self.groups += 1;
        }
        match point {
            Some(p @ CrashPoint::BeforeGroupWrite) => return self.kill(p, &[]),
            Some(p @ CrashPoint::MidGroupWrite) => return self.kill(p, &buf[..buf.len() / 2]),
            _ => {}
        }
        self.inner.write_all(buf)?;
        self.len += buf.len() as u64;
        match point {
            Some(p @ CrashPoint::AfterWriteBeforeFsync) => self.kill(p, &[]),
            fsync_side => {
                self.deferred = fsync_side;
                Ok(())
            }
        }
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        self.inner.sync_data()?;
        self.synced = self.len;
        match self.deferred {
            Some(p @ CrashPoint::AfterFsyncBeforeAck) => self.kill(p, &[]),
            // AfterAck lets its group ack; the committer writes (if only
            // an empty buffer) before it syncs again, and that fails.
            _ => Ok(()),
        }
    }

    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.fire_deferred()?;
        self.inner.set_len(len)?;
        self.len = len;
        self.synced = self.synced.min(len);
        Ok(())
    }

    fn seek_to(&mut self, pos: u64) -> std::io::Result<()> {
        self.fire_deferred()?;
        self.inner.seek_to(pos)
    }
}

// ---------------------------------------------------------------- recovery

/// The committed frames [`GroupWal::open`] recovered: the clean prefix of
/// the log, read once into one buffer, and the range of each frame's
/// payload in it. Frames are borrowed in place, so recovering a log
/// allocates nothing per frame.
#[derive(Default)]
pub struct RecoveredLog {
    buf: Vec<u8>,
    frames: Vec<Range<usize>>,
}

impl RecoveredLog {
    /// Frames recovered.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when the log held no frame.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The last frame's payload.
    pub fn last(&self) -> Option<&[u8]> {
        self.frames.last().map(|r| &self.buf[r.clone()])
    }

    /// Every frame's payload, in append order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.frames.iter().map(|r| &self.buf[r.clone()])
    }
}

impl Index<usize> for RecoveredLog {
    type Output = [u8];

    fn index(&self, i: usize) -> &[u8] {
        &self.buf[self.frames[i].clone()]
    }
}

// --------------------------------------------------------------- GroupWal

/// The group-commit write-ahead log. See the module docs.
pub struct GroupWal {
    shared: Arc<Shared>,
    faults: Arc<Faults>,
    committer: Mutex<Option<mthread::JoinHandle<()>>>,
}

impl GroupWal {
    /// Opens (or creates) the log at `path`, recovering the committed
    /// frame prefix. A torn tail is truncated from the file; corruption
    /// before the tail is an error. Returns the WAL and the recovered
    /// frames in append order, in the one buffer the log was read into.
    pub fn open(
        path: impl Into<PathBuf>,
        config: WalConfig,
    ) -> StoreResult<(GroupWal, RecoveredLog)> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut frames = Vec::new();
        let clean = replay_framed(&buf, |payload| {
            // `payload` is a subslice of `buf`: keep its range only.
            let start = payload.as_ptr() as usize - buf.as_ptr() as usize;
            frames.push(start..start + payload.len());
            Ok(())
        })?;
        if clean < buf.len() {
            // Torn tail from a crash mid-group: drop it physically so
            // new appends never land after garbage bytes.
            file.set_len(clean as u64)?;
            buf.truncate(clean);
        }
        file.seek(SeekFrom::Start(clean as u64))?;

        let recovered = RecoveredLog { buf, frames };
        Ok((Self::launch(file, config, clean as u64)?, recovered))
    }

    /// Opens a WAL over caller-provided media with no recovery pass (the
    /// media must be empty). Model tests drive this with [`MemMedia`];
    /// real logs go through [`GroupWal::open`].
    #[doc(hidden)]
    pub fn open_with_media<M: WalMedia>(media: M, config: WalConfig) -> StoreResult<GroupWal> {
        Self::launch(media, config, 0)
    }

    fn launch<M: WalMedia>(media: M, config: WalConfig, durable: u64) -> StoreResult<GroupWal> {
        let shared = Arc::new(Shared {
            q: Mutex::new(Queue {
                items: VecDeque::new(),
                waiting: false,
                shutdown: false,
                dead: None,
            }),
            work: Condvar::new(),
            config,
            written_len: AtomicU64::new(durable),
            counters: WalCounters::default(),
            ack_early: AtomicBool::new(false),
        });
        let faults = Arc::new(Faults::default());
        let committer = {
            let shared = Arc::clone(&shared);
            let media = FaultyMedia {
                inner: media,
                faults: Arc::clone(&faults),
                groups: 0,
                len: durable,
                synced: durable,
                deferred: None,
            };
            mthread::Builder::new()
                .name("wal-committer".into())
                .spawn(move || run_committer(shared, media, durable))
                .map_err(|e| StoreError::Io(e.to_string()))?
        };
        Ok(GroupWal {
            shared,
            faults,
            committer: Mutex::new(Some(committer)),
        })
    }

    fn enqueue(&self, op: Op) {
        let mut q = self.shared.q.lock();
        // The liveness check must sit under the same lock that
        // publishes the op: an op pushed onto a dead queue strands its
        // waiter forever (no drain will ever run), and a check made
        // under an earlier lock acquisition leaves a window for the
        // committer to die in between. Found by the model checker
        // (`wal_committer_panic`).
        if let Some(err) = Self::dead_error(&q) {
            drop(q);
            let (Op::Frame { done, .. } | Op::Reset { done }) = op;
            done.resolve(&Err(err));
            return;
        }
        q.items.push_back(op);
        // No wake-up can be lost: the committer sets `waiting` and
        // releases this lock in one step (`Condvar::wait`), so either it
        // is parked and we see the flag, or it is running and will look
        // at `items` under this lock before it parks again.
        if q.waiting {
            q.waiting = false;
            self.shared.work.notify_one();
        }
    }

    fn enqueue_frame(&self, record: FramedRecord, force_sync: bool, done: Done) {
        self.enqueue(Op::Frame {
            record,
            force_sync,
            done,
        });
    }

    fn dead_error(q: &Queue) -> Option<StoreError> {
        if let Some(err) = &q.dead {
            return Some(err.clone());
        }
        if q.shutdown {
            return Some(StoreError::Io("wal is shut down".into()));
        }
        None
    }

    /// Queues `payload` for the next group; the returned ticket resolves
    /// when the group commits.
    pub fn submit(&self, payload: Bytes) -> WalTicket {
        let cell = TicketCell::new();
        self.enqueue_frame(framed(&payload), false, Done::ticket(Arc::clone(&cell)));
        WalTicket(cell)
    }

    /// Queues `payload` with a completion callback instead of a ticket.
    /// The callback runs on the committer thread, after the group
    /// commits, in submission order — it must be cheap and non-blocking
    /// (the same contract as a `ReplyTo` callback).
    pub fn submit_with(&self, payload: Bytes, done: impl FnOnce(StoreResult<()>) + Send + 'static) {
        self.enqueue_frame(framed(&payload), false, Done::callback(done));
    }

    /// [`GroupWal::submit_with`] for a record the caller encoded straight
    /// into its frame (see [`FramedRecord`]), saving the copy. The log
    /// bytes are identical to submitting the record's payload through
    /// `submit_with`.
    pub fn submit_framed(
        &self,
        record: FramedRecord,
        done: impl FnOnce(StoreResult<()>) + Send + 'static,
    ) {
        self.enqueue_frame(record, false, Done::callback(done));
    }

    /// [`GroupWal::submit_framed`] for the tseries engine: `ack` resolves
    /// to `outcome` once the record's group commits.
    pub(crate) fn submit_append(
        &self,
        record: FramedRecord,
        ack: AppendAck,
        outcome: AppendOutcome,
    ) {
        self.enqueue_frame(record, false, Done::append(ack, outcome));
    }

    /// Durability barrier: blocks until everything queued before this
    /// call is on durable media (forces an fsync even under
    /// [`FsyncPolicy::OnDemand`]).
    pub fn sync(&self) -> StoreResult<()> {
        let cell = TicketCell::new();
        self.enqueue_frame(framed(&[]), true, Done::ticket(Arc::clone(&cell)));
        WalTicket(cell).wait()
    }

    /// Truncates the log to zero bytes, in queue order: frames submitted
    /// before this call are written first and then wiped, so the caller
    /// must have checkpointed their effects elsewhere; frames submitted
    /// after land in the fresh log.
    pub fn reset(&self) -> StoreResult<()> {
        let cell = TicketCell::new();
        self.enqueue(Op::Reset {
            done: Done::ticket(Arc::clone(&cell)),
        });
        WalTicket(cell).wait()
    }

    /// Bytes currently in the log file.
    pub fn len(&self) -> u64 {
        self.shared.written_len.load(Ordering::Relaxed)
    }

    /// True when the log holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arms an injected crash (test instrumentation; see [`CrashPlan`]),
    /// replacing any armed fault.
    pub fn arm_crash(&self, plan: CrashPlan) {
        self.arm(plan.at_group, plan.point as u64);
    }

    /// Arms an injected committer *panic* when it writes non-empty group
    /// `at_group` — the crashed-committer path, where every pending ack
    /// must resolve with an error rather than hang (test
    /// instrumentation; the model suite and `wal_panic.rs` drive this).
    #[doc(hidden)]
    pub fn arm_panic(&self, at_group: u64) {
        self.arm(at_group, PANIC);
    }

    fn arm(&self, at_group: u64, kind: u64) {
        let word = (at_group << 3 | kind) + 1;
        self.faults.armed.store(word, Ordering::Relaxed);
    }

    /// Teeth hook for the model suite: makes the committer resolve acks
    /// *before* the group fsync, deliberately breaking the ack ⇒ durable
    /// contract so a checker run can prove it catches the missing edge.
    /// Never call outside tests.
    #[doc(hidden)]
    pub fn ack_before_fsync_for_test(&self) {
        self.shared.ack_early.store(true, Ordering::Relaxed);
    }

    /// The injected crash point that fired, if any.
    pub fn injected_crash(&self) -> Option<CrashPoint> {
        match self.faults.fired.load(Ordering::Relaxed) {
            0 => None,
            n => Some(CrashPoint::ALL[n as usize - 1]),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WalStatsSnapshot {
        WalStatsSnapshot {
            groups: self.shared.counters.groups.load(Ordering::Relaxed),
            frames: self.shared.counters.frames.load(Ordering::Relaxed),
            fsyncs: self.shared.counters.fsyncs.load(Ordering::Relaxed),
        }
    }
}

impl Drop for GroupWal {
    fn drop(&mut self) {
        {
            let mut q = self.shared.q.lock();
            q.shutdown = true;
            self.shared.work.notify_one();
        }
        if let Some(handle) = self.committer.lock().take() {
            let _ = handle.join();
        }
    }
}

// --------------------------------------------------------------- committer

/// The group being assembled. `frames` and `buf` keep their capacity
/// from group to group.
#[derive(Default)]
struct Group {
    frames: Vec<(FramedRecord, Done)>,
    force_sync: bool,
    /// The coalesced bytes of the group's records.
    buf: Vec<u8>,
}

/// Committer thread entry: runs the commit loop, and if it panics
/// (injected via [`GroupWal::arm_panic`], or a real bug) marks the WAL
/// dead and resolves every queued waiter with an error instead of
/// stranding them. Acks in the group being written at the panic unwind
/// through [`Done`]'s drop, which resolves them the same way.
fn run_committer<M: WalMedia>(shared: Arc<Shared>, media: M, durable: u64) {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe({
        let shared = Arc::clone(&shared);
        move || committer_loop(shared, media, durable)
    }));
    if caught.is_err() {
        let err = StoreError::Io("wal committer panicked; pending acks lost".into());
        let len = shared.written_len.load(Ordering::Relaxed);
        die(&shared, len, err, Vec::new());
    }
}

/// The committer thread: assemble group → coalesced write → fsync →
/// resolve acks. Any media error ends it through [`die`].
fn committer_loop<M: WalMedia>(shared: Arc<Shared>, mut file: M, mut durable: u64) {
    let mut written = durable;
    let fsync_policy = shared.config.fsync_policy;
    let mut group = Group::default();
    loop {
        // ---- assemble the next group (or reset op) under the queue lock
        let mut reset: Option<Done> = None;
        group.force_sync = false;
        group.buf.clear();
        {
            let mut q = shared.q.lock();
            loop {
                if !q.items.is_empty() {
                    break;
                }
                if q.shutdown {
                    return;
                }
                q.waiting = true;
                q = shared.work.wait(q);
                // Whoever notified cleared it already; a spurious
                // wake-up did not.
                q.waiting = false;
            }
            if let Some(Op::Reset { .. }) = q.items.front() {
                let Some(Op::Reset { done }) = q.items.pop_front() else {
                    unreachable!()
                };
                reset = Some(done);
            } else {
                while group.frames.len() < MAX_GROUP_FRAMES {
                    match q.items.front() {
                        Some(Op::Frame { .. }) => {
                            let Some(Op::Frame {
                                record,
                                force_sync,
                                done,
                            }) = q.items.pop_front()
                            else {
                                unreachable!()
                            };
                            group.force_sync |= force_sync;
                            group.frames.push((record, done));
                        }
                        // A reset boundary ends the group; None ends
                        // the drain.
                        Some(Op::Reset { .. }) | None => break,
                    }
                }
            }
        }

        // ---- reset op: truncate, in queue order
        if let Some(done) = reset {
            match file.set_len(0).and_then(|()| file.seek_to(0)) {
                Ok(()) => {
                    written = 0;
                    durable = 0;
                    shared.written_len.store(0, Ordering::Relaxed);
                    done.resolve(&Ok(()));
                }
                Err(e) => {
                    die(&shared, durable, e.into(), vec![done]);
                    return;
                }
            }
            continue;
        }

        // ---- coalesce
        let mut frame_count = 0u64;
        for (record, _) in &group.frames {
            // A pure barrier (empty payload) resolves in submission
            // order and writes nothing.
            if record.payload().is_empty() {
                continue;
            }
            group.buf.extend_from_slice(record.as_bytes());
            frame_count += 1;
        }
        let buf = &group.buf;

        // ---- write, fsync
        let io = (|| -> std::io::Result<()> {
            file.write_all(buf)?;
            written += buf.len() as u64;
            shared.written_len.store(written, Ordering::Relaxed);
            if shared.ack_early.load(Ordering::Relaxed) {
                // Teeth for the model suite: resolve acks here, before
                // the fsync, violating ack ⇒ durable on purpose so the
                // checker can prove it notices the missing edge.
                for (_, done) in group.frames.drain(..) {
                    done.resolve(&Ok(()));
                }
            }
            let want_sync = (fsync_policy == FsyncPolicy::PerGroup && !buf.is_empty())
                || (group.force_sync && durable < written);
            let mut fsyncs = 0;
            if want_sync {
                file.sync_data()?;
                durable = written;
                fsyncs = 1;
            }
            if frame_count > 0 {
                shared.bump(frame_count, fsyncs);
            } else if fsyncs > 0 {
                shared.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        })();
        if let Err(e) = io {
            let pending = group.frames.drain(..).map(|(_, done)| done).collect();
            die(&shared, durable, e.into(), pending);
            return;
        }

        // ---- ack
        for (_, done) in group.frames.drain(..) {
            done.resolve(&Ok(()));
        }
    }
}

/// Marks the WAL dead, reports `len` as its length from now on (the
/// committer counts bytes past the last sync as lost), and errors out
/// every pending and queued waiter.
fn die(shared: &Shared, len: u64, err: StoreError, pending: Vec<Done>) {
    shared.written_len.store(len, Ordering::Relaxed);
    let drained: Vec<Op> = {
        let mut q = shared.q.lock();
        q.dead = Some(err.clone());
        q.items.drain(..).collect()
    };
    let failed = Err(err);
    let queued = drained
        .into_iter()
        .map(|(Op::Frame { done, .. } | Op::Reset { done })| done);
    for done in pending.into_iter().chain(queued) {
        done.resolve(&failed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aodb-groupwal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("wal.log")
    }

    fn open(path: &PathBuf) -> (GroupWal, RecoveredLog) {
        GroupWal::open(path, WalConfig::default()).unwrap()
    }

    #[test]
    fn append_and_recover_in_order() {
        let path = temp_wal("order");
        {
            let (wal, recovered) = open(&path);
            assert!(recovered.is_empty());
            for i in 0..50u32 {
                wal.submit(Bytes::from(i.to_le_bytes().to_vec()))
                    .wait()
                    .unwrap();
            }
        }
        let (_, recovered) = open(&path);
        assert_eq!(recovered.len(), 50);
        for (i, frame) in recovered.iter().enumerate() {
            assert_eq!(frame, (i as u32).to_le_bytes());
        }
    }

    #[test]
    fn concurrent_submitters_coalesce() {
        let path = temp_wal("coalesce");
        let (wal, _) = open(&path);
        let wal = Arc::new(wal);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        wal.submit(Bytes::from(format!("{t}:{i}"))).wait().unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.frames, 400);
        assert!(
            stats.groups <= stats.frames,
            "groups {} > frames {}",
            stats.groups,
            stats.frames
        );
        // Per-group fsync: exactly one per group.
        assert_eq!(stats.fsyncs, stats.groups);
        drop(wal);
        let (_, recovered) = open(&path);
        assert_eq!(recovered.len(), 400);
    }

    #[test]
    fn on_demand_skips_fsync_until_barrier() {
        let path = temp_wal("ondemand");
        let config = WalConfig {
            fsync_policy: FsyncPolicy::OnDemand,
        };
        let (wal, _) = GroupWal::open(&path, config).unwrap();
        for _ in 0..10 {
            wal.submit(Bytes::from_static(b"x")).wait().unwrap();
        }
        assert_eq!(wal.stats().fsyncs, 0);
        wal.sync().unwrap();
        assert_eq!(wal.stats().fsyncs, 1);
    }

    #[test]
    fn reset_truncates_in_queue_order() {
        let path = temp_wal("reset");
        let (wal, _) = open(&path);
        wal.submit(Bytes::from_static(b"before")).wait().unwrap();
        assert!(!wal.is_empty());
        wal.reset().unwrap();
        assert_eq!(wal.len(), 0);
        wal.submit(Bytes::from_static(b"after")).wait().unwrap();
        drop(wal);
        let (_, recovered) = open(&path);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].as_ref(), b"after");
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = temp_wal("torn");
        {
            let (wal, _) = open(&path);
            wal.submit(Bytes::from_static(b"committed")).wait().unwrap();
            wal.submit(Bytes::from_static(b"torn-away")).wait().unwrap();
        }
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();
        let (wal, recovered) = open(&path);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].as_ref(), b"committed");
        // The torn bytes are physically gone: appends land cleanly.
        wal.submit(Bytes::from_static(b"fresh")).wait().unwrap();
        drop(wal);
        let (_, recovered) = open(&path);
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[1].as_ref(), b"fresh");
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let path = temp_wal("corrupt");
        {
            let (wal, _) = open(&path);
            wal.submit(Bytes::from_static(b"aaaa")).wait().unwrap();
            wal.submit(Bytes::from_static(b"bbbb")).wait().unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        data[9] ^= 0xA5; // payload byte of the first record
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            GroupWal::open(&path, WalConfig::default()),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn crash_points_respect_ack_durability() {
        for point in CrashPoint::ALL {
            let path = temp_wal(&format!("crash-{point:?}"));
            let acked: Vec<u32>;
            {
                let (wal, _) = open(&path);
                // Commit a couple of groups first, then arm the crash.
                for i in 0..3u32 {
                    wal.submit(Bytes::from(i.to_le_bytes().to_vec()))
                        .wait()
                        .unwrap();
                }
                wal.arm_crash(CrashPlan { point, at_group: 3 });
                let tickets: Vec<(u32, WalTicket)> = (3..6u32)
                    .map(|i| (i, wal.submit(Bytes::from(i.to_le_bytes().to_vec()))))
                    .collect();
                acked = tickets
                    .into_iter()
                    .filter_map(|(i, t)| t.wait().ok().map(|_| i))
                    .collect();
                // Post-crash submissions fail. Under AfterAck the crashing
                // group may have taken every frame, and then this write is
                // the media operation the kill lands on.
                assert!(wal.submit(Bytes::from_static(b"late")).wait().is_err());
                assert_eq!(wal.injected_crash(), Some(point));
            }
            let (_, recovered) = open(&path);
            let frames: Vec<u32> = recovered
                .iter()
                .map(|f| u32::from_le_bytes(f.as_ref().try_into().unwrap()))
                .collect();
            // acked ⇒ durable.
            for i in &acked {
                assert!(
                    frames.contains(i),
                    "{point:?}: acked frame {i} lost; recovered {frames:?}"
                );
            }
            // Recovered is a prefix of submission order.
            let expected: Vec<u32> = (0..frames.len() as u32).collect();
            assert_eq!(
                frames, expected,
                "{point:?}: recovery is not a clean prefix"
            );
            // The pre-crash groups survive unconditionally.
            assert!(frames.len() >= 3, "{point:?}: committed prefix lost");
            // The committer may split the three submissions across
            // groups, so only the crashing group's membership is
            // deterministic-free; the ack direction still is not.
            match point {
                CrashPoint::AfterAck => {
                    assert!(!acked.is_empty(), "AfterAck must ack its group")
                }
                _ => assert!(acked.is_empty(), "{point:?} must not ack its group"),
            }
        }
    }

    #[test]
    fn callbacks_run_in_submission_order() {
        let path = temp_wal("callbacks");
        let (wal, _) = open(&path);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..20u32 {
            let order = Arc::clone(&order);
            wal.submit_with(Bytes::from(i.to_le_bytes().to_vec()), move |r| {
                r.unwrap();
                order.lock().push(i);
            });
        }
        wal.sync().unwrap();
        let got = order.lock().clone();
        assert_eq!(got, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_framed_record_is_a_barrier_like_an_empty_payload() {
        let path = temp_wal("framed-barrier");
        let (wal, _) = open(&path);
        let order = Arc::new(Mutex::new(Vec::new()));
        let note = |tag: &'static str| {
            let order = Arc::clone(&order);
            move |r: StoreResult<()>| {
                r.unwrap();
                order.lock().push(tag);
            }
        };
        wal.submit_framed(FramedRecord::build(1, |out| out.push(b'x')), note("frame"));
        wal.submit_framed(FramedRecord::build(0, |_| {}), note("barrier"));
        wal.sync().unwrap();
        assert_eq!(*order.lock(), ["frame", "barrier"]);
        assert_eq!(wal.len(), 9, "the barrier leaves no record");
        assert_eq!(wal.stats().frames, 1);
        drop(wal);
        let (_, recovered) = open(&path);
        assert_eq!(recovered.len(), 1);
    }

    #[test]
    fn stats_count_groups_frames_and_fsyncs() {
        let path = temp_wal("stats");
        let (wal, _) = open(&path);
        for _ in 0..5 {
            wal.submit(Bytes::from_static(b"x")).wait().unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.frames, 5);
        assert!(stats.groups >= 1);
        assert_eq!(stats.fsyncs, stats.groups);
    }
}

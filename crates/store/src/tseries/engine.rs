//! The time-series storage engine: per-series sealed blocks + mutable
//! tail, durable through any [`StateStore`] backing.
//!
//! ## Data layout in the backing store
//!
//! Each series owns one partition of the `"tseries"` namespace:
//!
//! * `tseries / <series> / b<seq:08>` — one immutable sealed block
//!   (the [`codec`](crate::tseries::codec) byte format).
//! * `tseries / <series> / tail` — the **tail record**: the series'
//!   single durable commit point, holding the caller's metadata blob,
//!   the compressed image of the open tail block, the count of sealed
//!   blocks, and any sealed block whose own record is not yet written.
//!
//! ## Commit protocol (why appends are crash-atomic)
//!
//! Every append stages its writes in memory, then writes the **tail
//! record first**. That single `put` commits the batch: it carries the
//! new tail bits, the caller's metadata (ingest dedup watermarks ride
//! here — atomically with the points they admit), and — when the append
//! sealed the tail — the freshly sealed block inline as a *pending*
//! entry. Only after the tail record lands are sealed blocks written to
//! their own keys and unpinned from the next tail record.
//!
//! Recovery therefore trusts the tail record alone: a crash between the
//! tail commit and a pending block's own write replays the block out of
//! the tail record; a crash before the tail commit simply loses the
//! unacknowledged batch (the client retransmits, and the metadata — the
//! dedup watermark — still reflects the last acknowledged batch, so the
//! retransmission is admitted exactly once).
//!
//! ## Concurrency
//!
//! A series has exactly one writer — the actor that owns it — which is
//! what makes the append-only tail safe (the paper's per-actor ownership
//! argument). The engine still locks per series so concurrent *readers*
//! and writers of different series never contend, and no guard is ever
//! held across backing-store I/O: mutations are staged under the lock
//! and written after it drops (see DESIGN.md §11 on the
//! `compact_locked` bug class this avoids).

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::api::{Key, StateStore, StoreError, StoreResult};
use crate::codec::{FramedRecord, Reader, Writer};
use crate::tseries::codec::{decode_block, decode_index, BlockIndex, PointCompressor};
use crate::wal::{FsyncPolicy, GroupWal, RecoveredLog, WalConfig, WalStatsSnapshot};

/// Storage namespace of every series record.
const SERIES_NAMESPACE: &str = "tseries";
/// Sort key of the tail record (sorts after every `b<seq>` block key).
const TAIL_SORT: &str = "tail";
/// Magic prefix of a tail record; the last byte is the format version.
// aodb-schema: layout(TST1) = magic[4] sealed_blocks:u64 sealed_points:u64 meta_len:u32 meta pending_count:u32 (seq:u64 len:u32 bytes)* tail_len:u32 tail_block crc32:u32
const TAIL_MAGIC: &[u8; 4] = b"TST1";
/// Magic prefix of a WAL delta frame (group-commit mode); the last byte
/// is the format version. The frame rides inside a [`GroupWal`] record,
/// whose CRC covers it — the delta carries no checksum of its own.
// aodb-schema: layout(TSW1) = magic[4] base_points:u64 series_len:u32 series meta_len:u32 meta count:u32 (ts:u64 value_bits:u64)*
const TS_WAL_MAGIC: &[u8; 4] = b"TSW1";
/// WAL size that triggers a checkpoint (tail records for every dirty
/// series + WAL reset) in group-commit mode.
const TS_WAL_CHECKPOINT_BYTES: u64 = 8 * 1024 * 1024;

fn block_sort(seq: u64) -> String {
    format!("b{seq:08}")
}

fn block_key(series: &str, seq: u64) -> Key {
    Key::with_sort(SERIES_NAMESPACE, series, &block_sort(seq))
}

fn tail_key(series: &str) -> Key {
    Key::with_sort(SERIES_NAMESPACE, series, TAIL_SORT)
}

/// Configuration of a [`TsStore`].
#[derive(Clone, Copy, Debug)]
pub struct TsConfig {
    /// Point count that seals the tail into an immutable block.
    pub seal_points: u32,
    /// Compressed tail size (bytes) that seals regardless of count.
    pub seal_bytes: usize,
    /// Tail *data-time* span (max_ts − min_ts, in ms) that seals the
    /// block — age is measured on the points' own clock, never the wall
    /// clock, so sealing stays deterministic under replay.
    pub seal_age_ms: u64,
}

impl Default for TsConfig {
    /// 512-point / 16 KiB / 1-hour seal triggers.
    ///
    /// Without a WAL each append rewrites the whole tail record, so
    /// per-append cost is O(tail bytes) — a small seal threshold keeps
    /// that rewrite cheap, while the fixed per-block overhead (44-byte
    /// header + CRC) stays under 0.1 bytes/point even at 512 points per
    /// block.
    fn default() -> Self {
        TsConfig {
            seal_points: 512,
            seal_bytes: 16 * 1024,
            seal_age_ms: 3_600_000,
        }
    }
}

impl TsConfig {
    /// Small-block configuration for tests: seal every `points` points.
    pub fn sealing_every(points: u32) -> Self {
        TsConfig {
            seal_points: points.max(1),
            ..TsConfig::default()
        }
    }
}

/// Outcome of one append.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Points appended (all of them — the engine never drops points).
    pub appended: u32,
    /// Blocks sealed by this append (0 on the common fast path).
    pub sealed: u32,
}

/// What recovery found for a series.
#[derive(Clone, Debug, Default)]
pub struct SeriesRecovery {
    /// The caller metadata blob of the last *applied* append (empty for
    /// a fresh series). Applied is not durable: an append sets it under
    /// the series lock before it commits — before the tail-record put
    /// without a WAL, before its delta's group commit with one — and an
    /// append whose commit fails leaves it set until a reopen, which
    /// reads the last committed one back.
    pub meta: Bytes,
    /// Total applied points (sealed + tail), as of the same append.
    pub points: u64,
}

/// Per-series storage footprint and shape, for benchmarks and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeriesStats {
    /// Sealed block count.
    pub sealed_blocks: u64,
    /// Points across sealed blocks.
    pub sealed_points: u64,
    /// Bytes across sealed blocks (compressed, incl. headers).
    pub sealed_bytes: u64,
    /// Points in the open tail.
    pub tail_points: u64,
    /// Compressed payload bytes of the open tail.
    pub tail_bytes: u64,
}

/// Completion callback of [`SeriesStore::append_batch_async`]. Runs on
/// whatever thread resolves durability (possibly a WAL committer
/// thread), so it must be cheap and non-blocking — the same contract as
/// a `ReplyTo` callback.
pub type AppendAck = Box<dyn FnOnce(StoreResult<AppendOutcome>) + Send>;

/// The time-series storage seam: append-oriented, range-scannable,
/// crash-recoverable. [`StateStore`] remains the seam for actor *state
/// blobs*; this is the seam for high-rate *point streams*.
pub trait SeriesStore: Send + Sync + 'static {
    /// Appends a batch of `(ts_ms, value)` points and commits `meta`
    /// (an opaque caller blob — e.g. dedup watermarks + running stats)
    /// atomically with them.
    fn append_batch(
        &self,
        series: &str,
        points: &[(u64, f64)],
        meta: &[u8],
    ) -> StoreResult<AppendOutcome>;

    /// Like [`SeriesStore::append_batch`], but resolves the result
    /// through `ack` instead of blocking. An engine doing group commit
    /// overrides this so the calling turn can hand off its reply and
    /// return — acks then resolve post-durability without a worker
    /// thread parked per batch. Default: synchronous append, immediate
    /// ack.
    fn append_batch_async(&self, series: &str, points: &[(u64, f64)], meta: &[u8], ack: AppendAck) {
        ack(self.append_batch(series, points, meta));
    }

    /// Resolves `ack` once every append submitted *before* this call is
    /// at the engine's current durability horizon — without writing
    /// anything. A group-commit engine queues the ack behind the
    /// in-flight frames (callbacks resolve in submission order), so a
    /// caller can ack a *duplicate-reject* only after the original
    /// append it relies on is committed. Default: synchronous engines
    /// commit on append, so the barrier is already satisfied.
    fn barrier_async(&self, ack: AppendAck) {
        ack(Ok(AppendOutcome::default()));
    }

    /// All points with `from_ms ≤ ts ≤ to_ms`, in append order, at most
    /// `limit` of them (0 = unlimited). Sealed blocks whose sparse index
    /// misses the range are skipped without decompression.
    fn scan_range(
        &self,
        series: &str,
        from_ms: u64,
        to_ms: u64,
        limit: usize,
    ) -> StoreResult<Vec<(u64, f64)>>;

    /// The points at append positions `position..`, in append order, at
    /// most `limit` of them (0 = unlimited); nothing when `position` is
    /// at or past the end. A reader that remembers how many points it
    /// has consumed reads only what was appended since. Default: the
    /// full append-order scan, skipped to `position`.
    fn scan_from(&self, series: &str, position: u64, limit: usize) -> StoreResult<Vec<(u64, f64)>> {
        let mut points = self.scan_range(series, 0, u64::MAX, 0)?;
        let skip = usize::try_from(position).map_or(points.len(), |p| p.min(points.len()));
        points.drain(..skip);
        if limit != 0 {
            points.truncate(limit);
        }
        Ok(points)
    }

    /// Force-seals the open tail into an immutable block (no-op when the
    /// tail is empty).
    fn seal(&self, series: &str) -> StoreResult<()>;

    /// Loads the series from the backing store (idempotent; appends and
    /// scans also recover lazily) and returns the metadata of the last
    /// applied append, which may not be durable yet (see
    /// [`SeriesRecovery::meta`]), and the point count.
    fn recover(&self, series: &str) -> StoreResult<SeriesRecovery>;
}

struct SealedBlock {
    index: BlockIndex,
    bytes: Bytes,
}

#[derive(Default)]
struct Series {
    recovered: bool,
    tail: PointCompressor,
    sealed: Vec<SealedBlock>,
    sealed_points: u64,
    /// The caller's metadata blob of the last append. A plain buffer,
    /// overwritten in place: it changes on every append.
    meta: Vec<u8>,
    /// Sealed blocks committed via the tail record whose own block
    /// record is not yet confirmed written; they ride every tail record
    /// until unpinned.
    pending: Vec<(u64, Bytes)>,
    /// Group-commit mode: this series is in [`WalState::dirty`]. Lets a
    /// delta append skip the global set (a mutex and a `String`) unless
    /// it is the first since the last tail record. Changed only under
    /// this entry's lock; whoever sets it inserts into the set before
    /// releasing that lock, so a set bit always has its set entry — the
    /// direction a checkpoint depends on.
    dirty: bool,
}

impl Series {
    fn set_meta(&mut self, meta: &[u8]) {
        self.meta.clear();
        self.meta.extend_from_slice(meta);
    }
}

/// Records staged under the series lock, written after it drops (see
/// [`TsStore::write_staged`]).
struct StagedWrites {
    tail: (Key, Bytes),
    blocks: Vec<(u64, Key, Bytes)>,
}

impl StagedWrites {
    /// The tail record of `s` and the records of its pending blocks.
    fn of(series: &str, s: &Series) -> StagedWrites {
        StagedWrites {
            tail: (tail_key(series), Bytes::from(encode_tail_record(s))),
            blocks: s
                .pending
                .iter()
                .map(|(seq, bytes)| (*seq, block_key(series, *seq), bytes.clone()))
                .collect(),
        }
    }
}

/// WAL deltas recovered at open and not yet applied: the log as
/// [`GroupWal::open`] read it, and per series the indices of its frames
/// in that log, in append order.
#[derive(Default)]
struct Replay {
    log: Arc<RecoveredLog>,
    frames: HashMap<String, Vec<usize>>,
}

impl Replay {
    /// Takes `series`' frames, with a handle on the log to apply them
    /// from. The last take also gives up the replay's own handle, so the
    /// log's buffer is freed once the last series applying from it is
    /// done.
    fn take(&mut self, series: &str) -> Option<(Arc<RecoveredLog>, Vec<usize>)> {
        let frames = self.frames.remove(series)?;
        let log = if self.frames.is_empty() {
            std::mem::take(self).log
        } else {
            Arc::clone(&self.log)
        };
        Some((log, frames))
    }
}

/// Group-commit state of a [`TsStore`] opened via [`TsStore::with_wal`].
struct WalState {
    wal: GroupWal,
    /// Appends hold this for read; a checkpoint holds it for write so
    /// the tail-record sweep + WAL reset see no append in flight.
    rotation: RwLock<()>,
    /// Series with WAL deltas not yet covered by a durable tail record;
    /// the checkpoint writes their tail records before resetting.
    /// Mirrored per series in [`Series::dirty`]. Lock order: a series'
    /// entry lock, then this.
    dirty: Mutex<HashSet<String>>,
    /// Deltas recovered from the WAL, taken on each series' first touch
    /// (under its entry lock, so a racing discarded load can never eat
    /// them) and applied after this lock drops.
    replay: Mutex<Replay>,
    checkpoint_bytes: u64,
    fsync: FsyncPolicy,
}

/// The columnar time-series engine.
pub struct TsStore {
    backing: Arc<dyn StateStore>,
    config: TsConfig,
    series: RwLock<HashMap<String, Arc<Mutex<Series>>>>,
    wal: Option<WalState>,
}

impl TsStore {
    /// Engine over `backing` with `config`.
    pub fn new(backing: Arc<dyn StateStore>, config: TsConfig) -> Self {
        TsStore {
            backing,
            config,
            series: RwLock::new(HashMap::new()),
            wal: None,
        }
    }

    /// Engine with the default configuration.
    pub fn with_defaults(backing: Arc<dyn StateStore>) -> Self {
        TsStore::new(backing, TsConfig::default())
    }

    /// Engine in **group-commit mode**: appends write a compact delta
    /// frame to a [`GroupWal`] at `wal_path` instead of rewriting the
    /// whole tail record, and their acks resolve when the delta's group
    /// commits — one coalesced write + one fsync amortized over every
    /// concurrently-appending series. Tail records are still written at
    /// seal time (unsynced: the sealing append's delta is what its ack
    /// waits for) and at checkpoints (when the WAL outgrows its
    /// threshold it is reset after a tail-record sweep over the dirty
    /// series and a sync of the backing store), so the backing store
    /// remains the source of truth and the WAL stays short.
    ///
    /// Recovery replays WAL deltas on top of the backing store, using
    /// each delta's durable-point watermark to skip those a later tail
    /// record already covers — applying each committed append exactly
    /// once. The log is read once; every delta in it is checked here,
    /// where it lies, and applied from the same buffer at its series'
    /// first touch.
    pub fn with_wal(
        backing: Arc<dyn StateStore>,
        config: TsConfig,
        wal_path: impl Into<PathBuf>,
        wal_config: WalConfig,
    ) -> StoreResult<Self> {
        let (wal, log) = GroupWal::open(wal_path, wal_config)?;
        let mut frames: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, frame) in log.iter().enumerate() {
            // The decode checks every field of the delta, so a malformed
            // one fails the open, never its series' first touch. Probe
            // with the borrowed name: a series' key is allocated once, on
            // its first frame, not once per frame.
            let series = decode_wal_delta(frame)?.series;
            match frames.get_mut(series) {
                Some(indices) => indices.push(i),
                None => {
                    frames.insert(series.to_owned(), vec![i]);
                }
            }
        }
        Ok(TsStore {
            backing,
            config,
            series: RwLock::new(HashMap::new()),
            wal: Some(WalState {
                wal,
                rotation: RwLock::new(()),
                dirty: Mutex::new(frames.keys().cloned().collect()),
                replay: Mutex::new(Replay {
                    log: Arc::new(log),
                    frames,
                }),
                checkpoint_bytes: TS_WAL_CHECKPOINT_BYTES,
                fsync: wal_config.fsync_policy,
            }),
        })
    }

    /// The group-commit WAL, when enabled (chaos tests use this to arm
    /// crash points and read counters).
    pub fn wal(&self) -> Option<&GroupWal> {
        self.wal.as_ref().map(|ws| &ws.wal)
    }

    /// Group-commit counters (zeros when not in group-commit mode).
    pub fn wal_stats(&self) -> WalStatsSnapshot {
        self.wal
            .as_ref()
            .map(|ws| ws.wal.stats())
            .unwrap_or_default()
    }

    fn entry(&self, series: &str) -> Arc<Mutex<Series>> {
        if let Some(entry) = self.series.read().get(series) {
            return Arc::clone(entry);
        }
        Arc::clone(self.series.write().entry(series.to_string()).or_default())
    }

    /// Ensures `entry` reflects the backing store. All backing I/O runs
    /// with no guard held; the loaded image is installed afterwards (the
    /// single-writer contract makes the unlocked window benign, and a
    /// racing reader re-checks `recovered` under the lock).
    fn ensure_recovered(&self, series: &str, entry: &Arc<Mutex<Series>>) -> StoreResult<()> {
        if entry.lock().recovered {
            return Ok(());
        }
        let loaded = self.load_series(series)?;
        let mut s = entry.lock();
        if !s.recovered {
            *s = loaded;
            // Group-commit mode: replay WAL deltas on top of the backing
            // image. Taken under the entry lock so a racing load that
            // loses the install race cannot eat them, and applied with
            // the replay lock released, so series recover in parallel.
            if let Some(ws) = &self.wal {
                let taken = ws.replay.lock().take(series);
                if let Some((log, frames)) = taken {
                    // `with_wal` put every replayed series in the set.
                    s.dirty = true;
                    apply_wal_deltas(series, &mut s, &log, &frames)?;
                }
            }
        }
        Ok(())
    }

    /// Reads a series image from the backing store (no locks held).
    fn load_series(&self, series: &str) -> StoreResult<Series> {
        let mut s = Series {
            recovered: true,
            ..Series::default()
        };
        let Some(record) = self.backing.get(&tail_key(series))? else {
            return Ok(s); // fresh series (blocks are written only after
                          // a tail record exists, so nothing else can)
        };
        let tail = decode_tail_record(&record)?;
        s.meta = tail.meta.to_vec();
        s.sealed_points = tail.sealed_points;

        // Materialize every committed block: its own record when the
        // post-commit write landed, the inline pending copy otherwise.
        let mut repair: Vec<(Key, Bytes)> = Vec::new();
        for seq in 0..tail.sealed_blocks {
            let bytes = match self.backing.get(&block_key(series, seq))? {
                Some(bytes) => bytes,
                None => {
                    let pending = tail
                        .pending
                        .iter()
                        .find(|(s, _)| *s == seq)
                        .map(|(_, b)| Bytes::copy_from_slice(b))
                        .ok_or_else(|| {
                            StoreError::Corrupt(format!(
                                "tseries {series}: committed block {seq} has neither a \
                                 record nor a pending copy"
                            ))
                        })?;
                    repair.push((block_key(series, seq), pending.clone()));
                    pending
                }
            };
            let index = decode_index(&bytes)?;
            s.sealed.push(SealedBlock { index, bytes });
        }

        // Resume the open tail from its compressed image, borrowed from
        // the record: the payload is copied once and the codec state
        // rebuilt by one decoding walk, so the compressor lands in the
        // exact pre-crash state without re-compressing a point.
        s.tail = PointCompressor::resume(tail.tail_block)?;

        // Finish any interrupted post-commit block writes now, so the
        // next tail record no longer needs to carry them.
        for (key, bytes) in repair {
            self.backing.put(&key, bytes)?;
        }
        Ok(s)
    }

    /// Applies one append to `s`, whose lock the caller holds: the
    /// points (sealing a block whenever one is due), the forced seal,
    /// the metadata.
    fn stage(
        &self,
        s: &mut Series,
        points: &[(u64, f64)],
        meta: Option<&[u8]>,
        force_seal: bool,
    ) -> AppendOutcome {
        let mut outcome = AppendOutcome {
            appended: points.len() as u32,
            sealed: 0,
        };
        for &(ts, v) in points {
            s.tail.append(ts, v);
            if self.should_seal(&s.tail) {
                seal_tail(s);
                outcome.sealed += 1;
            }
        }
        if force_seal && s.tail.count() > 0 {
            seal_tail(s);
            outcome.sealed += 1;
        }
        if let Some(meta) = meta {
            s.set_meta(meta);
        }
        outcome
    }

    /// Backing I/O for staged records — no guard held. The tail record
    /// goes first (it carries the blocks as pending); pending blocks are
    /// unpinned only once their own records land (a failed block write
    /// stays pending and rides the next tail record, so it can never be
    /// lost).
    fn write_staged(&self, entry: &Mutex<Series>, staged: StagedWrites) -> StoreResult<()> {
        let (key, record) = staged.tail;
        self.backing.put(&key, record)?;
        for (seq, key, bytes) in staged.blocks {
            self.backing.put(&key, bytes)?;
            entry.lock().pending.retain(|(s, _)| *s != seq);
        }
        Ok(())
    }

    /// Append/seal without a WAL: stages under the series lock, drops
    /// it, then writes the tail record, which commits the append.
    fn append_inner(
        &self,
        series: &str,
        points: &[(u64, f64)],
        meta: Option<&[u8]>,
        force_seal: bool,
    ) -> StoreResult<AppendOutcome> {
        let entry = self.entry(series);
        self.ensure_recovered(series, &entry)?;
        let (outcome, staged) = {
            let mut s = entry.lock();
            let outcome = self.stage(&mut s, points, meta, force_seal);
            (outcome, StagedWrites::of(series, &s))
        };
        self.write_staged(&entry, staged)?;
        Ok(outcome)
    }

    /// Group-commit append. Stages the points into the tail under the
    /// series lock and queues one delta frame to the WAL committer;
    /// `ack` resolves when the delta's group commits. An append that
    /// seals a block is no exception: its durability is its delta's, so
    /// the thread that ran it never waits for the device. The tail and
    /// block records the seal produces are written at once but not
    /// synced — an early checkpoint of this one series. Until a sync of
    /// the backing store reaches them (every checkpoint syncs before it
    /// resets the WAL) recovery gets the same points from the WAL, whose
    /// deltas a surviving tail record makes it skip.
    ///
    /// Only a force-seal with nothing to log has no delta to ride: it
    /// writes and syncs the tail record before acking.
    fn append_via_wal(
        &self,
        series: &str,
        points: &[(u64, f64)],
        meta: Option<&[u8]>,
        force_seal: bool,
        ack: AppendAck,
    ) {
        let ws = self.wal.as_ref().expect("append_via_wal without wal");
        let entry = self.entry(series);
        if let Err(e) = self.ensure_recovered(series, &entry) {
            ack(Err(e));
            return;
        }

        enum Plan {
            /// Ack handed to the WAL committer; the records of a seal, if
            /// there was one, are still to be written.
            Deferred(Option<StagedWrites>),
            /// Nothing to persist (empty append).
            Noop,
            /// Force-seal without a delta: synchronous tail-record path.
            Full(StagedWrites),
        }
        let mut ack = Some(ack);
        let (outcome, plan) = {
            let _rotation = ws.rotation.read();
            let mut s = entry.lock();
            let base = s.sealed_points + s.tail.count() as u64;
            let outcome = self.stage(&mut s, points, meta, force_seal);
            let sealed = (outcome.sealed > 0).then(|| StagedWrites::of(series, &s));
            let plan = if points.is_empty() && meta.is_none() {
                sealed.map_or(Plan::Noop, Plan::Full)
            } else {
                // Submitted under the series lock (so same-series deltas
                // enqueue in apply order) and the rotation read guard
                // (so a checkpoint can't reset the WAL between the tail
                // mutation and the queue slot).
                let record = encode_wal_delta(series, base, &s.meta, points);
                if !s.dirty {
                    s.dirty = true;
                    ws.dirty.lock().insert(series.to_string());
                }
                let ack = ack.take().expect("ack consumed once");
                ws.wal.submit_append(record, ack, outcome);
                Plan::Deferred(sealed)
            };
            (outcome, plan)
        };

        // Once a seal's records are written the tail record covers every
        // queued delta of this series and the checkpoint no longer needs
        // to sweep it.
        let write_sealed = |staged: StagedWrites| -> StoreResult<()> {
            self.write_staged(&entry, staged)?;
            let mut s = entry.lock();
            if s.dirty {
                s.dirty = false;
                ws.dirty.lock().remove(series);
            }
            Ok(())
        };
        match plan {
            Plan::Deferred(None) => {}
            Plan::Deferred(Some(staged)) => {
                // A failed write costs nothing but the shortcut: the
                // delta is in the WAL, the series is still marked dirty
                // and the next checkpoint writes its tail record.
                let _rotation = ws.rotation.read();
                let _ = write_sealed(staged);
            }
            Plan::Noop => (ack.take().expect("ack consumed once"))(Ok(outcome)),
            Plan::Full(staged) => {
                let commit = || {
                    let _rotation = ws.rotation.read();
                    write_sealed(staged)?;
                    if ws.fsync == FsyncPolicy::PerGroup {
                        self.backing.sync()?;
                    }
                    Ok(outcome)
                };
                (ack.take().expect("ack consumed once"))(commit());
            }
        }

        if ws.wal.len() >= ws.checkpoint_bytes {
            // Best-effort: a failed checkpoint leaves the WAL longer but
            // never loses data (the dirty set is restored on error).
            let _ = self.checkpoint();
        }
    }

    /// Group-commit checkpoint: writes a tail record for every dirty
    /// series (folding their WAL deltas into the backing store), then
    /// resets the WAL. No-op without a WAL or when a checkpoint is
    /// already in flight.
    pub fn checkpoint(&self) -> StoreResult<()> {
        let Some(ws) = &self.wal else {
            return Ok(());
        };
        let Some(_rotation) = ws.rotation.try_write() else {
            return Ok(());
        };
        // Materialize series whose recovered deltas were never touched:
        // recovery folds them into the in-memory image, which the dirty
        // sweep below then persists.
        let leftover: Vec<String> = ws.replay.lock().frames.keys().cloned().collect();
        for name in leftover {
            let entry = self.entry(&name);
            self.ensure_recovered(&name, &entry)?;
        }
        let names: Vec<String> = {
            let mut dirty = ws.dirty.lock();
            let names = dirty.iter().cloned().collect();
            dirty.clear();
            names
        };
        let mut result = Ok(());
        for (i, name) in names.iter().enumerate() {
            let entry = self.entry(name);
            let record = {
                let s = entry.lock();
                Bytes::from(encode_tail_record(&s))
            };
            if let Err(e) = self.backing.put(&tail_key(name), record) {
                // Restore the unswept remainder (this series included)
                // so the next checkpoint retries them; the WAL is not
                // reset, so nothing is lost. Their bits are still set.
                ws.dirty.lock().extend(names[i..].iter().cloned());
                result = Err(e);
                break;
            }
            // No append runs under the rotation write guard, so the bit
            // cannot have been re-set since the record was encoded.
            entry.lock().dirty = false;
        }
        result?;
        if ws.fsync == FsyncPolicy::PerGroup {
            self.backing.sync()?;
        }
        ws.wal.reset()
    }

    fn should_seal(&self, tail: &PointCompressor) -> bool {
        if tail.count() == 0 {
            return false;
        }
        let idx = tail.index();
        tail.count() >= self.config.seal_points
            || tail.payload_bytes() >= self.config.seal_bytes
            || idx.max_ts.saturating_sub(idx.min_ts) >= self.config.seal_age_ms
    }

    /// Storage footprint of one series (0-stats when unknown).
    pub fn stats(&self, series: &str) -> SeriesStats {
        let entry = self.entry(series);
        let s = entry.lock();
        SeriesStats {
            sealed_blocks: s.sealed.len() as u64,
            sealed_points: s.sealed_points,
            sealed_bytes: s.sealed.iter().map(|b| b.bytes.len() as u64).sum(),
            tail_points: s.tail.count() as u64,
            tail_bytes: s.tail.payload_bytes() as u64,
        }
    }

    /// Aggregated [`TsStore::stats`] over every series this engine has
    /// touched.
    pub fn totals(&self) -> SeriesStats {
        let names: Vec<String> = self.series.read().keys().cloned().collect();
        let mut total = SeriesStats::default();
        for name in names {
            let s = self.stats(&name);
            total.sealed_blocks += s.sealed_blocks;
            total.sealed_points += s.sealed_points;
            total.sealed_bytes += s.sealed_bytes;
            total.tail_points += s.tail_points;
            total.tail_bytes += s.tail_bytes;
        }
        total
    }
}

fn seal_tail(s: &mut Series) {
    let bytes = Bytes::from(s.tail.encode_block());
    let index = *s.tail.index();
    let seq = s.sealed.len() as u64;
    s.sealed_points += index.count as u64;
    s.pending.push((seq, bytes.clone()));
    s.sealed.push(SealedBlock { index, bytes });
    s.tail = PointCompressor::new();
}

impl TsStore {
    /// Runs a WAL append synchronously (blocks on the group commit).
    fn append_wal_blocking(
        &self,
        series: &str,
        points: &[(u64, f64)],
        meta: Option<&[u8]>,
        force_seal: bool,
    ) -> StoreResult<AppendOutcome> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.append_via_wal(
            series,
            points,
            meta,
            force_seal,
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        );
        rx.recv()
            .unwrap_or_else(|_| Err(StoreError::Io("wal append ack was dropped".into())))
    }
}

impl SeriesStore for TsStore {
    fn append_batch(
        &self,
        series: &str,
        points: &[(u64, f64)],
        meta: &[u8],
    ) -> StoreResult<AppendOutcome> {
        if self.wal.is_some() {
            self.append_wal_blocking(series, points, Some(meta), false)
        } else {
            self.append_inner(series, points, Some(meta), false)
        }
    }

    fn append_batch_async(&self, series: &str, points: &[(u64, f64)], meta: &[u8], ack: AppendAck) {
        if self.wal.is_some() {
            self.append_via_wal(series, points, Some(meta), false, ack);
        } else {
            ack(self.append_inner(series, points, Some(meta), false));
        }
    }

    fn barrier_async(&self, ack: AppendAck) {
        match &self.wal {
            // Empty payloads are never written; the callback still
            // resolves in submission order, after every frame queued
            // ahead of it commits — the barrier contract.
            Some(ws) => ws.wal.submit_with(Bytes::new(), move |r| {
                ack(r.map(|_| AppendOutcome::default()))
            }),
            None => ack(Ok(AppendOutcome::default())),
        }
    }

    fn scan_range(
        &self,
        series: &str,
        from_ms: u64,
        to_ms: u64,
        limit: usize,
    ) -> StoreResult<Vec<(u64, f64)>> {
        let entry = self.entry(series);
        self.ensure_recovered(series, &entry)?;

        // Snapshot matching block bytes under the lock (cheap `Bytes`
        // clones); decompress after it drops.
        let (blocks, tail_block): (Vec<Bytes>, Vec<u8>) = {
            let s = entry.lock();
            let blocks = s
                .sealed
                .iter()
                .filter(|b| b.index.overlaps(from_ms, to_ms))
                .map(|b| b.bytes.clone())
                .collect();
            let tail = if s.tail.index().overlaps(from_ms, to_ms) {
                s.tail.encode_block()
            } else {
                Vec::new()
            };
            (blocks, tail)
        };

        let mut out = Vec::new();
        for bytes in blocks
            .iter()
            .map(|b| b.as_ref())
            .chain([tail_block.as_slice()])
        {
            for (ts, v) in decode_block(bytes)? {
                if ts >= from_ms && ts <= to_ms {
                    out.push((ts, v));
                    if limit != 0 && out.len() >= limit {
                        return Ok(out);
                    }
                }
            }
        }
        Ok(out)
    }

    fn scan_from(&self, series: &str, position: u64, limit: usize) -> StoreResult<Vec<(u64, f64)>> {
        let entry = self.entry(series);
        self.ensure_recovered(series, &entry)?;
        let end = match limit {
            0 => u64::MAX,
            n => position.saturating_add(n as u64),
        };

        // Snapshot the blocks holding positions `position..end` under the
        // lock, skipping sealed blocks by the point counts their indexes
        // hold; decompress after it drops. `start` is the position of the
        // first point of the first block taken.
        let (start, blocks, tail_block) = {
            let s = entry.lock();
            let mut start = None;
            let mut blocks = Vec::new();
            let mut first = 0u64;
            for b in &s.sealed {
                let next = first + b.index.count as u64;
                if next > position && first < end {
                    start.get_or_insert(first);
                    blocks.push(b.bytes.clone());
                }
                first = next;
            }
            let tail = if first + s.tail.count() as u64 > position && first < end {
                start.get_or_insert(first);
                s.tail.encode_block()
            } else {
                Vec::new()
            };
            (start, blocks, tail)
        };
        let Some(start) = start else {
            return Ok(Vec::new());
        };

        let mut out = Vec::new();
        let mut skip = (position - start) as usize;
        for bytes in blocks
            .iter()
            .map(|b| b.as_ref())
            .chain([tail_block.as_slice()])
        {
            out.extend(
                decode_block(bytes)?
                    .into_iter()
                    .skip(std::mem::take(&mut skip)),
            );
            if limit != 0 && out.len() >= limit {
                out.truncate(limit);
                break;
            }
        }
        Ok(out)
    }

    fn seal(&self, series: &str) -> StoreResult<()> {
        if self.wal.is_some() {
            self.append_wal_blocking(series, &[], None, true)?;
        } else {
            self.append_inner(series, &[], None, true)?;
        }
        Ok(())
    }

    fn recover(&self, series: &str) -> StoreResult<SeriesRecovery> {
        let entry = self.entry(series);
        self.ensure_recovered(series, &entry)?;
        let s = entry.lock();
        Ok(SeriesRecovery {
            meta: Bytes::copy_from_slice(&s.meta),
            points: s.sealed_points + s.tail.count() as u64,
        })
    }
}

// ------------------------------------------------------------ tail record

/// A decoded tail record; its byte fields borrow from the record.
struct TailRecord<'a> {
    sealed_blocks: u64,
    sealed_points: u64,
    meta: &'a [u8],
    pending: Vec<(u64, &'a [u8])>,
    tail_block: &'a [u8],
}

/// `TST1 | sealed_blocks u64 | sealed_points u64 | meta_len u32 | meta
/// | pending_count u32 | (seq u64, len u32, bytes)* | tail_len u32
/// | tail block | crc32` — the CRC covers everything before it.
fn encode_tail_record(s: &Series) -> Vec<u8> {
    let tail_block = s.tail.encode_block();
    let mut out = Vec::with_capacity(4 + 8 + 8 + 4 + s.meta.len() + 4 + tail_block.len() + 4);
    let mut w = Writer::over(&mut out);
    w.bytes(TAIL_MAGIC);
    w.u64(s.sealed.len() as u64);
    w.u64(s.sealed_points);
    w.u32_prefixed(&s.meta);
    w.u32(s.pending.len() as u32);
    for (seq, bytes) in &s.pending {
        w.u64(*seq);
        w.u32_prefixed(bytes);
    }
    w.u32_prefixed(&tail_block);
    w.crc_trailer();
    out
}

fn decode_tail_record(buf: &[u8]) -> StoreResult<TailRecord<'_>> {
    Reader::whole(buf, "tseries tail record", |r| {
        r.magic(TAIL_MAGIC)?;
        r.crc_trailer()?;
        Ok(TailRecord {
            sealed_blocks: r.u64()?,
            sealed_points: r.u64()?,
            meta: r.u32_prefixed()?,
            pending: r.u32_list(|r| Ok((r.u64()?, r.u32_prefixed()?)))?,
            tail_block: r.u32_prefixed()?,
        })
    })
}

// -------------------------------------------------------- wal delta codec

/// `TSW1 | base_points u64 | series_len u32 | series | meta_len u32 |
/// meta | count u32 | (ts u64, value_bits u64)*` — no CRC of its own;
/// the enclosing [`GroupWal`] record frame carries one. Encoded straight
/// into that frame, on the appending thread: one buffer, written once,
/// is what the committer later writes to the log.
fn encode_wal_delta(
    series: &str,
    base_points: u64,
    meta: &[u8],
    points: &[(u64, f64)],
) -> FramedRecord {
    let payload_len = 4 + 8 + 4 + series.len() + 4 + meta.len() + 4 + 16 * points.len();
    FramedRecord::build(payload_len, |out| {
        let mut w = Writer::over(out);
        w.bytes(TS_WAL_MAGIC);
        w.u64(base_points);
        w.u32_prefixed(series.as_bytes());
        w.u32_prefixed(meta);
        w.u32(points.len() as u32);
        for &(ts, v) in points {
            w.u64(ts);
            w.f64(v);
        }
    })
}

/// One WAL delta, its fields borrowed from the frame: one append's
/// points and meta, tagged with the series' durable point count at
/// submission time so replay can tell which deltas a later tail record
/// already covers.
struct WalDelta<'a> {
    series: &'a str,
    base_points: u64,
    meta: &'a [u8],
    /// `ts u64 | value_bits u64` per point, exactly 16 × count bytes.
    point_bytes: &'a [u8],
}

impl WalDelta<'_> {
    /// The delta's points, decoded where they lie.
    fn points(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.point_bytes.chunks_exact(16).map(|p| {
            let (ts, bits) = p.split_at(8);
            (
                u64::from_le_bytes(ts.try_into().expect("8 bytes")),
                f64::from_bits(u64::from_le_bytes(bits.try_into().expect("8 bytes"))),
            )
        })
    }
}

/// Decodes one delta frame in place, checking every field: the magic
/// and version, the UTF-8 series name, the meta length, and that the
/// bytes after the count are exactly its points.
fn decode_wal_delta(buf: &[u8]) -> StoreResult<WalDelta<'_>> {
    Reader::whole(buf, "tseries wal delta", |r| {
        r.magic(TS_WAL_MAGIC)?;
        let base_points = r.u64()?;
        let series = std::str::from_utf8(r.u32_prefixed()?).map_err(|_| {
            StoreError::Corrupt("tseries wal delta: series name is not utf-8".into())
        })?;
        let meta = r.u32_prefixed()?;
        // A count past the bytes left fails the take, never sizes a buffer.
        let count = u64::from(r.u32()?);
        let point_bytes = r.take(usize::try_from(16 * count).unwrap_or(usize::MAX))?;
        Ok(WalDelta {
            series,
            base_points,
            meta,
            point_bytes,
        })
    })
}

/// Folds a series' recovered WAL deltas, frames `frames` of `log`, into
/// its freshly-loaded image, reading each from the log in place. Each
/// delta's `base_points` watermark says how many durable points the
/// series had when it was submitted: below the current count means a
/// later tail record already covers it (skip — this is what makes
/// replay exactly-once); equal means apply; above means a gap — the WAL
/// and backing store disagree, which recovery must not paper over.
fn apply_wal_deltas(
    series: &str,
    s: &mut Series,
    log: &RecoveredLog,
    frames: &[usize],
) -> StoreResult<()> {
    for &i in frames {
        let delta = decode_wal_delta(&log[i])?;
        let current = s.sealed_points + s.tail.count() as u64;
        if delta.base_points < current {
            continue;
        }
        if delta.base_points > current {
            return Err(StoreError::Corrupt(format!(
                "tseries {series}: wal delta expects {} durable points but the \
                 backing store has {current}",
                delta.base_points
            )));
        }
        for (ts, v) in delta.points() {
            s.tail.append(ts, v);
        }
        s.set_meta(delta.meta);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemStore;

    fn engine(config: TsConfig) -> (Arc<MemStore>, TsStore) {
        let backing = Arc::new(MemStore::new());
        let ts = TsStore::new(Arc::clone(&backing) as Arc<dyn StateStore>, config);
        (backing, ts)
    }

    fn pts(range: std::ops::Range<u64>) -> Vec<(u64, f64)> {
        range.map(|i| (i * 10, i as f64)).collect()
    }

    #[test]
    fn append_scan_roundtrip_across_seals() {
        let (_, ts) = engine(TsConfig::sealing_every(16));
        let points = pts(0..100);
        for chunk in points.chunks(7) {
            ts.append_batch("s", chunk, b"meta").unwrap();
        }
        let all = ts.scan_range("s", 0, u64::MAX, 0).unwrap();
        assert_eq!(all, points);
        let stats = ts.stats("s");
        assert_eq!(stats.sealed_blocks, 100 / 16);
        assert_eq!(stats.sealed_points + stats.tail_points, 100);

        // Range + limit semantics match the window query.
        let mid = ts.scan_range("s", 200, 400, 0).unwrap();
        assert_eq!(mid.len(), 21);
        assert_eq!(mid.first().unwrap().0, 200);
        let capped = ts.scan_range("s", 200, 400, 5).unwrap();
        assert_eq!(capped.len(), 5);
    }

    #[test]
    fn recovery_restores_points_meta_and_tail() {
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        {
            let ts = TsStore::new(Arc::clone(&backing), TsConfig::sealing_every(8));
            for chunk in pts(0..30).chunks(4) {
                ts.append_batch("s", chunk, b"watermark-7").unwrap();
            }
        }
        // Fresh engine over the same backing: the "process restart".
        let ts = TsStore::new(Arc::clone(&backing), TsConfig::sealing_every(8));
        let rec = ts.recover("s").unwrap();
        assert_eq!(rec.points, 30);
        assert_eq!(rec.meta.as_ref(), b"watermark-7");
        assert_eq!(ts.scan_range("s", 0, u64::MAX, 0).unwrap(), pts(0..30));
        // Appends continue seamlessly after recovery.
        ts.append_batch("s", &pts(30..40), b"watermark-8").unwrap();
        assert_eq!(ts.scan_range("s", 0, u64::MAX, 0).unwrap(), pts(0..40));
    }

    #[test]
    fn crash_between_tail_commit_and_block_write_loses_nothing() {
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        {
            let ts = TsStore::new(Arc::clone(&backing), TsConfig::sealing_every(8));
            for chunk in pts(0..16).chunks(4) {
                ts.append_batch("s", chunk, b"m").unwrap();
            }
        }
        // Simulate the crash window: delete the sealed blocks' own
        // records, leaving only the tail record (which pinned them as
        // pending when they sealed... but unpinning already happened).
        // Rebuild the scenario directly instead: write a tail record
        // carrying a pending block with no block record.
        let mut series = Series {
            recovered: true,
            ..Series::default()
        };
        for (ts_ms, v) in pts(0..8) {
            series.tail.append(ts_ms, v);
        }
        seal_tail(&mut series);
        series.set_meta(b"pending-meta");
        let record = encode_tail_record(&series);
        backing
            .put(&tail_key("crashy"), Bytes::from(record))
            .unwrap();
        assert!(backing.get(&block_key("crashy", 0)).unwrap().is_none());

        let ts = TsStore::new(Arc::clone(&backing), TsConfig::sealing_every(8));
        let rec = ts.recover("crashy").unwrap();
        assert_eq!(rec.points, 8);
        assert_eq!(rec.meta.as_ref(), b"pending-meta");
        assert_eq!(ts.scan_range("crashy", 0, u64::MAX, 0).unwrap(), pts(0..8));
        // Recovery repaired the missing block record.
        assert!(backing.get(&block_key("crashy", 0)).unwrap().is_some());
    }

    #[test]
    fn bumped_tail_version_is_a_typed_error_not_corruption() {
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        {
            let ts = TsStore::new(Arc::clone(&backing), TsConfig::default());
            ts.append_batch("s", &pts(0..10), b"m").unwrap();
        }
        // A hypothetical TST2 writer bumped the version byte.
        let mut record = backing.get(&tail_key("s")).unwrap().unwrap().to_vec();
        record[3] = b'2';
        backing.put(&tail_key("s"), Bytes::from(record)).unwrap();
        let ts = TsStore::new(Arc::clone(&backing), TsConfig::default());
        match ts.recover("s") {
            Err(StoreError::UnsupportedVersion(msg)) => {
                assert!(msg.contains("TST"), "{msg}");
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // A garbled magic family is still plain corruption.
        let mut record = backing.get(&tail_key("s")).unwrap().unwrap().to_vec();
        record[0] = b'X';
        backing.put(&tail_key("s"), Bytes::from(record)).unwrap();
        let ts = TsStore::new(Arc::clone(&backing), TsConfig::default());
        assert!(matches!(ts.recover("s"), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn committed_block_with_no_copy_is_corrupt() {
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        {
            let ts = TsStore::new(Arc::clone(&backing), TsConfig::sealing_every(4));
            ts.append_batch("s", &pts(0..8), b"").unwrap();
            // A later append rewrites the tail record with its pending
            // list drained (the block records landed above), so the
            // block record is now the only copy of block 0.
            ts.append_batch("s", &pts(8..9), b"").unwrap();
        }
        backing.delete(&block_key("s", 0)).unwrap();
        let ts = TsStore::new(Arc::clone(&backing), TsConfig::default());
        assert!(matches!(ts.recover("s"), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn seal_flushes_tail_and_scan_skips_blocks() {
        let (_, ts) = engine(TsConfig::default());
        ts.append_batch("s", &pts(0..100), b"").unwrap();
        assert_eq!(ts.stats("s").sealed_blocks, 0);
        ts.seal("s").unwrap();
        let stats = ts.stats("s");
        assert_eq!(stats.sealed_blocks, 1);
        assert_eq!(stats.sealed_points, 100);
        assert_eq!(stats.tail_points, 0);
        // A miss range decodes nothing (skip path) and returns empty.
        assert!(ts.scan_range("s", 10_000, 20_000, 0).unwrap().is_empty());
    }

    #[test]
    fn meta_commits_atomically_with_points() {
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let ts = TsStore::new(Arc::clone(&backing), TsConfig::default());
        ts.append_batch("s", &pts(0..5), b"seq=1").unwrap();
        ts.append_batch("s", &pts(5..10), b"seq=2").unwrap();
        let fresh = TsStore::new(Arc::clone(&backing), TsConfig::default());
        let rec = fresh.recover("s").unwrap();
        assert_eq!(rec.meta.as_ref(), b"seq=2");
        assert_eq!(rec.points, 10);
    }

    #[test]
    fn series_are_isolated() {
        let (_, ts) = engine(TsConfig::default());
        ts.append_batch("a", &pts(0..5), b"ma").unwrap();
        ts.append_batch("b", &pts(100..110), b"mb").unwrap();
        assert_eq!(ts.scan_range("a", 0, u64::MAX, 0).unwrap().len(), 5);
        assert_eq!(ts.scan_range("b", 0, u64::MAX, 0).unwrap().len(), 10);
        assert_eq!(ts.recover("a").unwrap().meta.as_ref(), b"ma");
    }

    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aodb-tswal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("ts_wal.log")
    }

    #[test]
    fn wal_mode_roundtrip_and_replay() {
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let path = temp_wal("roundtrip");
        {
            let ts = TsStore::with_wal(
                Arc::clone(&backing),
                TsConfig::default(),
                &path,
                WalConfig::default(),
            )
            .unwrap();
            for chunk in pts(0..30).chunks(4) {
                ts.append_batch("s", chunk, b"wm-30").unwrap();
            }
            assert!(ts.wal_stats().frames >= 8);
            // No seal fired: the backing store has no tail record yet —
            // the deltas alone must carry recovery.
            assert!(backing.get(&tail_key("s")).unwrap().is_none());
        }
        let ts = TsStore::with_wal(
            Arc::clone(&backing),
            TsConfig::default(),
            &path,
            WalConfig::default(),
        )
        .unwrap();
        let rec = ts.recover("s").unwrap();
        assert_eq!(rec.points, 30);
        assert_eq!(rec.meta.as_ref(), b"wm-30");
        assert_eq!(ts.scan_range("s", 0, u64::MAX, 0).unwrap(), pts(0..30));
    }

    #[test]
    fn wal_mode_seal_supersedes_deltas_exactly_once() {
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let path = temp_wal("seal");
        {
            let ts = TsStore::with_wal(
                Arc::clone(&backing),
                TsConfig::sealing_every(8),
                &path,
                WalConfig::default(),
            )
            .unwrap();
            // 12 points: the append that reaches 8 also writes the tail
            // record, which covers every delta up to there.
            for chunk in pts(0..12).chunks(2) {
                ts.append_batch("s", chunk, b"m").unwrap();
            }
            assert!(backing.get(&tail_key("s")).unwrap().is_some());
        }
        // Recovery must not double-apply the deltas the seal-time tail
        // record already covers.
        let ts = TsStore::with_wal(
            Arc::clone(&backing),
            TsConfig::sealing_every(8),
            &path,
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(ts.recover("s").unwrap().points, 12);
        assert_eq!(ts.scan_range("s", 0, u64::MAX, 0).unwrap(), pts(0..12));
    }

    #[test]
    fn wal_mode_checkpoint_folds_deltas_and_resets() {
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let path = temp_wal("checkpoint");
        {
            let ts = TsStore::with_wal(
                Arc::clone(&backing),
                TsConfig::default(),
                &path,
                WalConfig::default(),
            )
            .unwrap();
            for series in ["a", "b"] {
                ts.append_batch(series, &pts(0..10), b"ck").unwrap();
            }
            assert!(!ts.wal().unwrap().is_empty());
            ts.checkpoint().unwrap();
            assert_eq!(ts.wal().unwrap().len(), 0, "checkpoint resets the wal");
            assert!(backing.get(&tail_key("a")).unwrap().is_some());
            assert!(backing.get(&tail_key("b")).unwrap().is_some());
        }
        // Post-checkpoint recovery comes purely from the backing store.
        let ts = TsStore::with_wal(
            Arc::clone(&backing),
            TsConfig::default(),
            &path,
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(ts.recover("a").unwrap().points, 10);
        assert_eq!(ts.recover("b").unwrap().points, 10);
    }

    #[test]
    fn wal_mode_checkpoint_materializes_untouched_recovered_series() {
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let path = temp_wal("leftover");
        {
            let ts = TsStore::with_wal(
                Arc::clone(&backing),
                TsConfig::default(),
                &path,
                WalConfig::default(),
            )
            .unwrap();
            ts.append_batch("s", &pts(0..5), b"m").unwrap();
        }
        {
            // Reopen and checkpoint WITHOUT touching the series first:
            // the recovered deltas must be folded into tail records, not
            // dropped with the reset.
            let ts = TsStore::with_wal(
                Arc::clone(&backing),
                TsConfig::default(),
                &path,
                WalConfig::default(),
            )
            .unwrap();
            ts.checkpoint().unwrap();
        }
        let ts = TsStore::with_wal(
            Arc::clone(&backing),
            TsConfig::default(),
            &path,
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(ts.recover("s").unwrap().points, 5);
    }

    /// The replay's handle on the recovered log, held weakly: it upgrades
    /// for as long as the log's buffer is alive.
    fn replay_log(ts: &TsStore) -> std::sync::Weak<RecoveredLog> {
        Arc::downgrade(&ts.wal.as_ref().unwrap().replay.lock().log)
    }

    /// Three series with two deltas each in the log at `path`, none
    /// covered by a tail record.
    fn logged_series(backing: &Arc<dyn StateStore>, path: &PathBuf) {
        let ts = TsStore::with_wal(
            Arc::clone(backing),
            TsConfig::default(),
            path,
            WalConfig::default(),
        )
        .unwrap();
        for name in ["a", "b", "c"] {
            ts.append_batch(name, &pts(0..5), b"m1").unwrap();
            ts.append_batch(name, &pts(5..9), b"m2").unwrap();
        }
    }

    #[test]
    fn recovered_log_is_released_after_the_last_touch() {
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let path = temp_wal("release-touch");
        logged_series(&backing, &path);
        let ts = TsStore::with_wal(
            Arc::clone(&backing),
            TsConfig::default(),
            &path,
            WalConfig::default(),
        )
        .unwrap();
        let log = replay_log(&ts);
        assert_eq!(log.upgrade().map(|l| l.len()), Some(6));
        assert_eq!(ts.recover("a").unwrap().points, 9);
        assert_eq!(ts.scan_range("b", 0, u64::MAX, 0).unwrap(), pts(0..9));
        assert!(log.upgrade().is_some(), "c is still to be applied");
        assert_eq!(ts.recover("c").unwrap().meta.as_ref(), b"m2");
        assert!(log.upgrade().is_none(), "the last touch frees the log");
    }

    #[test]
    fn checkpoint_releases_the_recovered_log() {
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let path = temp_wal("release-checkpoint");
        logged_series(&backing, &path);
        let ts = TsStore::with_wal(
            Arc::clone(&backing),
            TsConfig::default(),
            &path,
            WalConfig::default(),
        )
        .unwrap();
        let log = replay_log(&ts);
        assert_eq!(ts.recover("a").unwrap().points, 9);
        ts.checkpoint().unwrap();
        assert!(
            log.upgrade().is_none(),
            "materializing the untouched series frees the log"
        );
        for name in ["a", "b", "c"] {
            assert_eq!(ts.scan_range(name, 0, u64::MAX, 0).unwrap(), pts(0..9));
        }
    }

    /// A `MemStore` whose `put` starts failing after a set number of
    /// successes (until re-armed), to interrupt a checkpoint sweep — or,
    /// with `lose` set, reports success and keeps nothing, which is what
    /// a crash makes of a write that was never synced.
    struct FailingPuts {
        inner: MemStore,
        puts_left: std::sync::atomic::AtomicI64,
        lose: std::sync::atomic::AtomicBool,
    }

    impl FailingPuts {
        fn new() -> Arc<Self> {
            Arc::new(FailingPuts {
                inner: MemStore::new(),
                puts_left: std::sync::atomic::AtomicI64::new(i64::MAX),
                lose: std::sync::atomic::AtomicBool::new(false),
            })
        }
    }

    impl StateStore for FailingPuts {
        fn get(&self, key: &Key) -> StoreResult<Option<Bytes>> {
            self.inner.get(key)
        }
        fn put(&self, key: &Key, value: Bytes) -> StoreResult<()> {
            if self.lose.load(std::sync::atomic::Ordering::Relaxed) {
                return Ok(());
            }
            if self
                .puts_left
                .fetch_sub(1, std::sync::atomic::Ordering::Relaxed)
                <= 0
            {
                return Err(StoreError::Io("injected put failure".into()));
            }
            self.inner.put(key, value)
        }
        fn delete(&self, key: &Key) -> StoreResult<()> {
            self.inner.delete(key)
        }
        fn scan_prefix(&self, prefix: &[u8]) -> StoreResult<Vec<(Key, Bytes)>> {
            self.inner.scan_prefix(prefix)
        }
    }

    /// The per-series bit and the global set, which must agree whenever
    /// no append or checkpoint is in flight.
    fn dirty_view(ts: &TsStore, names: &[&str]) -> (Vec<String>, Vec<String>) {
        let mut bits: Vec<String> = names
            .iter()
            .filter(|n| ts.entry(n).lock().dirty)
            .map(|n| n.to_string())
            .collect();
        let mut set: Vec<String> = ts
            .wal
            .as_ref()
            .unwrap()
            .dirty
            .lock()
            .iter()
            .cloned()
            .collect();
        bits.sort();
        set.sort();
        (bits, set)
    }

    #[test]
    fn failed_checkpoint_remarks_exactly_the_unswept_series() {
        const NAMES: [&str; 4] = ["a", "b", "c", "d"];
        let backing = FailingPuts::new();
        let ts = TsStore::with_wal(
            Arc::clone(&backing) as Arc<dyn StateStore>,
            TsConfig::default(),
            temp_wal("dirty-bit"),
            WalConfig::default(),
        )
        .unwrap();
        for name in NAMES {
            // Two delta appends each: only the first touches the set.
            ts.append_batch(name, &pts(0..5), b"m1").unwrap();
            ts.append_batch(name, &pts(5..10), b"m2").unwrap();
        }
        let (bits, set) = dirty_view(&ts, &NAMES);
        assert_eq!(bits, NAMES);
        assert_eq!(set, NAMES);

        // The sweep persists two series, then the third put fails.
        backing
            .puts_left
            .store(2, std::sync::atomic::Ordering::Relaxed);
        assert!(ts.checkpoint().is_err());
        assert!(
            !ts.wal().unwrap().is_empty(),
            "a failed checkpoint must not reset the wal"
        );
        let swept: Vec<&str> = NAMES
            .into_iter()
            .filter(|n| backing.inner.get(&tail_key(n)).unwrap().is_some())
            .collect();
        assert_eq!(swept.len(), 2);
        let unswept: Vec<String> = NAMES
            .into_iter()
            .filter(|n| !swept.contains(n))
            .map(str::to_string)
            .collect();
        let (bits, set) = dirty_view(&ts, &NAMES);
        assert_eq!(bits, unswept, "bits of exactly the unswept series stay set");
        assert_eq!(
            set, unswept,
            "the set is restored to exactly the unswept series"
        );

        // The next checkpoint persists the remainder and resets the WAL.
        backing
            .puts_left
            .store(i64::MAX, std::sync::atomic::Ordering::Relaxed);
        ts.checkpoint().unwrap();
        assert_eq!(ts.wal().unwrap().len(), 0);
        for name in NAMES {
            assert!(backing.inner.get(&tail_key(name)).unwrap().is_some());
        }
        assert_eq!(dirty_view(&ts, &NAMES), (Vec::new(), Vec::new()));

        // A fresh engine over the same files sees every point.
        drop(ts);
        let reopened = TsStore::new(
            Arc::clone(&backing) as Arc<dyn StateStore>,
            TsConfig::default(),
        );
        for name in NAMES {
            assert_eq!(reopened.recover(name).unwrap().points, 10);
        }
    }

    #[test]
    fn sealing_append_clears_the_dirty_bit() {
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let ts = TsStore::with_wal(
            Arc::clone(&backing),
            TsConfig::sealing_every(8),
            temp_wal("dirty-seal"),
            WalConfig::default(),
        )
        .unwrap();
        ts.append_batch("s", &pts(0..6), b"m").unwrap();
        assert_eq!(dirty_view(&ts, &["s"]).0, ["s"]);
        // Crosses the 8-point seal: the tail record now covers the delta.
        ts.append_batch("s", &pts(6..9), b"m").unwrap();
        assert_eq!(dirty_view(&ts, &["s"]), (Vec::new(), Vec::new()));
        // The next delta marks it again.
        ts.append_batch("s", &pts(9..10), b"m").unwrap();
        let (bits, set) = dirty_view(&ts, &["s"]);
        assert_eq!((bits, set), (vec!["s".to_string()], vec!["s".to_string()]));
    }

    #[test]
    fn sealing_append_is_durable_through_its_wal_delta() {
        let backing = FailingPuts::new();
        let path = temp_wal("seal-delta");
        let open = || {
            TsStore::with_wal(
                Arc::clone(&backing) as Arc<dyn StateStore>,
                TsConfig::sealing_every(8),
                &path,
                WalConfig::default(),
            )
            .unwrap()
        };
        {
            let ts = open();
            ts.append_batch("s", &pts(0..6), b"m1").unwrap();
            // The append that seals is acked on its delta's group. Its
            // tail and block records are written but not synced: a crash
            // may take them, and here it does.
            backing
                .lose
                .store(true, std::sync::atomic::Ordering::Relaxed);
            let outcome = ts.append_batch("s", &pts(6..10), b"m2").unwrap();
            assert_eq!(outcome.sealed, 1);
            ts.append_batch("s", &pts(10..13), b"m3").unwrap();
            backing
                .lose
                .store(false, std::sync::atomic::Ordering::Relaxed);
            assert!(backing.inner.get(&tail_key("s")).unwrap().is_none());
        }
        // Every acked point comes back from the WAL alone, the sealing
        // append's included, and the series carries on from there.
        let ts = open();
        let rec = ts.recover("s").unwrap();
        assert_eq!(rec.points, 13);
        assert_eq!(rec.meta.as_ref(), b"m3");
        ts.append_batch("s", &pts(13..20), b"m4").unwrap();
        assert_eq!(ts.scan_range("s", 0, u64::MAX, 0).unwrap(), pts(0..20));
        // A checkpoint moves it all into the backing store for good.
        ts.checkpoint().unwrap();
        drop(ts);
        let cold = TsStore::new(
            Arc::clone(&backing) as Arc<dyn StateStore>,
            TsConfig::sealing_every(8),
        );
        assert_eq!(cold.scan_range("s", 0, u64::MAX, 0).unwrap(), pts(0..20));
    }

    #[test]
    fn failed_seal_write_leaves_the_series_to_the_checkpoint() {
        let backing = FailingPuts::new();
        let ts = TsStore::with_wal(
            Arc::clone(&backing) as Arc<dyn StateStore>,
            TsConfig::sealing_every(8),
            temp_wal("seal-put-fails"),
            WalConfig::default(),
        )
        .unwrap();
        ts.append_batch("s", &pts(0..6), b"m").unwrap();
        // The seal's tail-record write fails. The ack does not depend on
        // it — the delta is in the WAL — but the series must stay marked
        // so that the next checkpoint writes the record.
        backing
            .puts_left
            .store(0, std::sync::atomic::Ordering::Relaxed);
        let outcome = ts.append_batch("s", &pts(6..10), b"m").unwrap();
        assert_eq!(outcome.sealed, 1);
        assert!(backing.inner.get(&tail_key("s")).unwrap().is_none());
        let (bits, set) = dirty_view(&ts, &["s"]);
        assert_eq!((bits, set), (vec!["s".to_string()], vec!["s".to_string()]));

        backing
            .puts_left
            .store(i64::MAX, std::sync::atomic::Ordering::Relaxed);
        ts.checkpoint().unwrap();
        assert_eq!(ts.wal().unwrap().len(), 0);
        assert_eq!(dirty_view(&ts, &["s"]), (Vec::new(), Vec::new()));
        drop(ts);
        let cold = TsStore::new(
            Arc::clone(&backing) as Arc<dyn StateStore>,
            TsConfig::sealing_every(8),
        );
        assert_eq!(cold.scan_range("s", 0, u64::MAX, 0).unwrap(), pts(0..10));
    }

    #[test]
    fn wal_delta_codec_roundtrip_and_version_gate() {
        let record = encode_wal_delta("sensor-1", 42, b"meta", &pts(0..7));
        let frame = record.payload();
        let delta = decode_wal_delta(frame).unwrap();
        assert_eq!(delta.series, "sensor-1");
        assert_eq!(delta.base_points, 42);
        assert_eq!(delta.meta, b"meta");
        assert_eq!(delta.points().collect::<Vec<_>>(), pts(0..7));

        let mut bumped = frame.to_vec();
        bumped[3] = b'2';
        assert!(matches!(
            decode_wal_delta(&bumped),
            Err(StoreError::UnsupportedVersion(_))
        ));
        let mut garbled = frame.to_vec();
        garbled[0] = b'X';
        assert!(matches!(
            decode_wal_delta(&garbled),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn wal_mode_async_ack_resolves_after_commit() {
        use std::sync::mpsc;
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let path = temp_wal("async");
        let ts = TsStore::with_wal(
            Arc::clone(&backing),
            TsConfig::default(),
            &path,
            WalConfig::default(),
        )
        .unwrap();
        let (tx, rx) = mpsc::channel();
        ts.append_batch_async(
            "s",
            &pts(0..5),
            b"m",
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        );
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap()
            .unwrap();
        assert_eq!(outcome.appended, 5);
        assert!(ts.wal_stats().groups >= 1);
    }

    /// An on-disk element count is bounded by the bytes that follow it
    /// before it sizes anything: a CRC-valid `TST1` record and a `TSW1`
    /// delta claiming `u32::MAX` elements are corrupt, not a request for
    /// tens of gigabytes that aborts the process.
    #[test]
    fn huge_on_disk_counts_are_corrupt_not_allocations() {
        use crate::codec::crc32;
        let mut tail = TAIL_MAGIC.to_vec();
        tail.extend_from_slice(&0u64.to_le_bytes()); // sealed_blocks
        tail.extend_from_slice(&0u64.to_le_bytes()); // sealed_points
        tail.extend_from_slice(&0u32.to_le_bytes()); // meta_len
        tail.extend_from_slice(&u32::MAX.to_le_bytes()); // pending_count
        tail.extend_from_slice(&0u32.to_le_bytes()); // tail_len
        let crc = crc32(&tail);
        tail.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_tail_record(&tail),
            Err(StoreError::Corrupt(_))
        ));

        let mut delta = TS_WAL_MAGIC.to_vec();
        delta.extend_from_slice(&0u64.to_le_bytes()); // base_points
        delta.extend_from_slice(&1u32.to_le_bytes()); // series_len
        delta.push(b's');
        delta.extend_from_slice(&0u32.to_le_bytes()); // meta_len
        delta.extend_from_slice(&u32::MAX.to_le_bytes()); // count
        delta.extend_from_slice(&[0; 16]); // one point of the 2^32 − 1
        assert!(matches!(
            decode_wal_delta(&delta),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn tail_record_detects_corruption() {
        let mut series = Series {
            recovered: true,
            ..Series::default()
        };
        series.tail.append(1, 2.0);
        let mut record = encode_tail_record(&series);
        let mid = record.len() / 2;
        record[mid] ^= 1;
        assert!(decode_tail_record(&record).is_err());
    }
}

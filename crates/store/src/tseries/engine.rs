//! The time-series storage engine: per-series sealed blocks + mutable
//! tail, durable through a group-commit WAL over any [`StateStore`]
//! backing.
//!
//! ## Data layout in the backing store
//!
//! Each series owns one partition of the `"tseries"` namespace:
//!
//! * `tseries / <series> / b<seq:08>` — one immutable sealed block
//!   (the [`codec`](crate::tseries::codec) byte format).
//! * `tseries / <series> / tail` — the **tail record**: the series'
//!   checkpoint, holding the caller's metadata blob, the compressed
//!   image of the open tail block and the count of sealed blocks. The
//!   layout also has room for sealed blocks carried inline as *pending*
//!   copies: this engine writes none, but reads them from records older
//!   engines wrote at each seal.
//!
//! ## Commit protocol (why appends are crash-atomic)
//!
//! Every append stages its points in memory and commits as one delta
//! frame in the store's [`GroupWal`]: the points, the caller's metadata
//! (ingest dedup watermarks ride here — atomically with the points they
//! admit) and the series' point count before them. A seal puts its block
//! record at once; tail records are written only by checkpoints, each
//! after the block records it counts, and a checkpoint syncs the backing
//! store before it resets the WAL. This rests on one ordering
//! assumption: a backing put that returned is durable no later than any
//! later put (a `LogStore` is one ordered log), so a durable tail record
//! implies durable records of every block it counts. Recovery loads the
//! tail record and applies the deltas past its point count, re-sealing
//! wherever the live appends sealed; a block record that no tail record
//! counts yet (a crash between a seal and the next checkpoint) is
//! ignored, and overwritten by its re-sealed block before a tail record
//! counts it. A crash before a delta's group commits loses only the
//! unacknowledged batch (the client retransmits, and the dedup watermark
//! still reflects the last acknowledged batch, so the retransmission is
//! admitted exactly once).
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
use crate::tseries::codec::{
    decode_block, decode_index, BlockIndex, PointCompressor, MAX_POINT_BYTES,
};
use crate::wal::{open_log_file, FsyncPolicy, GroupWal, MemMedia, RecoveredLog, WalConfig};
use crate::wal::{WalMedia, WalStatsSnapshot};

/// Storage namespace of every series record.
const SERIES_NAMESPACE: &str = "tseries";
/// Sort key of the tail record (sorts after every `b<seq>` block key).
const TAIL_SORT: &str = "tail";
/// Magic prefix of a tail record; the last byte is the format version.
// aodb-schema: layout(TST1) = magic[4] sealed_blocks:u64 sealed_points:u64 meta_len:u32 meta pending_count:u32 (seq:u64 len:u32 bytes)* tail_len:u32 tail_block crc32:u32
const TAIL_MAGIC: &[u8; 4] = b"TST1";
/// Magic prefix of a WAL delta frame; the last byte
/// is the format version. The frame rides inside a [`GroupWal`] record,
/// whose CRC covers it — the delta carries no checksum of its own.
// aodb-schema: layout(TSW1) = magic[4] base_points:u64 series_len:u32 series meta_len:u32 meta count:u32 (ts:u64 value_bits:u64)*
const TS_WAL_MAGIC: &[u8; 4] = b"TSW1";
/// WAL size that triggers a checkpoint (block and tail records for every
/// dirty series + WAL reset).
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
    /// Every tail record a checkpoint writes carries the open tail's
    /// image, so the tail stays small, while the fixed per-block
    /// overhead (a 44-byte `TSB1` or 53-byte `TSB2` header, the CRC and
    /// the first point stored raw) stays under 0.15 bytes/point; on a
    /// fixed-step sensor signal a full `TSB2` block takes about 0.65
    /// bytes/point in all, its `TSB1` image about 1.1.
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
    /// the series lock before its delta's group commits, and an append
    /// whose commit fails leaves it set until a reopen, which reads the
    /// last committed one back.
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
    /// tail is empty). A force seal changes the layout, not the data:
    /// [`TsStore`] puts the block record, unsynced, and leaves the tail
    /// record that counts it to the next checkpoint, so a crash before
    /// that brings the points back in the open tail.
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
    /// Sealed blocks whose own record is not yet confirmed written. A
    /// checkpoint puts them before the tail record that counts them.
    pending: Vec<(u64, Bytes)>,
    /// This series is in [`WalState::dirty`]. Lets an append skip the
    /// global set (a mutex and a `String`) unless it is the first since
    /// the last tail record. Changed only under
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

/// Block records staged under the series lock, written after it drops
/// (see [`TsStore::write_staged`]).
struct StagedWrites {
    blocks: Vec<(u64, Key, Bytes)>,
}

impl StagedWrites {
    /// The records of `s`'s pending blocks.
    fn of(series: &str, s: &Series) -> StagedWrites {
        StagedWrites {
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

    /// Undoes a [`Replay::take`] whose frames could not be applied.
    fn put_back(&mut self, series: &str, log: Arc<RecoveredLog>, frames: Vec<usize>) {
        self.log = log;
        self.frames.insert(series.to_owned(), frames);
    }
}

/// The group-commit state of a [`TsStore`].
struct WalState {
    wal: GroupWal,
    /// Appends hold this for read; a checkpoint holds it for write so
    /// the tail-record sweep + WAL reset see no append in flight.
    rotation: RwLock<()>,
    /// Series whose WAL deltas or sealed blocks no durable tail record
    /// covers yet; the checkpoint writes their tail records before
    /// resetting.
    /// Mirrored per series in [`Series::dirty`]. Lock order: a series'
    /// entry lock, then this.
    dirty: Mutex<HashSet<String>>,
    /// Deltas recovered from the WAL, taken on each series' first touch
    /// (under its entry lock, so a racing discarded load can never eat
    /// them) and applied after this lock drops.
    replay: Mutex<Replay>,
    fsync: FsyncPolicy,
}

/// The columnar time-series engine.
pub struct TsStore {
    backing: Arc<dyn StateStore>,
    config: TsConfig,
    series: RwLock<HashMap<String, Arc<Mutex<Series>>>>,
    wal: WalState,
}

impl TsStore {
    /// Engine over `backing` whose appends commit through a [`GroupWal`]
    /// over `media`: each append writes a compact delta frame, and its
    /// ack resolves when the delta's group commits — one coalesced write
    /// and one fsync amortized over every concurrently-appending series.
    /// A seal puts its block records at once (unsynced: the sealing
    /// append's delta is what its ack waits for). Tail records are
    /// written only at checkpoints: when the WAL outgrows its threshold
    /// it is reset after a sweep that puts each dirty series' unwritten
    /// blocks and then its tail record, and a sync of the backing store.
    ///
    /// Recovery replays WAL deltas on top of the backing store, using
    /// each delta's durable-point watermark to skip those a later tail
    /// record already covers — applying each committed append exactly
    /// once — and sealing a block wherever the live appends did. The log
    /// is read once; every delta in it is checked here, where it lies,
    /// and applied from the same buffer at its series' first touch.
    pub fn new(
        backing: Arc<dyn StateStore>,
        config: TsConfig,
        media: impl WalMedia,
        wal_config: WalConfig,
    ) -> StoreResult<Self> {
        let (wal, log) = GroupWal::open_with_media(media, wal_config)?;
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
            wal: WalState {
                wal,
                rotation: RwLock::new(()),
                dirty: Mutex::new(frames.keys().cloned().collect()),
                replay: Mutex::new(Replay {
                    log: Arc::new(log),
                    frames,
                }),
                fsync: wal_config.fsync_policy,
            },
        })
    }

    /// [`TsStore::new`] over the log file at `wal_path` (created with its
    /// directory when missing): the durable deployment.
    pub fn with_wal(
        backing: Arc<dyn StateStore>,
        config: TsConfig,
        wal_path: impl Into<PathBuf>,
        wal_config: WalConfig,
    ) -> StoreResult<Self> {
        TsStore::new(backing, config, open_log_file(wal_path)?, wal_config)
    }

    /// [`TsStore::new`] with the default configurations over a fresh
    /// [`MemMedia`]: what the WAL holds past the last checkpoint or seal
    /// dies with the engine. Panics when the WAL committer thread cannot
    /// be spawned (an empty medium has nothing else that can fail).
    pub fn with_defaults(backing: Arc<dyn StateStore>) -> Self {
        TsStore::new(
            backing,
            TsConfig::default(),
            MemMedia::new(),
            WalConfig::default(),
        )
        .expect("spawn the wal committer")
    }

    /// The group-commit WAL (chaos tests use this to arm crash points
    /// and read counters). Always `Some`: every engine has one.
    pub fn wal(&self) -> Option<&GroupWal> {
        Some(&self.wal.wal)
    }

    /// Group-commit counters.
    pub fn wal_stats(&self) -> WalStatsSnapshot {
        self.wal.wal.stats()
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
        let mut loaded = self.load_series(series)?;
        let mut s = entry.lock();
        if s.recovered {
            return Ok(());
        }
        // Replay WAL deltas on top of the backing image. Taken under the
        // entry lock so a racing load that loses the install race cannot
        // eat them, and applied with the replay lock released, so series
        // recover in parallel. A replay that fails installs nothing and
        // puts the frames back: every touch fails the same way, and no
        // checkpoint can persist a partial image and reset the WAL.
        let Some((log, frames)) = self.wal.replay.lock().take(series) else {
            if loaded.dirty {
                self.wal.dirty.lock().insert(series.to_owned());
            }
            *s = loaded;
            return Ok(());
        };
        if let Err(e) = apply_wal_deltas(&self.config, series, &mut loaded, &log, &frames) {
            self.wal.replay.lock().put_back(series, log, frames);
            return Err(e);
        }
        // `new` put every replayed series in the set.
        loaded.dirty = true;
        *s = loaded;
        Ok(())
    }

    /// Reads a series image from the backing store (no locks held). A
    /// tail record that carries pending copies marks the image dirty, so
    /// the next checkpoint rewrites it without them.
    fn load_series(&self, series: &str) -> StoreResult<Series> {
        let mut s = Series {
            recovered: true,
            ..Series::default()
        };
        let Some(record) = self.backing.get(&tail_key(series))? else {
            // A fresh series: block records no tail record counts are
            // left by a crash before the first checkpoint, and ignored.
            return Ok(s);
        };
        let tail = decode_tail_record(&record)?;
        s.meta = tail.meta.to_vec();
        s.sealed_points = tail.sealed_points;
        s.dirty = !tail.pending.is_empty();

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
        // next tail record can count them without a copy.
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
            if should_seal(&self.config, &s.tail) {
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

    /// Backing I/O for staged block records — no guard held. Each block
    /// is unpinned once its record lands; one whose put fails stays
    /// pending, with every block after it, and the checkpoint puts them
    /// before the tail record that counts them, so none can be lost.
    fn write_staged(&self, entry: &Mutex<Series>, staged: StagedWrites) -> StoreResult<()> {
        for (seq, key, bytes) in staged.blocks {
            self.backing.put(&key, bytes)?;
            entry.lock().pending.retain(|(s, _)| *s != seq);
        }
        Ok(())
    }

    /// The one append path. Stages the points into the tail under the
    /// series lock and queues one delta frame to the WAL committer;
    /// `ack` resolves when the delta's group commits. An append that
    /// seals a block is no exception: its durability is its delta's, so
    /// the thread that ran it never waits for the device. The seal puts
    /// its block records at once, unsynced, and leaves the tail record
    /// that counts them to the next checkpoint: until then recovery gets
    /// the same points from the WAL and re-seals the same blocks.
    ///
    /// Only a force-seal with nothing to log has no delta to ride: it
    /// puts its block record, unsynced, before acking, and marks the
    /// series dirty so that the checkpoint writes its tail record.
    fn append_via_wal(
        &self,
        series: &str,
        points: &[(u64, f64)],
        meta: Option<&[u8]>,
        force_seal: bool,
        ack: AppendAck,
    ) {
        let ws = &self.wal;
        let entry = self.entry(series);
        if let Err(e) = self.ensure_recovered(series, &entry) {
            ack(Err(e));
            return;
        }

        // One rotation read guard covers the staging, the delta's queue
        // slot and the seal's block puts, so no checkpoint resets the WAL
        // or sweeps this series in between.
        let rotation = ws.rotation.read();
        let (outcome, sealed, ack) = {
            let mut s = entry.lock();
            let base = s.sealed_points + s.tail.count() as u64;
            let outcome = self.stage(&mut s, points, meta, force_seal);
            let sealed = (outcome.sealed > 0).then(|| StagedWrites::of(series, &s));
            let logged = !points.is_empty() || meta.is_some();
            // Whatever changed is left to the checkpoint's tail record.
            if (logged || sealed.is_some()) && !s.dirty {
                s.dirty = true;
                ws.dirty.lock().insert(series.to_string());
            }
            let ack = if logged {
                // Submitted under the series lock, so same-series deltas
                // enqueue in apply order; the committer acks it.
                let record = encode_wal_delta(series, base, &s.meta, points);
                ws.wal.submit_append(record, ack, outcome);
                None
            } else {
                Some(ack)
            };
            (outcome, sealed, ack)
        };
        // The seal's block records, with the series lock released. A
        // failed put costs a logged append nothing: its delta is in the
        // WAL, and the checkpoint puts the still-pending block before the
        // tail record that counts it.
        let written = sealed.map_or(Ok(()), |staged| self.write_staged(&entry, staged));
        drop(rotation);
        // Only an append with nothing to log (an empty one, or a force
        // seal) acks here, after its block put.
        if let Some(ack) = ack {
            ack(written.map(|()| outcome));
        }

        if ws.wal.len() >= TS_WAL_CHECKPOINT_BYTES {
            // Best-effort: a failed checkpoint leaves the WAL longer but
            // never loses data (the dirty set is restored on error).
            let _ = self.checkpoint();
        }
    }

    /// Checkpoint: for every dirty series, in name order, puts its
    /// unwritten blocks and then its tail record, which counts them and
    /// carries none (folding the series' WAL deltas into the backing
    /// store); then syncs the backing store and resets the WAL. The only
    /// writer of tail records. No-op when a checkpoint is already in
    /// flight.
    pub fn checkpoint(&self) -> StoreResult<()> {
        let ws = &self.wal;
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
        // Sorted, so that one sequence of appends writes one log.
        let mut names: Vec<String> = ws.dirty.lock().drain().collect();
        names.sort_unstable();
        for (i, name) in names.iter().enumerate() {
            let entry = self.entry(name);
            if let Err(e) = self.write_checkpoint(name, &entry) {
                // Restore the unswept remainder (this series included)
                // so the next checkpoint retries them; the WAL is not
                // reset, so nothing is lost. Their bits are still set.
                ws.dirty.lock().extend(names[i..].iter().cloned());
                return Err(e);
            }
            entry.lock().dirty = false;
        }
        if ws.fsync == FsyncPolicy::PerGroup {
            self.backing.sync()?;
        }
        ws.wal.reset()
    }

    /// Puts one dirty series' unwritten blocks, then its tail record,
    /// which counts them and carries none.
    fn write_checkpoint(&self, series: &str, entry: &Mutex<Series>) -> StoreResult<()> {
        let staged = StagedWrites::of(series, &entry.lock());
        self.write_staged(entry, staged)?;
        // No append runs under the checkpoint's rotation write guard: the
        // record counts exactly the blocks put above.
        let record = Bytes::from(encode_tail_record(&entry.lock()));
        self.backing.put(&tail_key(series), record)
    }

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

/// Whether `tail` is due to seal: the triggers every append, live or
/// replayed, tests after each point.
fn should_seal(config: &TsConfig, tail: &PointCompressor) -> bool {
    if tail.count() == 0 {
        return false;
    }
    let idx = tail.index();
    tail.count() >= config.seal_points
        || tail.payload_bytes() >= config.seal_bytes
        || idx.max_ts.saturating_sub(idx.min_ts) >= config.seal_age_ms
}

fn seal_tail(s: &mut Series) {
    let bytes = Bytes::from(s.tail.seal_block());
    let index = *s.tail.index();
    let seq = s.sealed.len() as u64;
    s.sealed_points += index.count as u64;
    s.pending.push((seq, bytes.clone()));
    s.sealed.push(SealedBlock { index, bytes });
    s.tail = PointCompressor::new();
}

impl SeriesStore for TsStore {
    fn append_batch(
        &self,
        series: &str,
        points: &[(u64, f64)],
        meta: &[u8],
    ) -> StoreResult<AppendOutcome> {
        self.append_wal_blocking(series, points, Some(meta), false)
    }

    fn append_batch_async(&self, series: &str, points: &[(u64, f64)], meta: &[u8], ack: AppendAck) {
        self.append_via_wal(series, points, Some(meta), false, ack);
    }

    fn barrier_async(&self, ack: AppendAck) {
        // Empty payloads are never written; the callback still resolves
        // in submission order, after every frame queued ahead of it
        // commits — the barrier contract.
        self.wal.wal.submit_with(Bytes::new(), move |r| {
            ack(r.map(|_| AppendOutcome::default()))
        });
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
        self.append_wal_blocking(series, &[], None, true)
            .map(|_| ())
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
///
/// Points are applied as [`TsStore::stage`] applied them live, sealing
/// after each one that trips a trigger, so the image has the blocks it
/// had before the restart; they stay pending until the checkpoint puts
/// them. The triggers are tested point by point only for a delta that
/// can reach one.
fn apply_wal_deltas(
    config: &TsConfig,
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
        let may = may_seal(config, &s.tail, &delta);
        for (ts, v) in delta.points() {
            s.tail.append(ts, v);
            if may && should_seal(config, &s.tail) {
                seal_tail(s);
            }
        }
        s.set_meta(delta.meta);
    }
    Ok(())
}

/// Whether appending `delta`'s points to `tail` can trip a seal
/// trigger: a bound from above on the count, the compressed size and the
/// data-time span the tail would reach.
fn may_seal(config: &TsConfig, tail: &PointCompressor, delta: &WalDelta<'_>) -> bool {
    let n = delta.point_bytes.len() / 16;
    let idx = tail.index();
    let (lo, hi) = delta
        .points()
        .fold((idx.min_ts, idx.max_ts), |(lo, hi), (ts, _)| {
            (lo.min(ts), hi.max(ts))
        });
    tail.count() as usize + n >= config.seal_points as usize
        || tail.payload_bytes() + n * MAX_POINT_BYTES >= config.seal_bytes
        || hi.saturating_sub(lo) >= config.seal_age_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemStore;

    fn engine(config: TsConfig) -> (Arc<MemStore>, TsStore) {
        let backing = Arc::new(MemStore::new());
        let ts = open(&(Arc::clone(&backing) as _), config, &MemMedia::new());
        (backing, ts)
    }

    /// An engine over `backing` whose WAL is `media`: a clone kept by the
    /// caller reopens what the engine logged once it is dropped.
    fn open(backing: &Arc<dyn StateStore>, config: TsConfig, media: &MemMedia) -> TsStore {
        TsStore::new(
            Arc::clone(backing),
            config,
            media.clone(),
            WalConfig::default(),
        )
        .unwrap()
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
        let media = MemMedia::new();
        {
            let ts = open(&backing, TsConfig::sealing_every(8), &media);
            for chunk in pts(0..30).chunks(4) {
                ts.append_batch("s", chunk, b"watermark-7").unwrap();
            }
        }
        // Fresh engine over the same backing and WAL: the "process
        // restart".
        let ts = open(&backing, TsConfig::sealing_every(8), &media);
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
            let ts = open(&backing, TsConfig::sealing_every(8), &MemMedia::new());
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

        let ts = open(&backing, TsConfig::sealing_every(8), &MemMedia::new());
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
            let ts = TsStore::with_defaults(Arc::clone(&backing));
            ts.append_batch("s", &pts(0..10), b"m").unwrap();
            ts.checkpoint().unwrap();
        }
        // A hypothetical TST2 writer bumped the version byte.
        let mut record = backing.get(&tail_key("s")).unwrap().unwrap().to_vec();
        record[3] = b'2';
        backing.put(&tail_key("s"), Bytes::from(record)).unwrap();
        let ts = TsStore::with_defaults(Arc::clone(&backing));
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
        let ts = TsStore::with_defaults(Arc::clone(&backing));
        assert!(matches!(ts.recover("s"), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn committed_block_with_no_copy_is_corrupt() {
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        {
            let ts = open(&backing, TsConfig::sealing_every(4), &MemMedia::new());
            ts.append_batch("s", &pts(0..8), b"").unwrap();
            // A later append and a checkpoint rewrite the tail record
            // with its pending list drained (the block records landed
            // above), so the block record is now the only copy of
            // block 0.
            ts.append_batch("s", &pts(8..9), b"").unwrap();
            ts.checkpoint().unwrap();
        }
        backing.delete(&block_key("s", 0)).unwrap();
        let ts = TsStore::with_defaults(Arc::clone(&backing));
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
        let media = MemMedia::new();
        let ts = open(&backing, TsConfig::default(), &media);
        ts.append_batch("s", &pts(0..5), b"seq=1").unwrap();
        ts.append_batch("s", &pts(5..10), b"seq=2").unwrap();
        drop(ts);
        let fresh = open(&backing, TsConfig::default(), &media);
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
            // 12 points, one seal. The checkpoint's tail record covers
            // every delta; a crash after its puts but before its WAL reset
            // leaves the deltas in the log, as the copy restored below.
            for chunk in pts(0..12).chunks(2) {
                ts.append_batch("s", chunk, b"m").unwrap();
            }
            assert!(backing.get(&tail_key("s")).unwrap().is_none());
            std::fs::copy(&path, path.with_extension("kept")).unwrap();
            ts.checkpoint().unwrap();
            assert!(backing.get(&tail_key("s")).unwrap().is_some());
        }
        std::fs::rename(path.with_extension("kept"), &path).unwrap();
        // Recovery must not double-apply the deltas the checkpoint's tail
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
        Arc::downgrade(&ts.wal.replay.lock().log)
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

    /// A replay that finds a gap in a series' deltas installs nothing:
    /// every touch fails, no checkpoint persists the deltas before the
    /// gap and resets the WAL, and a reopen still finds every frame.
    #[test]
    fn failed_replay_installs_nothing_and_keeps_the_frames() {
        let backing: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let media = MemMedia::new();
        {
            // Bases 0 and 10: the first delta leaves 5 points, the second
            // expects 10.
            let (wal, _) = GroupWal::open_with_media(media.clone(), WalConfig::default()).unwrap();
            for (base, range) in [(0, 0..5), (10, 10..15)] {
                wal.submit_framed(encode_wal_delta("s", base, b"m", &pts(range)), |r| {
                    r.unwrap()
                });
            }
            wal.sync().unwrap();
        }
        let ts = open(&backing, TsConfig::default(), &media);
        for _ in 0..2 {
            assert!(matches!(ts.recover("s"), Err(StoreError::Corrupt(_))));
        }
        assert!(ts.scan_range("s", 0, u64::MAX, 0).is_err());
        assert!(ts.append_batch("s", &pts(15..16), b"m").is_err());
        assert!(ts.checkpoint().is_err());
        assert!(backing.get(&tail_key("s")).unwrap().is_none());
        drop(ts);
        let (_, log) = GroupWal::open_with_media(media, WalConfig::default()).unwrap();
        assert_eq!(log.len(), 2);
    }

    /// A `MemStore` whose `put` starts failing after a set number of
    /// successes (until re-armed), to interrupt a checkpoint sweep — or,
    /// with `lose` set, reports success and keeps nothing, which is what
    /// a crash makes of a write that was never synced. It counts syncs.
    struct FailingPuts {
        inner: MemStore,
        puts_left: std::sync::atomic::AtomicI64,
        lose: std::sync::atomic::AtomicBool,
        syncs: std::sync::atomic::AtomicU64,
    }

    impl FailingPuts {
        fn new() -> Arc<Self> {
            Arc::new(FailingPuts {
                inner: MemStore::new(),
                puts_left: std::sync::atomic::AtomicI64::new(i64::MAX),
                lose: std::sync::atomic::AtomicBool::new(false),
                syncs: std::sync::atomic::AtomicU64::new(0),
            })
        }

        fn syncs(&self) -> u64 {
            self.syncs.load(std::sync::atomic::Ordering::Relaxed)
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
        fn sync(&self) -> StoreResult<()> {
            self.syncs
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(())
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
        let mut set: Vec<String> = ts.wal.dirty.lock().iter().cloned().collect();
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
        let reopened = TsStore::with_defaults(Arc::clone(&backing) as Arc<dyn StateStore>);
        for name in NAMES {
            assert_eq!(reopened.recover(name).unwrap().points, 10);
        }
    }

    #[test]
    fn sealing_append_leaves_its_tail_record_to_the_checkpoint() {
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
        // Crosses the 8-point seal: the block record is written, the
        // tail record is not, and the series stays dirty.
        ts.append_batch("s", &pts(6..9), b"m").unwrap();
        let dirty = (vec!["s".to_string()], vec!["s".to_string()]);
        assert_eq!(dirty_view(&ts, &["s"]), dirty);
        assert!(backing.get(&block_key("s", 0)).unwrap().is_some());
        assert!(backing.get(&tail_key("s")).unwrap().is_none());
        // The checkpoint writes the tail record and clears the bit.
        ts.checkpoint().unwrap();
        assert!(backing.get(&tail_key("s")).unwrap().is_some());
        assert_eq!(dirty_view(&ts, &["s"]), (Vec::new(), Vec::new()));
        // The next delta marks it again.
        ts.append_batch("s", &pts(9..10), b"m").unwrap();
        assert_eq!(dirty_view(&ts, &["s"]), dirty);
    }

    /// A force seal puts its block record and nothing else, unsynced, and
    /// marks the series for the checkpoint, which writes the tail record
    /// that counts the block and syncs.
    #[test]
    fn force_seal_puts_its_block_unsynced_and_marks_the_series() {
        let backing = FailingPuts::new();
        let ts = TsStore::with_wal(
            Arc::clone(&backing) as Arc<dyn StateStore>,
            TsConfig::default(),
            temp_wal("force-seal"),
            WalConfig::default(),
        )
        .unwrap();
        ts.append_batch("s", &pts(0..5), b"m").unwrap();
        ts.checkpoint().unwrap();
        assert_eq!(dirty_view(&ts, &["s"]), (Vec::new(), Vec::new()));
        let syncs = backing.syncs();

        ts.seal("s").unwrap();
        assert_eq!(backing.syncs(), syncs, "a force seal does not sync");
        assert!(backing.inner.get(&block_key("s", 0)).unwrap().is_some());
        let record = backing.inner.get(&tail_key("s")).unwrap().unwrap();
        assert_eq!(decode_tail_record(&record).unwrap().sealed_blocks, 0);
        let dirty = (vec!["s".to_string()], vec!["s".to_string()]);
        assert_eq!(dirty_view(&ts, &["s"]), dirty);

        ts.checkpoint().unwrap();
        assert_eq!(backing.syncs(), syncs + 1);
        let record = backing.inner.get(&tail_key("s")).unwrap().unwrap();
        let tail = decode_tail_record(&record).unwrap();
        assert_eq!((tail.sealed_blocks, tail.pending.len()), (1, 0));
    }

    /// A force seal that a crash cuts off from its checkpoint leaves an
    /// orphan block record. The points come back in the open tail, and
    /// the block that next takes its sequence number replaces the orphan
    /// before any tail record counts it — here through the checkpoint,
    /// because the live put of that block fails.
    #[test]
    fn orphan_block_of_a_lost_force_seal_is_overwritten_before_it_counts() {
        let backing = FailingPuts::new();
        let media = MemMedia::new();
        let config = TsConfig::sealing_every(8);
        {
            let ts = open(&(Arc::clone(&backing) as _), config, &media);
            ts.append_batch("s", &pts(0..5), b"m1").unwrap();
            ts.seal("s").unwrap();
        } // dropped without a checkpoint
        let orphan = backing.inner.get(&block_key("s", 0)).unwrap().unwrap();
        assert_eq!(decode_index(&orphan).unwrap().count, 5);
        assert!(backing.inner.get(&tail_key("s")).unwrap().is_none());

        let ts = open(&(Arc::clone(&backing) as _), config, &media);
        assert_eq!(ts.recover("s").unwrap().points, 5);
        let stats = ts.stats("s");
        assert_eq!((stats.sealed_blocks, stats.tail_points), (0, 5));
        assert_eq!(ts.scan_range("s", 0, u64::MAX, 0).unwrap(), pts(0..5));
        backing
            .puts_left
            .store(0, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(ts.append_batch("s", &pts(5..9), b"m2").unwrap().sealed, 1);
        backing
            .puts_left
            .store(i64::MAX, std::sync::atomic::Ordering::Relaxed);
        let still = backing.inner.get(&block_key("s", 0)).unwrap().unwrap();
        assert_eq!(still, orphan, "the live put failed");

        ts.checkpoint().unwrap();
        let block = backing.inner.get(&block_key("s", 0)).unwrap().unwrap();
        assert_eq!(decode_block(&block).unwrap(), pts(0..8));
        drop(ts);
        let cold = open(&(Arc::clone(&backing) as _), config, &MemMedia::new());
        assert_eq!(cold.scan_range("s", 0, u64::MAX, 0).unwrap(), pts(0..9));
        assert_eq!(cold.recover("s").unwrap().meta.as_ref(), b"m2");
    }

    /// Replay seals where the live appends did: a reopened series has the
    /// blocks of an engine that never stopped, byte for byte, whether a
    /// delta trips a trigger by count, by compressed size or by data-time
    /// span, or trips none — across deltas that the per-delta bound lets
    /// through whole and deltas it sends point by point, and whether the
    /// blocks seal as `TSB1` or, on quarter steps, as `TSB2`.
    #[test]
    fn replay_reseals_where_the_live_appends_did() {
        let configs = [
            TsConfig::sealing_every(7),
            TsConfig {
                seal_bytes: 40,
                ..TsConfig::default()
            },
            TsConfig {
                seal_bytes: 200,
                ..TsConfig::default()
            },
            TsConfig {
                seal_age_ms: 95,
                ..TsConfig::default()
            },
            TsConfig::default(),
        ];
        // Block count, sealed points, tail points and the blocks' bytes.
        let shape = |ts: &TsStore| {
            ts.recover("s").unwrap();
            let entry = ts.entry("s");
            let s = entry.lock();
            let blocks: Vec<Bytes> = s.sealed.iter().map(|b| b.bytes.clone()).collect();
            (s.sealed_points, s.tail.count(), blocks)
        };
        let quarter: Vec<(u64, f64)> = (0..600u64)
            .map(|i| (i * 10, 20.0 + ((i % 16) + (i * 7 % 3 / 2)) as f64 * 0.25))
            .collect();
        let mut step_blocks = 0;
        for config in configs {
            for points in [pts(0..60), quarter.clone()] {
                let media = MemMedia::new();
                let live = open(&(Arc::new(MemStore::new()) as _), config, &media);
                for chunk in points.chunks(4) {
                    live.append_batch("s", chunk, b"m").unwrap();
                }
                let before = shape(&live);
                drop(live);
                let reopened = open(&(Arc::new(MemStore::new()) as _), config, &media);
                assert_eq!(before, shape(&reopened), "{config:?}");
                step_blocks += before.2.iter().filter(|b| b.starts_with(b"TSB2")).count();
            }
        }
        assert!(step_blocks > 0, "no block sealed in integer steps");
    }

    #[test]
    fn sealing_append_is_durable_through_its_wal_delta() {
        let backing = FailingPuts::new();
        let path = temp_wal("seal-delta");
        let reopen = || {
            TsStore::with_wal(
                Arc::clone(&backing) as Arc<dyn StateStore>,
                TsConfig::sealing_every(8),
                &path,
                WalConfig::default(),
            )
            .unwrap()
        };
        {
            let ts = reopen();
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
        let ts = reopen();
        let rec = ts.recover("s").unwrap();
        assert_eq!(rec.points, 13);
        assert_eq!(rec.meta.as_ref(), b"m3");
        ts.append_batch("s", &pts(13..20), b"m4").unwrap();
        assert_eq!(ts.scan_range("s", 0, u64::MAX, 0).unwrap(), pts(0..20));
        // A checkpoint moves it all into the backing store for good.
        ts.checkpoint().unwrap();
        drop(ts);
        let cold = open(
            &(Arc::clone(&backing) as _),
            TsConfig::sealing_every(8),
            &MemMedia::new(),
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
        let cold = open(
            &(Arc::clone(&backing) as _),
            TsConfig::sealing_every(8),
            &MemMedia::new(),
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

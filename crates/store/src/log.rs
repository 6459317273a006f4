//! Log-structured durable store: write-ahead log + in-memory index +
//! snapshot compaction.
//!
//! Layout on disk (inside the store directory):
//!
//! * `snapshot.db` — a checkpoint: one framed `Put` record per live key.
//! * `wal.log`     — framed mutation records appended since the snapshot.
//!
//! Recovery loads the snapshot and replays the WAL; a torn final record
//! (crash mid-append) is truncated silently, a checksum mismatch anywhere
//! else surfaces as [`StoreError::Corrupt`]. When the WAL outgrows
//! `compact_threshold`, the store writes a fresh snapshot and truncates the
//! WAL.
//!
//! All values are also kept in the in-memory index, so reads never touch
//! disk — matching the paper's architecture where the actor tier is an
//! in-memory cache and storage exists for durability.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::api::{Key, StateStore, StoreError, StoreResult};
use crate::codec::{frame_record_with, parse_record};
use crate::wal::{GroupWal, WalConfig, WalCounters, WalStatsSnapshot};

const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;

/// Durability of individual appends.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SyncPolicy {
    /// `fsync` after every append (slow, strongest).
    Always,
    /// Let the OS page cache decide; `sync()` forces it. This is the
    /// default and mirrors DynamoDB's behaviour as seen by a client (the
    /// service acks before our process could observe a local fsync anyway).
    #[default]
    OnDemand,
}

/// Configuration for [`LogStore`].
#[derive(Clone, Debug)]
pub struct LogStoreConfig {
    /// Directory holding `snapshot.db` and `wal.log` (created if missing).
    pub dir: PathBuf,
    /// WAL size that triggers snapshot compaction.
    pub compact_threshold: u64,
    /// Append durability (plain mode only; group-commit mode takes its
    /// fsync policy from the [`WalConfig`]).
    pub sync: SyncPolicy,
    /// When set, appends go through a [`GroupWal`]: a committer thread
    /// coalesces mutations from concurrent writers into one write + one
    /// fsync per group, and `put` returns only after the mutation's
    /// group commits. The on-disk `wal.log` format is identical to
    /// plain mode, so a store can switch modes between opens.
    pub group_commit: Option<WalConfig>,
}

impl LogStoreConfig {
    /// Defaults: 16 MiB compaction threshold, on-demand sync, no group
    /// commit.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        LogStoreConfig {
            dir: dir.into(),
            compact_threshold: 16 * 1024 * 1024,
            sync: SyncPolicy::OnDemand,
            group_commit: None,
        }
    }

    /// Enables group-commit mode (see [`LogStoreConfig::group_commit`]).
    pub fn with_group_commit(mut self, wal: WalConfig) -> Self {
        self.group_commit = Some(wal);
        self
    }
}

struct Writer {
    wal: File,
    wal_len: u64,
}

enum Backend {
    /// Synchronous appends under the writer lock.
    Plain(Mutex<Writer>),
    /// Appends queued to the group-commit committer thread.
    Group {
        wal: GroupWal,
        /// Serializes "apply to index" with "take a WAL queue slot" so
        /// replay order always matches index state: without it two
        /// racing writers to one key could apply in one order and
        /// enqueue in the other, and recovery would resurrect the
        /// loser.
        order: Mutex<()>,
        /// Appends hold this for read; compaction holds it for write so
        /// the snapshot + WAL reset happen with no append in flight
        /// between its index-apply and its queue slot.
        rotation: RwLock<()>,
    },
}

/// The log-structured store.
pub struct LogStore {
    index: RwLock<BTreeMap<Vec<u8>, Bytes>>,
    backend: Backend,
    config: LogStoreConfig,
}

/// Encodes one mutation as a framed record (`len | crc | payload`)
/// directly into `out` (see [`frame_record_with`]).
fn encode_mutation(op: u8, key: &[u8], value: &[u8], out: &mut Vec<u8>) {
    out.reserve(8 + 9 + key.len() + value.len());
    frame_record_with(out, |out| {
        out.push(op);
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
        out.extend_from_slice(value);
    });
}

fn decode_mutation(payload: &[u8]) -> StoreResult<(u8, &[u8], &[u8])> {
    let fail = || StoreError::Corrupt("truncated mutation payload".into());
    if payload.len() < 9 {
        return Err(fail());
    }
    let op = payload[0];
    let klen = u32::from_le_bytes(payload[1..5].try_into().expect("4 bytes")) as usize;
    let rest = &payload[5..];
    if rest.len() < klen + 4 {
        return Err(fail());
    }
    let key = &rest[..klen];
    let vlen = u32::from_le_bytes(rest[klen..klen + 4].try_into().expect("4 bytes")) as usize;
    let value = &rest[klen + 4..];
    if value.len() != vlen {
        return Err(fail());
    }
    Ok((op, key, value))
}

/// Replays framed mutation records from `path` into `index`, returning
/// the byte offset of the last cleanly-parsed record's end (so a torn
/// tail can be physically truncated by the caller).
fn load_records(
    path: &Path,
    index: &mut BTreeMap<Vec<u8>, Bytes>,
    allow_torn_tail: bool,
) -> StoreResult<u64> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    }
    let mut offset = 0;
    while offset < buf.len() {
        match parse_record(&buf[offset..]) {
            Ok(Some((payload, consumed))) => {
                apply_mutation(index, payload)?;
                offset += consumed;
            }
            Ok(None) if allow_torn_tail => break, // crash mid-append: discard tail
            Ok(None) => return Err(StoreError::Corrupt("truncated snapshot record".into())),
            Err(e) => return Err(e),
        }
    }
    Ok(offset as u64)
}

fn apply_mutation(index: &mut BTreeMap<Vec<u8>, Bytes>, payload: &[u8]) -> StoreResult<()> {
    let (op, key, value) = decode_mutation(payload)?;
    match op {
        OP_PUT => {
            index.insert(key.to_vec(), Bytes::copy_from_slice(value));
        }
        OP_DELETE => {
            index.remove(key);
        }
        other => return Err(StoreError::Corrupt(format!("unknown op byte {other}"))),
    }
    Ok(())
}

/// Encodes the unframed mutation payload (`op | klen | key | vlen |
/// value`) for group-commit mode, where the [`GroupWal`] adds the frame.
fn mutation_payload(op: u8, key: &[u8], value: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(9 + key.len() + value.len());
    out.push(op);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value);
    Bytes::from(out)
}

impl LogStore {
    /// Opens (or creates) the store, performing crash recovery.
    pub fn open(config: LogStoreConfig) -> StoreResult<Self> {
        std::fs::create_dir_all(&config.dir)?;
        let mut index = BTreeMap::new();
        load_records(&config.dir.join("snapshot.db"), &mut index, false)?;
        let wal_path = config.dir.join("wal.log");
        let backend = if let Some(wal_config) = config.group_commit {
            // GroupWal::open replays the same frame format and truncates
            // any torn tail itself.
            let (wal, frames) = GroupWal::open(&wal_path, wal_config)?;
            for frame in frames {
                apply_mutation(&mut index, &frame)?;
            }
            Backend::Group {
                wal,
                order: Mutex::new(()),
                rotation: RwLock::new(()),
            }
        } else {
            let valid = load_records(&wal_path, &mut index, true)?;
            // Physically drop a torn tail: without this, appends land
            // after the garbage bytes and the *next* recovery reports
            // mid-log corruption.
            let on_disk = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
            if valid < on_disk {
                OpenOptions::new()
                    .write(true)
                    .open(&wal_path)?
                    .set_len(valid)?;
            }
            let wal = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&wal_path)?;
            let wal_len = wal.metadata()?.len();
            Backend::Plain(Mutex::new(Writer { wal, wal_len }))
        };
        Ok(LogStore {
            index: RwLock::new(index),
            backend,
            config,
        })
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.read().len()
    }

    /// True when no live keys exist.
    pub fn is_empty(&self) -> bool {
        self.index.read().is_empty()
    }

    /// Current WAL size in bytes (observability / compaction tests).
    pub fn wal_len(&self) -> u64 {
        match &self.backend {
            Backend::Plain(writer) => writer.lock().wal_len,
            Backend::Group { wal, .. } => wal.len(),
        }
    }

    /// Group-commit counters (zero in plain mode).
    pub fn wal_stats(&self) -> WalStatsSnapshot {
        match &self.backend {
            Backend::Plain(_) => WalStatsSnapshot::default(),
            Backend::Group { wal, .. } => wal.stats(),
        }
    }

    /// Mirrors group-commit counters into `counters` (no-op in plain
    /// mode). See [`GroupWal::mirror_counters`].
    pub fn mirror_wal_counters(&self, counters: WalCounters) {
        if let Backend::Group { wal, .. } = &self.backend {
            wal.mirror_counters(counters);
        }
    }

    /// Appends one mutation and applies it to the index, atomically with
    /// respect to compaction: the writer lock is held across the WAL write
    /// *and* the index update, and compaction runs *before* the append, so
    /// a snapshot can never be cut from an index that lags the WAL (which
    /// would lose the lagging records when the WAL is truncated).
    /// `durable` selects the configured [`SyncPolicy`]; deferred writes
    /// skip the per-append fsync and rely on [`StateStore::sync`].
    fn append_and_apply(
        &self,
        writer: &Mutex<Writer>,
        framed: Vec<u8>,
        durable: bool,
        apply: impl FnOnce(&mut BTreeMap<Vec<u8>, Bytes>),
    ) -> StoreResult<()> {
        let mut w = writer.lock();
        if w.wal_len + framed.len() as u64 >= self.config.compact_threshold {
            self.compact_plain_locked(&mut w)?;
        }
        w.wal.write_all(&framed)?;
        if durable && self.config.sync == SyncPolicy::Always {
            w.wal.sync_data()?;
        }
        w.wal_len += framed.len() as u64;
        apply(&mut self.index.write());
        Ok(())
    }

    /// Group-commit append: the mutation is applied to the index eagerly
    /// (so the index is always ≥ the WAL — a snapshot cut from it can
    /// only be *ahead* of the log, never behind) and queued to the
    /// committer; with `wait` the call blocks until the mutation's group
    /// commits, without it durability is deferred to the next `sync()`.
    fn append_group(
        &self,
        payload: Bytes,
        wait: bool,
        apply: impl FnOnce(&mut BTreeMap<Vec<u8>, Bytes>),
    ) -> StoreResult<()> {
        let Backend::Group {
            wal,
            order,
            rotation,
        } = &self.backend
        else {
            unreachable!("append_group on plain backend");
        };
        let ticket = {
            let _rotation = rotation.read();
            let _order = order.lock();
            apply(&mut self.index.write());
            if wait {
                Some(wal.submit(payload))
            } else {
                wal.submit_with(payload, |_| {});
                None
            }
        };
        if let Some(ticket) = ticket {
            ticket.wait()?;
        }
        if wal.len() >= self.config.compact_threshold {
            self.try_compact_group()?;
        }
        Ok(())
    }

    /// Rewrites the snapshot from the in-memory index and truncates the
    /// WAL. Called with the writer lock held so no appends interleave.
    fn compact_plain_locked(&self, w: &mut Writer) -> StoreResult<()> {
        let buf = {
            // Serialize under the index read guard, but do the file I/O
            // with the guard dropped: the writer lock (held by every
            // caller) is what freezes the index against mutation, so the
            // snapshot stays consistent while readers proceed unblocked
            // during the writes.
            let index = self.index.read();
            let mut buf = Vec::new();
            for (key, value) in index.iter() {
                encode_mutation(OP_PUT, key, value, &mut buf);
            }
            buf
        };
        self.write_snapshot(&buf)?;
        // Truncate the WAL now that the snapshot covers everything.
        w.wal = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.config.dir.join("wal.log"))?;
        w.wal_len = 0;
        Ok(())
    }

    /// Group-mode compaction. The rotation write lock excludes appenders;
    /// frames already queued to the committer are covered by the snapshot
    /// (the index is always ≥ the WAL), and the reset is itself a queued
    /// op, so it lands *after* them in WAL order.
    fn compact_group_locked(&self, wal: &GroupWal) -> StoreResult<()> {
        let buf = {
            let index = self.index.read();
            let mut buf = Vec::new();
            for (key, value) in index.iter() {
                encode_mutation(OP_PUT, key, value, &mut buf);
            }
            buf
        };
        self.write_snapshot(&buf)?;
        wal.reset()
    }

    /// Opportunistic group-mode compaction: skips (rather than queues
    /// behind) a compaction already in flight.
    fn try_compact_group(&self) -> StoreResult<()> {
        let Backend::Group { wal, rotation, .. } = &self.backend else {
            return Ok(());
        };
        let Some(_guard) = rotation.try_write() else {
            return Ok(());
        };
        if wal.len() < self.config.compact_threshold {
            return Ok(()); // raced: someone else already compacted
        }
        self.compact_group_locked(wal)
    }

    fn write_snapshot(&self, buf: &[u8]) -> StoreResult<()> {
        let tmp_path = self.config.dir.join("snapshot.tmp");
        let final_path = self.config.dir.join("snapshot.db");
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(buf)?;
        tmp.sync_data()?;
        std::fs::rename(&tmp_path, &final_path)?;
        Ok(())
    }

    /// Forces a compaction regardless of WAL size.
    pub fn compact(&self) -> StoreResult<()> {
        match &self.backend {
            Backend::Plain(writer) => {
                let mut w = writer.lock();
                self.compact_plain_locked(&mut w)
            }
            Backend::Group { wal, rotation, .. } => {
                let _guard = rotation.write();
                self.compact_group_locked(wal)
            }
        }
    }
}

impl StateStore for LogStore {
    fn get(&self, key: &Key) -> StoreResult<Option<Bytes>> {
        Ok(self.index.read().get(key.as_bytes()).cloned())
    }

    fn put(&self, key: &Key, value: Bytes) -> StoreResult<()> {
        match &self.backend {
            Backend::Plain(writer) => {
                // Encode first (borrowing `value`), then move the same
                // handle into the index — no refcount churn, no byte
                // copies beyond the frame.
                let mut framed = Vec::new();
                encode_mutation(OP_PUT, key.as_bytes(), &value, &mut framed);
                self.append_and_apply(writer, framed, true, move |index| {
                    index.insert(key.as_bytes().to_vec(), value);
                })
            }
            Backend::Group { .. } => {
                let payload = mutation_payload(OP_PUT, key.as_bytes(), &value);
                self.append_group(payload, true, move |index| {
                    index.insert(key.as_bytes().to_vec(), value);
                })
            }
        }
    }

    fn put_deferred(&self, key: &Key, value: Bytes) -> StoreResult<()> {
        match &self.backend {
            Backend::Plain(writer) => {
                let mut framed = Vec::new();
                encode_mutation(OP_PUT, key.as_bytes(), &value, &mut framed);
                self.append_and_apply(writer, framed, false, move |index| {
                    index.insert(key.as_bytes().to_vec(), value);
                })
            }
            Backend::Group { .. } => {
                let payload = mutation_payload(OP_PUT, key.as_bytes(), &value);
                self.append_group(payload, false, move |index| {
                    index.insert(key.as_bytes().to_vec(), value);
                })
            }
        }
    }

    fn delete(&self, key: &Key) -> StoreResult<()> {
        match &self.backend {
            Backend::Plain(writer) => {
                let mut framed = Vec::new();
                encode_mutation(OP_DELETE, key.as_bytes(), &[], &mut framed);
                self.append_and_apply(writer, framed, true, |index| {
                    index.remove(key.as_bytes());
                })
            }
            Backend::Group { .. } => {
                let payload = mutation_payload(OP_DELETE, key.as_bytes(), &[]);
                self.append_group(payload, true, |index| {
                    index.remove(key.as_bytes());
                })
            }
        }
    }

    fn scan_prefix(&self, prefix: &[u8]) -> StoreResult<Vec<(Key, Bytes)>> {
        let index = self.index.read();
        Ok(index
            .range(prefix.to_vec()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (Key::from_encoded(k), v.clone()))
            .collect())
    }

    fn sync(&self) -> StoreResult<()> {
        match &self.backend {
            Backend::Plain(writer) => {
                writer.lock().wal.sync_data()?;
                Ok(())
            }
            Backend::Group { wal, .. } => wal.sync(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aodb-logstore-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn k(p: &str) -> Key {
        Key::new("t", p)
    }

    #[test]
    fn basic_roundtrip() {
        let dir = temp_dir("basic");
        let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
        store.put(&k("a"), Bytes::from_static(b"1")).unwrap();
        store.put(&k("b"), Bytes::from_static(b"2")).unwrap();
        store.delete(&k("a")).unwrap();
        assert_eq!(store.get(&k("a")).unwrap(), None);
        assert_eq!(store.get(&k("b")).unwrap(), Some(Bytes::from_static(b"2")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
            for i in 0..100 {
                store
                    .put(&k(&format!("{i:03}")), Bytes::from(format!("v{i}")))
                    .unwrap();
            }
            store.delete(&k("050")).unwrap();
        }
        let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
        assert_eq!(store.len(), 99);
        assert_eq!(store.get(&k("050")).unwrap(), None);
        assert_eq!(
            store.get(&k("042")).unwrap(),
            Some(Bytes::from_static(b"v42"))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_write_is_discarded() {
        let dir = temp_dir("torn");
        {
            let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
            store
                .put(&k("safe"), Bytes::from_static(b"committed"))
                .unwrap();
            store
                .put(&k("torn"), Bytes::from_static(b"in-flight"))
                .unwrap();
        }
        // Chop bytes off the WAL tail to simulate a crash mid-append.
        let wal_path = dir.join("wal.log");
        let data = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &data[..data.len() - 7]).unwrap();

        let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
        assert_eq!(
            store.get(&k("safe")).unwrap(),
            Some(Bytes::from_static(b"committed"))
        );
        assert_eq!(store.get(&k("torn")).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_is_reported() {
        let dir = temp_dir("corrupt");
        {
            let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
            store.put(&k("one"), Bytes::from_static(b"1111")).unwrap();
            store.put(&k("two"), Bytes::from_static(b"2222")).unwrap();
        }
        let wal_path = dir.join("wal.log");
        let mut data = std::fs::read(&wal_path).unwrap();
        data[12] ^= 0xA5; // flip a byte inside the first record's payload
        std::fs::write(&wal_path, &data).unwrap();
        assert!(matches!(
            LogStore::open(LogStoreConfig::new(&dir)),
            Err(StoreError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_shrinks_wal_and_preserves_data() {
        let dir = temp_dir("compact");
        let mut config = LogStoreConfig::new(&dir);
        config.compact_threshold = 4 * 1024;
        let store = LogStore::open(config).unwrap();
        // Overwrite a small key set many times: log >> live data.
        for round in 0..200 {
            for i in 0..10 {
                store
                    .put(&k(&format!("{i}")), Bytes::from(format!("round-{round}")))
                    .unwrap();
            }
        }
        assert!(store.wal_len() < 4 * 1024, "wal should have been compacted");
        drop(store);
        let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
        assert_eq!(store.len(), 10);
        assert_eq!(
            store.get(&k("3")).unwrap(),
            Some(Bytes::from_static(b"round-199"))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_after_recovery() {
        let dir = temp_dir("scan");
        {
            let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
            for i in 0..5 {
                store
                    .put(
                        &Key::with_sort("t", "p", &format!("{i}")),
                        Bytes::from(format!("{i}")),
                    )
                    .unwrap();
            }
            store.compact().unwrap();
            store
                .put(&Key::with_sort("t", "p", "9"), Bytes::from_static(b"9"))
                .unwrap();
        }
        let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
        let hits = store.scan_prefix(&Key::partition_prefix("t", "p")).unwrap();
        assert_eq!(hits.len(), 6);
        assert_eq!(hits.last().unwrap().1, Bytes::from_static(b"9"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn group_config(dir: &Path) -> LogStoreConfig {
        LogStoreConfig::new(dir).with_group_commit(WalConfig::default())
    }

    #[test]
    fn group_mode_roundtrip_and_reopen_plain() {
        let dir = temp_dir("group-roundtrip");
        {
            let store = LogStore::open(group_config(&dir)).unwrap();
            store.put(&k("a"), Bytes::from_static(b"1")).unwrap();
            store.put(&k("b"), Bytes::from_static(b"2")).unwrap();
            store.delete(&k("a")).unwrap();
            assert_eq!(store.get(&k("a")).unwrap(), None);
            assert!(store.wal_stats().groups >= 1);
        }
        // The on-disk format is shared: a plain-mode open replays a
        // group-mode log (and vice versa).
        let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
        assert_eq!(store.get(&k("a")).unwrap(), None);
        assert_eq!(store.get(&k("b")).unwrap(), Some(Bytes::from_static(b"2")));
        drop(store);
        let store = LogStore::open(group_config(&dir)).unwrap();
        assert_eq!(store.get(&k("b")).unwrap(), Some(Bytes::from_static(b"2")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_mode_concurrent_writers_coalesce() {
        use std::sync::Arc;
        let dir = temp_dir("group-concurrent");
        let store = Arc::new(LogStore::open(group_config(&dir)).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        store
                            .put(
                                &Key::with_sort("t", &format!("w{t}"), &format!("{i:04}")),
                                Bytes::from_static(b"x"),
                            )
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 1000);
        let stats = store.wal_stats();
        assert_eq!(stats.frames, 1000);
        assert_eq!(stats.fsyncs, stats.groups, "one fsync per group");
        drop(store);
        let store = LogStore::open(group_config(&dir)).unwrap();
        assert_eq!(store.len(), 1000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_mode_compaction_preserves_data() {
        let dir = temp_dir("group-compact");
        let mut config = group_config(&dir);
        config.compact_threshold = 4 * 1024;
        let store = LogStore::open(config).unwrap();
        for round in 0..200 {
            for i in 0..10 {
                store
                    .put(&k(&format!("{i}")), Bytes::from(format!("round-{round}")))
                    .unwrap();
            }
        }
        assert!(
            store.wal_len() < 64 * 1024,
            "wal should have been compacted (len {})",
            store.wal_len()
        );
        drop(store);
        let store = LogStore::open(group_config(&dir)).unwrap();
        assert_eq!(store.len(), 10);
        assert_eq!(
            store.get(&k("3")).unwrap(),
            Some(Bytes::from_static(b"round-199"))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_mode_deferred_put_is_visible_and_synced() {
        let dir = temp_dir("group-deferred");
        {
            let store = LogStore::open(group_config(&dir)).unwrap();
            for i in 0..50 {
                store
                    .put_deferred(&k(&format!("{i:02}")), Bytes::from(format!("v{i}")))
                    .unwrap();
            }
            // Deferred writes are immediately readable...
            assert_eq!(store.len(), 50);
            // ...and one sync makes the whole batch durable.
            store.sync().unwrap();
        }
        let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
        assert_eq!(store.len(), 50);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_mode_truncates_torn_tail_physically() {
        let dir = temp_dir("torn-truncate");
        {
            let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
            store.put(&k("safe"), Bytes::from_static(b"ok")).unwrap();
            store.put(&k("torn"), Bytes::from_static(b"gone")).unwrap();
        }
        let wal_path = dir.join("wal.log");
        let data = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &data[..data.len() - 3]).unwrap();
        {
            // Recovery drops the torn record AND truncates the file, so
            // this append lands cleanly after the committed prefix...
            let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
            store.put(&k("after"), Bytes::from_static(b"new")).unwrap();
        }
        // ...and the next recovery sees no corruption.
        let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
        assert_eq!(
            store.get(&k("safe")).unwrap(),
            Some(Bytes::from_static(b"ok"))
        );
        assert_eq!(store.get(&k("torn")).unwrap(), None);
        assert_eq!(
            store.get(&k("after")).unwrap(),
            Some(Bytes::from_static(b"new"))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers() {
        use std::sync::Arc;
        let dir = temp_dir("concurrent");
        let store = Arc::new(LogStore::open(LogStoreConfig::new(&dir)).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        store
                            .put(
                                &Key::with_sort("t", &format!("w{t}"), &format!("{i:04}")),
                                Bytes::from_static(b"x"),
                            )
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 1000);
        drop(store);
        let store = LogStore::open(LogStoreConfig::new(&dir)).unwrap();
        assert_eq!(store.len(), 1000);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

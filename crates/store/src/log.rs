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
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::api::{Key, StateStore, StoreError, StoreResult};
use crate::codec::{self, frame_record_with, replay_framed, Reader};

const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;

/// Configuration for [`LogStore`].
#[derive(Clone, Debug)]
pub struct LogStoreConfig {
    /// Directory holding `snapshot.db` and `wal.log` (created if missing).
    pub dir: PathBuf,
    /// WAL size that triggers snapshot compaction.
    pub compact_threshold: u64,
}

impl LogStoreConfig {
    /// Defaults: 16 MiB compaction threshold.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        LogStoreConfig {
            dir: dir.into(),
            compact_threshold: 16 * 1024 * 1024,
        }
    }
}

struct Writer {
    /// Shared so that [`StateStore::sync`] can fsync without holding the
    /// writer lock.
    wal: Arc<File>,
    wal_len: u64,
}

/// The log-structured store. A write is in the OS page cache when it
/// returns; [`StateStore::sync`] makes every earlier write durable.
pub struct LogStore {
    index: RwLock<BTreeMap<Vec<u8>, Bytes>>,
    writer: Mutex<Writer>,
    config: LogStoreConfig,
}

/// Encodes one mutation as a framed record (`len | crc | payload`)
/// directly into `out` (see [`frame_record_with`]): `op u8 | key_len u32
/// | key | value_len u32 | value`.
fn encode_mutation(op: u8, key: &[u8], value: &[u8], out: &mut Vec<u8>) {
    out.reserve(8 + 9 + key.len() + value.len());
    frame_record_with(out, |out| {
        let mut w = codec::Writer::over(out);
        w.u8(op);
        w.u32_prefixed(key);
        w.u32_prefixed(value);
    });
}

/// Replays the framed mutation records of `path` into `index`, returning
/// the length of the file's clean prefix (so a torn tail can be
/// physically truncated by the caller). A missing file is empty.
fn load_records(
    path: &Path,
    index: &mut BTreeMap<Vec<u8>, Bytes>,
    allow_torn_tail: bool,
) -> StoreResult<u64> {
    let buf = match std::fs::read(path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    let clean = replay_framed(&buf, |payload| apply_mutation(index, payload))?;
    if clean < buf.len() && !allow_torn_tail {
        return Err(StoreError::Corrupt("truncated snapshot record".into()));
    }
    Ok(clean as u64)
}

fn apply_mutation(index: &mut BTreeMap<Vec<u8>, Bytes>, payload: &[u8]) -> StoreResult<()> {
    let (op, key, value) = Reader::whole(payload, "log mutation record", |r| {
        Ok((r.u8()?, r.u32_prefixed()?, r.u32_prefixed()?))
    })?;
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

impl LogStore {
    /// Opens (or creates) the store, performing crash recovery.
    pub fn open(config: LogStoreConfig) -> StoreResult<Self> {
        std::fs::create_dir_all(&config.dir)?;
        let mut index = BTreeMap::new();
        load_records(&config.dir.join("snapshot.db"), &mut index, false)?;
        let wal_path = config.dir.join("wal.log");
        let valid = load_records(&wal_path, &mut index, true)?;
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)?;
        // Physically drop a torn tail: without this, appends land
        // after the garbage bytes and the *next* recovery reports
        // mid-log corruption.
        if valid < wal.metadata()?.len() {
            wal.set_len(valid)?;
        }
        Ok(LogStore {
            index: RwLock::new(index),
            writer: Mutex::new(Writer {
                wal: Arc::new(wal),
                wal_len: valid,
            }),
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
        self.writer.lock().wal_len
    }

    /// Appends one mutation and applies it to the index, atomically with
    /// respect to compaction: the writer lock is held across the WAL write
    /// *and* the index update, and compaction runs *before* the append, so
    /// a snapshot can never be cut from an index that lags the WAL (which
    /// would lose the lagging records when the WAL is truncated).
    fn append_and_apply(
        &self,
        framed: Vec<u8>,
        apply: impl FnOnce(&mut BTreeMap<Vec<u8>, Bytes>),
    ) -> StoreResult<()> {
        let mut w = self.writer.lock();
        if w.wal_len + framed.len() as u64 >= self.config.compact_threshold {
            self.compact_locked(&mut w)?;
        }
        (&*w.wal).write_all(&framed)?;
        w.wal_len += framed.len() as u64;
        apply(&mut self.index.write());
        Ok(())
    }

    /// Rewrites the snapshot from the in-memory index and truncates the
    /// WAL. Called with the writer lock held so no appends interleave.
    fn compact_locked(&self, w: &mut Writer) -> StoreResult<()> {
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
        w.wal = Arc::new(
            OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(self.config.dir.join("wal.log"))?,
        );
        w.wal_len = 0;
        Ok(())
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
        let mut w = self.writer.lock();
        self.compact_locked(&mut w)
    }
}

impl StateStore for LogStore {
    fn get(&self, key: &Key) -> StoreResult<Option<Bytes>> {
        Ok(self.index.read().get(key.as_bytes()).cloned())
    }

    fn put(&self, key: &Key, value: Bytes) -> StoreResult<()> {
        // Encode first (borrowing `value`), then move the same handle
        // into the index — no refcount churn, no byte copies beyond the
        // frame.
        let mut framed = Vec::new();
        encode_mutation(OP_PUT, key.as_bytes(), &value, &mut framed);
        self.append_and_apply(framed, move |index| {
            index.insert(key.as_bytes().to_vec(), value);
        })
    }

    fn delete(&self, key: &Key) -> StoreResult<()> {
        let mut framed = Vec::new();
        encode_mutation(OP_DELETE, key.as_bytes(), &[], &mut framed);
        self.append_and_apply(framed, |index| {
            index.remove(key.as_bytes());
        })
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
        // Every put that returned before this call has written its
        // bytes; the fsync itself runs with the writer lock released, so
        // appenders do not stall behind the device. A compaction in
        // between truncates this same file after syncing a snapshot that
        // covers it.
        let wal = {
            let w = self.writer.lock();
            Arc::clone(&w.wal)
        };
        wal.sync_data()?;
        Ok(())
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

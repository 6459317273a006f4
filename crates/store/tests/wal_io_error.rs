//! Real media errors on the group-commit WAL, as opposed to injected
//! kills: a `write_all` that fails with ENOSPC and a `sync_data` that
//! fails with EIO, each in the middle of the log's life. Either one ends
//! the committer through its one failure exit, so:
//!
//! * every waiter of the failing group, and every frame queued behind
//!   it, resolves to `Err` carrying the media's error;
//! * nothing is acked after the error, and later submissions fail at
//!   once;
//! * every frame acked before the error is in the durable prefix.

use std::io;
use std::sync::mpsc;
use std::time::Duration;

use aodb_store::{Bytes, GroupWal, MemMedia, StoreResult, WalConfig, WalMedia};

const ENOSPC: i32 = 28;
const EIO: i32 = 5;

/// Frames committed one group at a time before the failing group.
const WARMUP: usize = 3;
/// Frames submitted back to back once the log is mid-life.
const BURST: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Fails {
    Write,
    Sync,
}

/// [`MemMedia`] whose `at`-th non-empty `write_all` (or `at`-th
/// `sync_data`) fails with `errno` and leaves the media untouched.
struct FailingMedia {
    inner: MemMedia,
    fails: Fails,
    at: u64,
    errno: i32,
    writes: u64,
    syncs: u64,
}

impl FailingMedia {
    fn hit(&mut self, op: Fails) -> io::Result<()> {
        let count = match op {
            Fails::Write => &mut self.writes,
            Fails::Sync => &mut self.syncs,
        };
        let n = *count;
        *count += 1;
        if op == self.fails && n == self.at {
            return Err(io::Error::from_raw_os_error(self.errno));
        }
        Ok(())
    }
}

impl WalMedia for FailingMedia {
    fn contents(&mut self) -> io::Result<Vec<u8>> {
        self.inner.contents()
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if !buf.is_empty() {
            self.hit(Fails::Write)?;
        }
        self.inner.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.hit(Fails::Sync)?;
        self.inner.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_to(pos)
    }
}

fn contains(haystack: &[u8], payload: &[u8]) -> bool {
    haystack.windows(payload.len()).any(|w| w == payload)
}

fn payload(i: usize) -> Bytes {
    Bytes::from(format!("frame-{i:03}"))
}

/// Fails group `WARMUP` with `errno` at `fails`, and checks the outcome
/// of every frame submitted before and after.
fn scenario(fails: Fails, errno: i32) {
    let media = MemMedia::new();
    let (wal, _) = GroupWal::open_with_media(
        FailingMedia {
            inner: media.clone(),
            fails,
            at: WARMUP as u64,
            errno,
            writes: 0,
            syncs: 0,
        },
        WalConfig::default(),
    )
    .unwrap();
    let media_error = io::Error::from_raw_os_error(errno).to_string();

    // One group per frame: under the default policy each write is
    // followed by its own sync, so the failing operation belongs to the
    // first burst group.
    for i in 0..WARMUP {
        wal.submit(payload(i)).wait().unwrap();
    }
    let (tx, rx) = mpsc::channel::<(usize, StoreResult<()>)>();
    for i in WARMUP..WARMUP + BURST {
        let tx = tx.clone();
        wal.submit_with(payload(i), move |r| tx.send((i, r)).unwrap());
    }
    let outcomes: Vec<(usize, StoreResult<()>)> = (0..BURST)
        .map(|_| {
            rx.recv_timeout(Duration::from_secs(30))
                .expect("a waiter never woke")
        })
        .collect();

    // Callbacks resolve in submission order; none of the burst is acked.
    let order: Vec<usize> = outcomes.iter().map(|(i, _)| *i).collect();
    assert_eq!(order, (WARMUP..WARMUP + BURST).collect::<Vec<_>>());
    for (i, r) in &outcomes {
        match r {
            Err(e) => assert!(
                e.to_string().contains(&media_error),
                "frame {i} failed with {e}, not the media's error"
            ),
            Ok(()) => panic!("frame {i} acked after the media error"),
        }
    }

    // The WAL is dead: later submissions fail at once.
    assert!(wal.submit(payload(999)).wait().is_err());
    assert!(wal.sync().is_err());

    // Acked before the error ⇒ durable; the failing group is not.
    let durable = media.durable();
    for i in 0..WARMUP {
        assert!(
            contains(&durable, &payload(i)),
            "acked frame {i} not durable"
        );
    }
    assert!(!contains(&durable, &payload(WARMUP)));
    drop(wal);
}

#[test]
fn write_enospc_fails_the_group_and_everything_behind_it() {
    scenario(Fails::Write, ENOSPC);
}

#[test]
fn fsync_eio_fails_the_group_and_everything_behind_it() {
    scenario(Fails::Sync, EIO);
}

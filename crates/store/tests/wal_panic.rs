//! Crashed-committer regression: when the committer thread dies mid-run
//! (panic injection via `arm_panic`), every pending submitter — blocked
//! in `WalTicket::wait` or waiting on a callback — must be woken with an
//! error. A committer that unwinds without resolving its acks would
//! leave waiters blocked on a condvar forever; the `Done` drop guard and
//! the `run_committer` catch_unwind close both halves (in-flight group
//! vs still-queued ops).

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use aodb_store::{Bytes, GroupWal, WalConfig};

fn temp_wal(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("aodb-wal-panic-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("wal.log")
}

/// Every submitter must come back (with an error) within the harness
/// timeout; a hang here is exactly the regression this test pins.
const WAKE_BUDGET: Duration = Duration::from_secs(30);

#[test]
fn committer_panic_wakes_all_pending_submitters() {
    let path = temp_wal("wake");
    let (wal, _) = GroupWal::open(&path, WalConfig::default()).unwrap();
    let wal = Arc::new(wal);

    // Let one real group commit first so the log is mid-life.
    wal.submit(Bytes::from_static(b"warmup")).wait().unwrap();

    // Arm the panic on the next non-empty group, then pile on
    // submitters from several threads. Which submissions land in the
    // fatal group and which are still queued behind it is up to
    // scheduling — both classes must resolve.
    wal.arm_panic(1);
    let (tx, rx) = mpsc::channel::<Result<(), String>>();
    let writers: Vec<_> = (0..4)
        .map(|t| {
            let wal = Arc::clone(&wal);
            let tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..8u32 {
                    let r = wal
                        .submit(Bytes::from(format!("{t}:{i}")))
                        .wait()
                        .map_err(|e| e.to_string());
                    tx.send(r).unwrap();
                }
            })
        })
        .collect();
    drop(tx);

    let mut acks = 0usize;
    let mut errors = 0usize;
    while let Ok(r) = rx.recv_timeout(WAKE_BUDGET) {
        match r {
            Ok(()) => acks += 1,
            Err(_) => errors += 1,
        }
    }
    assert_eq!(
        acks + errors,
        32,
        "a submitter never woke: {acks} acks + {errors} errors"
    );
    // The armed group had at least one frame in it, and everything after
    // the death fails fast — so at least one error must surface.
    assert!(errors > 0, "committer panic produced no errors");

    for w in writers {
        w.join().unwrap();
    }

    // Post-mortem submissions fail fast rather than queueing forever.
    assert!(wal.submit(Bytes::from_static(b"late")).wait().is_err());

    // Callback-style submissions resolve too (same Done machinery, but
    // pin it explicitly: a leaked callback is a leaked ReplyTo upstream).
    let (ctx, crx) = mpsc::channel();
    wal.submit_with(Bytes::from_static(b"cb"), move |r| {
        ctx.send(r.is_err()).unwrap();
    });
    assert!(
        crx.recv_timeout(WAKE_BUDGET).expect("callback never ran"),
        "post-crash callback must see an error"
    );

    // The pre-crash group survives recovery.
    drop(wal);
    let (_, recovered) = GroupWal::open(&path, WalConfig::default()).unwrap();
    assert_eq!(recovered[0].as_ref(), b"warmup");
}

//! Model suite for the store's group-commit WAL.
//!
//! The real `GroupWal` runs under the checker over [`MemMedia`], whose
//! explicit durability watermark (`durable()` = the fsync-covered prefix)
//! stands in for the page cache: everything the committer wrote but did
//! not sync would be lost with the process. The invariants are the
//! group-commit contract itself:
//!
//! * **ack ⇒ durable** — a submitter whose ticket resolved `Ok` finds its
//!   payload inside the durable prefix, under *every* interleaving of
//!   submitters, committer, and crash injection;
//! * **barrier ordering** — `sync()` resolves only after every frame
//!   queued before it (in-flight originals included) is durable;
//! * **crashes never ack lost frames** — with an armed `CrashPlan`, an
//!   `Ok` ack still implies durability, and every waiter resolves;
//! * **no lost wake-up** — submitters notify the committer only when its
//!   `waiting` flag says it is parked; no interleaving of a submit with
//!   the committer going to sleep may strand a frame or its ack.
//!
//! The teeth test flips `ack_before_fsync_for_test` and requires the
//! checker to *find* the contract violation and print a replayable
//! `MODEL_SCHEDULE` line — proving the suite has discriminating power.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64 as StdU64, Ordering};
use std::sync::Arc;

use aodb_store::codec::FramedRecord;
use aodb_store::{Bytes, CrashPlan, CrashPoint, FsyncPolicy, GroupWal, MemMedia, WalConfig};
use modelcheck::{model, model_report, thread};

/// True when `payload` occurs as a contiguous byte run inside `haystack`
/// (payloads below are distinct sentinels, so containment ⇔ the frame's
/// record made it into the prefix).
fn contains(haystack: &[u8], payload: &[u8]) -> bool {
    haystack.windows(payload.len()).any(|w| w == payload)
}

#[test]
fn acked_frames_are_durable_under_all_schedules() {
    let report = model_report("wal_ack_durability", || {
        let media = MemMedia::new();
        let wal = Arc::new(GroupWal::open_with_media(media.clone(), WalConfig::default()).unwrap());
        let submitters: Vec<_> = (0..2u8)
            .map(|t| {
                let wal = Arc::clone(&wal);
                let media = media.clone();
                let payload: &'static [u8] = if t == 0 { b"frame-zero" } else { b"frame-one!" };
                thread::spawn(move || {
                    let ticket = wal.submit(Bytes::from_static(payload));
                    if ticket.wait().is_ok() {
                        // The ack just resolved; the fsync must already
                        // have covered this frame.
                        assert!(
                            contains(&media.durable(), payload),
                            "acked frame not durable"
                        );
                    }
                })
            })
            .collect();
        for h in submitters {
            h.join().unwrap();
        }
        drop(wal); // joins the committer through the model scheduler
    });
    assert!(report.schedules > 1, "no exploration happened: {report:?}");
}

#[test]
fn barrier_resolves_behind_inflight_originals() {
    model("wal_barrier_ordering", || {
        // OnDemand: plain acks mean only "written", so the barrier is
        // the sole source of durability — exactly the edge under test.
        let config = WalConfig {
            fsync_policy: FsyncPolicy::OnDemand,
        };
        let media = MemMedia::new();
        let wal = Arc::new(GroupWal::open_with_media(media.clone(), config).unwrap());

        // A concurrent submitter keeps the committer busy with an
        // in-flight original the barrier must order behind when it lands
        // first in the queue.
        let noise = {
            let wal = Arc::clone(&wal);
            thread::spawn(move || {
                let _ = wal.submit(Bytes::from_static(b"noise-frame")).wait();
            })
        };

        let ticket = wal.submit(Bytes::from_static(b"ordered-frame"));
        wal.sync().unwrap();
        // Queue order: ordered-frame precedes the barrier, so the forced
        // fsync covers it no matter how groups were cut.
        assert!(
            contains(&media.durable(), b"ordered-frame"),
            "barrier resolved before an earlier frame was durable"
        );
        ticket.wait().unwrap();
        noise.join().unwrap();
        drop(wal);
    });
}

#[test]
fn injected_crash_never_acks_lost_frames() {
    // Two representative boundaries: before anything reached the media,
    // and the durable-but-unacked direction.
    for point in [
        CrashPoint::BeforeGroupWrite,
        CrashPoint::AfterFsyncBeforeAck,
    ] {
        let name: &'static str = match point {
            CrashPoint::BeforeGroupWrite => "wal_crash_before_write",
            _ => "wal_crash_after_fsync",
        };
        model(name, move || {
            let media = MemMedia::new();
            let wal =
                Arc::new(GroupWal::open_with_media(media.clone(), WalConfig::default()).unwrap());
            wal.arm_crash(CrashPlan { point, at_group: 0 });
            let submitters: Vec<_> = (0..2u8)
                .map(|t| {
                    let wal = Arc::clone(&wal);
                    let media = media.clone();
                    let payload: &'static [u8] = if t == 0 {
                        b"crash-frame-a"
                    } else {
                        b"crash-frame-b"
                    };
                    thread::spawn(move || {
                        // Every waiter must resolve (no hang — a hang is
                        // a deadlock the checker reports), and an Ok ack
                        // must still mean durable.
                        if wal.submit(Bytes::from_static(payload)).wait().is_ok() {
                            assert!(
                                contains(&media.durable(), payload),
                                "crash acked a lost frame"
                            );
                        }
                    })
                })
                .collect();
            for h in submitters {
                h.join().unwrap();
            }
            drop(wal);
        });
    }
}

#[test]
fn parked_only_notify_strands_no_frame_and_no_ack() {
    model("wal_parked_notify_no_delay", || {
        let media = MemMedia::new();
        let wal = Arc::new(GroupWal::open_with_media(media.clone(), WalConfig::default()).unwrap());
        // Each submitter waits for its first ack before it submits
        // again, so the committer gets to park between frames and
        // every submit races a park. One thread hands over bare
        // payloads, the other records it framed itself. A frame the
        // committer never hears about leaves its waiter blocked for
        // good — a deadlock, which the checker reports as a failure.
        let submitters: Vec<_> = (0..2u8)
            .map(|t| {
                let wal = Arc::clone(&wal);
                thread::spawn(move || {
                    for round in 0..2u8 {
                        let payload = [b'a' + t, b'0' + round, b'-', b'p', b'a', b'r', b'k'];
                        if t == 0 {
                            wal.submit(Bytes::copy_from_slice(&payload))
                                .wait()
                                .expect("frame acked");
                        } else {
                            let (tx, rx) = std::sync::mpsc::channel();
                            let record = FramedRecord::build(payload.len(), |out| {
                                out.extend_from_slice(&payload)
                            });
                            wal.submit_framed(record, move |r| tx.send(r).unwrap());
                            // `sync` queues behind the frame and parks
                            // this thread on a modeled ticket until
                            // the committer has been through both.
                            wal.sync().expect("barrier acked");
                            rx.try_recv()
                                .expect("callbacks resolve in submission order")
                                .expect("frame acked");
                        }
                    }
                })
            })
            .collect();
        for h in submitters {
            h.join().unwrap();
        }
        drop(wal);
        let written = media.written();
        for payload in [b"a0-park", b"a1-park", b"b0-park", b"b1-park"] {
            assert!(contains(&written, payload), "acked frame never written");
        }
    });
}

#[test]
fn committer_panic_wakes_every_waiter() {
    model("wal_committer_panic", || {
        let media = MemMedia::new();
        let wal = Arc::new(GroupWal::open_with_media(media, WalConfig::default()).unwrap());
        wal.arm_panic(0);
        let submitters: Vec<_> = (0..2u8)
            .map(|t| {
                let wal = Arc::clone(&wal);
                let payload: &'static [u8] = if t == 0 { b"doomed-a" } else { b"doomed-b" };
                thread::spawn(move || {
                    // The armed panic fires on the first non-empty group,
                    // so no frame can ever be acked; the only legal
                    // outcome is an error — a stranded waiter deadlocks
                    // the model and fails the run.
                    assert!(
                        wal.submit(Bytes::from_static(payload)).wait().is_err(),
                        "ack resolved from a group the committer died on"
                    );
                })
            })
            .collect();
        for h in submitters {
            h.join().unwrap();
        }
        drop(wal);
    });
}

#[test]
fn teeth_ack_before_fsync_is_caught_with_replayable_schedule() {
    // Seeded bug: the committer acks before the group fsync. The checker
    // must find a schedule where a submitter observes its Ok ack while
    // the frame is still outside the durable prefix, and hand back a
    // pinned MODEL_SCHEDULE for replay.
    let violations = Arc::new(StdU64::new(0));
    let v2 = Arc::clone(&violations);
    let err = catch_unwind(AssertUnwindSafe(move || {
        model("wal_teeth_ack_early", move || {
            let media = MemMedia::new();
            let wal =
                Arc::new(GroupWal::open_with_media(media.clone(), WalConfig::default()).unwrap());
            wal.ack_before_fsync_for_test();
            let v3 = Arc::clone(&v2);
            let submitter = {
                let wal = Arc::clone(&wal);
                let media = media.clone();
                thread::spawn(move || {
                    if wal
                        .submit(Bytes::from_static(b"teeth-frame"))
                        .wait()
                        .is_ok()
                        && !contains(&media.durable(), b"teeth-frame")
                    {
                        v3.fetch_add(1, Ordering::Relaxed);
                        panic!("ack-before-fsync: acked frame not durable");
                    }
                })
            };
            submitter.join().unwrap();
            drop(wal);
        });
    }))
    .expect_err("the seeded ack-before-fsync bug must be found");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("MODEL_SCHEDULE=wal_teeth_ack_early:"),
        "failure must carry a replayable schedule, got: {msg}"
    );
    assert!(
        violations.load(Ordering::Relaxed) > 0,
        "failure did not come from the durability assert: {msg}"
    );
}

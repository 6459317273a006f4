//! Property tests of the group-commit WAL frame codec: round-trip
//! identity over arbitrary frame batches, and a torn-tail corpus —
//! truncation at **every byte offset of the last group** must recover
//! exactly the committed frame prefix and never report an error for a
//! clean prefix (torn ≠ corrupt; only a checksum mismatch before the
//! tail is corruption). Frames reach the log either as bare payloads
//! (`submit`/`submit_with` frame them on the way in) or as records the
//! caller encoded into its own frame; the two must be indistinguishable
//! on disk, and an empty record of either kind is a barrier that leaves
//! no bytes. A log file and an in-memory medium recover through the one
//! open path: killed at the same point, they reopen to the same frames.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use aodb_store::codec::FramedRecord;
use aodb_store::wal::RecoveredLog;
use aodb_store::{
    Bytes, CrashPlan, CrashPoint, FsyncPolicy, GroupWal, MemMedia, StoreError, WalConfig,
};
use proptest::prelude::*;

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_wal() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aodb-wal-props-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("wal.log")
}

/// OnDemand keeps the corpus fast; recovery reads the file contents, so
/// the fsync policy is irrelevant to what these properties check.
fn config() -> WalConfig {
    WalConfig {
        fsync_policy: FsyncPolicy::OnDemand,
    }
}

/// Non-empty arbitrary payloads (an empty payload is a pure barrier and
/// intentionally leaves no record).
fn payloads(max_len: usize, max_count: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..max_len),
        1..max_count,
    )
}

/// Writes `payloads` to a fresh log at `path` and returns the file's
/// bytes. Frame `i` goes in as a record framed here when `framed(i)` and
/// as a bare payload otherwise; when `barrier(i)`, an empty record of
/// the same kind goes in ahead of it. Every callback, barriers' included,
/// must have run in submission order by the time the closing `sync`
/// returns.
fn write_log(
    path: &PathBuf,
    payloads: &[Vec<u8>],
    framed: impl Fn(usize) -> bool,
    barrier: impl Fn(usize) -> bool,
) -> Vec<u8> {
    let (wal, recovered) = GroupWal::open(path, config()).unwrap();
    assert!(recovered.is_empty());
    let resolved = Arc::new(Mutex::new(Vec::new()));
    let mut submitted = 0usize;
    let mut submit = |payload: &[u8], framed: bool| {
        let (resolved, n) = (Arc::clone(&resolved), submitted);
        let done = move |r: Result<(), StoreError>| {
            r.unwrap();
            resolved.lock().unwrap().push(n);
        };
        if framed {
            let record = FramedRecord::build(payload.len(), |out| out.extend_from_slice(payload));
            wal.submit_framed(record, done);
        } else {
            wal.submit_with(Bytes::copy_from_slice(payload), done);
        }
        submitted += 1;
    };
    for (i, p) in payloads.iter().enumerate() {
        if barrier(i) {
            submit(&[], framed(i));
        }
        submit(p, framed(i));
    }
    wal.sync().unwrap();
    assert_eq!(
        *resolved.lock().unwrap(),
        (0..submitted).collect::<Vec<_>>(),
        "acks out of submission order"
    );
    drop(wal);
    std::fs::read(path).unwrap()
}

/// Submits `payloads` one group at a time to `wal`, armed to be killed
/// with page-cache loss at `plan`, until the first failure.
fn write_until_killed(wal: GroupWal, payloads: &[Vec<u8>], plan: CrashPlan) {
    wal.arm_crash(plan);
    for p in payloads {
        if wal.submit(Bytes::from(p.clone())).wait().is_err() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One recovery for every medium: the same frames written to a log
    /// file and to an in-memory medium, each killed with page-cache loss
    /// at the same event, reopen to equal recovered logs, and each
    /// medium is truncated to the same length.
    #[test]
    fn file_and_memory_media_recover_alike(
        payloads in payloads(48, 12),
        point in 0usize..CrashPoint::ALL.len(),
        at_group in 0u64..12,
        per_group in any::<bool>(),
    ) {
        let config = WalConfig {
            fsync_policy: if per_group { FsyncPolicy::PerGroup } else { FsyncPolicy::OnDemand },
        };
        let plan = CrashPlan { point: CrashPoint::ALL[point], at_group };
        let path = temp_wal();
        let media = MemMedia::new();
        write_until_killed(GroupWal::open(&path, config).unwrap().0, &payloads, plan);
        write_until_killed(
            GroupWal::open_with_media(media.clone(), config).unwrap().0,
            &payloads,
            plan,
        );

        let reopen = |(wal, log): (GroupWal, RecoveredLog)| (wal.len(), log);
        let file = reopen(GroupWal::open(&path, config).unwrap());
        let mem = reopen(GroupWal::open_with_media(media.clone(), config).unwrap());
        prop_assert_eq!(&file, &mem);
        let file_len = std::fs::metadata(&path).unwrap().len();
        prop_assert_eq!(file_len, media.written().len() as u64);
        prop_assert_eq!(file_len, file.0);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// The same frames give the same file bytes however they go in —
    /// all as bare payloads, all as caller-framed records, or any mix,
    /// with or without barriers (which write nothing) in between — and
    /// each file recovers to the submitted payloads.
    #[test]
    fn submitter_framed_records_are_byte_identical(
        payloads in payloads(64, 40),
        mix in any::<u64>(),
        barriers in any::<u64>(),
    ) {
        let reference = write_log(&temp_wal(), &payloads, |_| false, |_| false);
        for framed in [
            Box::new(|_| true) as Box<dyn Fn(usize) -> bool>,
            Box::new(move |i| mix >> (i % 64) & 1 == 1),
        ] {
            let path = temp_wal();
            let barrier = |i: usize| barriers >> (i % 64) & 1 == 1;
            prop_assert_eq!(&write_log(&path, &payloads, framed, barrier), &reference);
            let (_, recovered) = GroupWal::open(&path, config()).unwrap();
            prop_assert_eq!(recovered.len(), payloads.len());
            for (frame, expected) in recovered.iter().zip(&payloads) {
                prop_assert_eq!(frame, expected.as_slice());
            }
            let _ = std::fs::remove_dir_all(path.parent().unwrap());
        }
    }

    /// Submit → close → recover is the identity on any frame batch, in
    /// submission order.
    #[test]
    fn frames_roundtrip_in_order(payloads in payloads(64, 40)) {
        let path = temp_wal();
        {
            let (wal, recovered) = GroupWal::open(&path, config()).unwrap();
            prop_assert!(recovered.is_empty());
            for p in &payloads {
                wal.submit(Bytes::from(p.clone())).wait().unwrap();
            }
        }
        let (_, recovered) = GroupWal::open(&path, config()).unwrap();
        prop_assert_eq!(recovered.len(), payloads.len());
        for (frame, expected) in recovered.iter().zip(&payloads) {
            prop_assert_eq!(frame, expected.as_slice());
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Truncating the log at every byte offset of the last frame (the
    /// worst-case torn group write) recovers exactly the frames whose
    /// records end at or before the cut — never an error, and the
    /// recovered frames are byte-identical to the committed prefix.
    #[test]
    fn truncation_at_every_offset_recovers_committed_prefix(
        payloads in payloads(48, 10),
        framed in any::<bool>(),
    ) {
        let path = temp_wal();
        let bytes = write_log(&path, &payloads, |_| framed, |_| false);
        // Record boundaries: each frame is 8 bytes of header + payload.
        let mut ends = Vec::with_capacity(payloads.len());
        let mut off = 0usize;
        for p in &payloads {
            off += 8 + p.len();
            ends.push(off);
        }
        prop_assert_eq!(off, bytes.len());

        let last_start = if payloads.len() == 1 { 0 } else { ends[ends.len() - 2] };
        for cut in last_start..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (wal, recovered) = GroupWal::open(&path, config())
                .expect("a clean prefix must never be an error");
            let expected = ends.iter().filter(|&&e| e <= cut).count();
            prop_assert_eq!(
                recovered.len(),
                expected,
                "cut at {} of {}",
                cut,
                bytes.len()
            );
            for (frame, want) in recovered.iter().zip(&payloads) {
                prop_assert_eq!(frame, want.as_slice());
            }
            // The torn bytes were physically truncated: the file now
            // ends exactly at the recovered prefix.
            drop(wal);
            let len = std::fs::metadata(&path).unwrap().len() as usize;
            let boundary = ends.iter().copied().rfind(|&e| e <= cut).unwrap_or(0);
            prop_assert_eq!(len, boundary);
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Appending after a torn-tail recovery keeps the log clean: the new
    /// frame lands at the committed boundary and the next recovery sees
    /// prefix + new frame with no corruption.
    #[test]
    fn append_after_torn_recovery_stays_clean(
        payloads in payloads(48, 8),
        chop in 1usize..8,
    ) {
        let path = temp_wal();
        {
            let (wal, _) = GroupWal::open(&path, config()).unwrap();
            for p in &payloads {
                wal.submit(Bytes::from(p.clone())).wait().unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        let cut = bytes.len().saturating_sub(chop.min(bytes.len() - 1)).max(1);
        std::fs::write(&path, &bytes[..cut]).unwrap();
        {
            let (wal, _) = GroupWal::open(&path, config()).unwrap();
            wal.submit(Bytes::from_static(b"post-recovery")).wait().unwrap();
        }
        let (_, recovered) = GroupWal::open(&path, config())
            .expect("recovery after torn-tail truncation must stay clean");
        prop_assert_eq!(recovered.last().unwrap(), b"post-recovery");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Flipping a byte strictly before the committed tail is corruption
    /// and must be reported, not silently truncated away.
    #[test]
    fn mid_log_flip_is_corruption(
        payloads in payloads(48, 8),
        flip_seed in any::<u64>(),
    ) {
        let path = temp_wal();
        {
            let (wal, _) = GroupWal::open(&path, config()).unwrap();
            for p in &payloads {
                wal.submit(Bytes::from(p.clone())).wait().unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip inside the first record's payload region (offset ≥ 8 so
        // the length header survives and the parser reaches the CRC). A
        // complete record with a bad CRC is corruption even at the tail —
        // only an *incomplete* record is a torn tail.
        let pos = 8 + (flip_seed as usize % payloads[0].len());
        bytes[pos] ^= 0x5A;
        std::fs::write(&path, &bytes).unwrap();
        let result = GroupWal::open(&path, config());
        prop_assert!(
            matches!(result, Err(StoreError::Corrupt(_))),
            "a checksum mismatch must fail recovery, not truncate"
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

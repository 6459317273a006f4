//! Replay determinism over the chaos fleet: the same pinned seed must
//! drive two complete runs — faults and all — to the *same observable
//! outcome*: identical ack-ledger contents and byte-identical persisted
//! state. This is the end-to-end guarantee the `aodb-replaycheck` rules
//! (`nondet-in-turn`, `unordered-persisted-state`, `ambient-clock`)
//! enforce statically: once every turn is a deterministic function of
//! state and message, fault *timing* can shift which batches retransmit,
//! but never what the platform finally holds.

use std::sync::Arc;
use std::time::Duration;

use aodb_cattle::model_b::{CreateCutB, CutHolder, TransferCutB};
use aodb_cattle::types::MeatCutData;
use aodb_cattle::CattleEnv;
use aodb_chaos::{AckLedger, FaultPlan, SeedReport, SpreadPlacement};
use aodb_runtime::{ActorError, Runtime, RuntimeBuilder, SiloId};
use aodb_shm::messages::{ConfigureChannel, Ingest};
use aodb_shm::types::{DataPoint, Threshold};
use aodb_shm::{register_all, PhysicalSensorChannel, ShmEnv};
use aodb_store::{MemStore, StateStore};

const SILOS: usize = 2;
const CHANNELS: usize = 6;
const ROUNDS: u64 = 4;
const BATCH: u64 = 3;

/// Pinned CI seed; override with `CHAOS_SEED`.
const DEFAULT_SEED: u64 = 0xD37E12;

/// The workload is itself a pure function of the seed: point values come
/// from a splitmix64 stream keyed by `(seed, channel, seq)`, so two runs
/// under the same seed ingest bit-identical data.
fn point_value(seed: u64, channel: usize, seq: u64, i: u64) -> f64 {
    let mut z = seed
        .wrapping_add(channel as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seq * BATCH + i);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % 100_000) as f64 / 10.0
}

fn batch(seed: u64, channel: usize, seq: u64) -> Vec<DataPoint> {
    (0..BATCH)
        .map(|i| DataPoint {
            ts_ms: seq * BATCH + i,
            value: point_value(seed, channel, seq, i),
        })
        .collect()
}

/// One full fleet run: seeded faults over a multi-silo SHM deployment,
/// TCP-style retransmit-until-acked streams, restart, drain. Returns the
/// ledger contents and the raw persisted key/value dump.
#[allow(clippy::type_complexity)]
fn run_fleet(seed: u64) -> (Vec<(String, u64)>, Vec<(Vec<u8>, Vec<u8>)>) {
    let store = Arc::new(MemStore::new());
    let plan = FaultPlan::from_seed(seed, SILOS, Duration::from_millis(150));
    let rt = RuntimeBuilder::new()
        .silos(SILOS, 2)
        .placement(SpreadPlacement)
        .chaos(plan)
        .build();
    // Every SHM state blob is written when it is set, so no silo kill
    // decides by timing which channels' blobs make it into the dump.
    register_all(&rt, ShmEnv::paper_default(store.clone()));

    let channels: Vec<String> = (0..CHANNELS).map(|i| format!("org-0/s-{i}/c-0")).collect();
    for c in &channels {
        for attempt in 0.. {
            let outcome =
                rt.actor_ref::<PhysicalSensorChannel>(c.as_str())
                    .call(ConfigureChannel {
                        org: "org-0".into(),
                        sensor: format!("org-0/s-{c}"),
                        threshold: Threshold::default(),
                        subscribers: Vec::new(),
                    });
            match outcome {
                Ok(()) => break,
                Err(_) if attempt < 100 => continue,
                Err(e) => panic!("channel {c} never configured: {e} (seed {seed:#x})"),
            }
        }
    }

    // Each channel is a FIFO stream retransmitting an unacked `seq` until
    // the dedup watermark acknowledges it — the faults decide how often a
    // batch retries, never whether it eventually lands exactly once.
    let ledger = AckLedger::new();
    let mut next_seq = vec![1u64; CHANNELS];
    let mut round_no = 0u64;
    while next_seq.iter().any(|&s| s <= ROUNDS) {
        round_no += 1;
        assert!(
            round_no < 2_000,
            "streams never drained: {next_seq:?} (seed {seed:#x})"
        );
        let mut round: Vec<(usize, u64, _)> = Vec::new();
        for (idx, c) in channels.iter().enumerate() {
            let seq = next_seq[idx];
            if seq > ROUNDS {
                continue;
            }
            if let Ok(p) = rt
                .actor_ref::<PhysicalSensorChannel>(c.as_str())
                .ask_replayable(Ingest::deduped(batch(seed, idx, seq), idx as u64, seq))
            {
                round.push((idx, seq, p));
            }
        }
        for (idx, seq, p) in round {
            match p.wait_for(Duration::from_secs(10)) {
                Ok(_) => {
                    ledger.ack(&channels[idx], BATCH);
                    next_seq[idx] = seq + 1;
                }
                Err(ActorError::SiloLost) | Err(ActorError::Lost) => {}
                Err(e) => panic!("unexpected ingest error: {e} (seed {seed:#x})"),
            }
        }
        if round_no <= ROUNDS {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // Let scheduled restarts fire, revive what is still down, drain.
    std::thread::sleep(Duration::from_millis(80));
    for s in 0..SILOS {
        rt.restart_silo(SiloId(s as u32));
    }
    assert!(rt.quiesce(Duration::from_secs(10)));
    rt.shutdown();

    let ledger_contents = ledger
        .keys()
        .into_iter()
        .map(|k| {
            let acked = ledger.acked(&k);
            (k, acked)
        })
        .collect();
    let dump = store
        .scan_prefix(&[])
        .expect("scan MemStore")
        .into_iter()
        .map(|(k, v)| (k.into_bytes(), v.to_vec()))
        .collect();
    (ledger_contents, dump)
}

#[test]
fn same_seed_twice_yields_identical_ledger_and_state_bytes() {
    let seed = aodb_chaos::env_seed(DEFAULT_SEED);
    let _report = SeedReport::new(seed);

    let (ledger_a, dump_a) = run_fleet(seed);
    let (ledger_b, dump_b) = run_fleet(seed);

    assert_eq!(
        ledger_a, ledger_b,
        "ack-ledger contents diverged between two runs of seed {seed:#x}"
    );
    // Every stream drained, so the ledger is exactly the full workload.
    assert_eq!(ledger_a.len(), CHANNELS);
    assert!(ledger_a.iter().all(|(_, acked)| *acked == ROUNDS * BATCH));

    // Byte-identical persisted state: same keys, same blobs. Compare keys
    // first so a divergence names the actor instead of dumping blobs.
    let keys = |d: &Vec<(Vec<u8>, Vec<u8>)>| -> Vec<String> {
        d.iter()
            .map(|(k, _)| String::from_utf8_lossy(k).into_owned())
            .collect()
    };
    assert_eq!(
        keys(&dump_a),
        keys(&dump_b),
        "persisted key sets diverged (seed {seed:#x})"
    );
    for ((key, a), (_, b)) in dump_a.iter().zip(dump_b.iter()) {
        assert_eq!(
            a,
            b,
            "persisted blob for {:?} diverged between runs (seed {seed:#x})",
            String::from_utf8_lossy(key)
        );
    }
}

/// The `unordered-persisted-state` regression, end to end: model B's
/// `HolderState.live` map fills in whatever order transfers happen to
/// arrive, yet the persisted blob must not depend on that order. Two
/// runs build the same logical inventory in opposite insertion orders;
/// with an ordered map the serialized bytes are canonical and identical
/// (a `HashMap` here serialized in per-instance random order).
#[test]
fn holder_state_bytes_are_insertion_order_independent() {
    let run = |reverse: bool| -> Vec<(Vec<u8>, Vec<u8>)> {
        let store = Arc::new(MemStore::new());
        let rt: Runtime = RuntimeBuilder::new().silos(1, 2).build();
        aodb_cattle::register_all(&rt, CattleEnv::new(store.clone()));

        let mut entities: Vec<String> = (0..12).map(|i| format!("cut-{i:02}")).collect();
        if reverse {
            entities.reverse();
        }
        let source = rt.actor_ref::<CutHolder>("slaughterhouse-0");
        for e in &entities {
            source
                .call(CreateCutB {
                    entity: e.clone(),
                    data: MeatCutData {
                        cow: format!("cow-{e}"),
                        slaughterhouse: "slaughterhouse-0".into(),
                        cut_type: "ribeye".into(),
                        weight_kg: 4.5,
                    },
                })
                .expect("create cut");
        }
        // Hand half the inventory to a second holder so both a populated
        // `live` map and a transfer `history` get serialized. Transfers
        // happen in one canonical order in both runs: `history` is a Vec,
        // so its order is part of the logical state — only the *map*
        // insertions are meant to vary here.
        let mut outgoing = entities.clone();
        outgoing.sort();
        for e in outgoing.iter().filter(|e| e.ends_with(['0', '2', '4'])) {
            let moved = source
                .call(TransferCutB {
                    entity: e.to_string(),
                    to: "distributor-0".into(),
                    ts_ms: 7,
                })
                .expect("transfer cut");
            assert!(moved, "{e} was not live at the source");
        }
        assert!(rt.quiesce(Duration::from_secs(5)));
        rt.shutdown();
        store
            .scan_prefix(&[])
            .expect("scan MemStore")
            .into_iter()
            .map(|(k, v)| (k.into_bytes(), v.to_vec()))
            .collect()
    };

    let forward = run(false);
    let backward = run(true);
    assert!(!forward.is_empty(), "no holder state was persisted");
    assert_eq!(
        forward, backward,
        "holder blobs depend on insertion order — persisted maps must be ordered"
    );
}

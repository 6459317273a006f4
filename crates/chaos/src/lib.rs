//! # aodb-chaos — seeded chaos harness for the AODB reproduction
//!
//! Shared plumbing for the crash/recovery test fleet:
//!
//! * **Seed handling** — every chaos test derives its entire fault
//!   schedule from one `u64`. [`env_seed`] reads `CHAOS_SEED` so CI can
//!   pin or randomize runs, and [`SeedReport`] prints the seed when a
//!   test panics, turning any red run into a deterministic replay
//!   (`CHAOS_SEED=<seed> cargo test -p aodb-chaos`).
//! * **Invariant checkers** — [`AckLedger`] (no acknowledged write may
//!   be lost), [`ActivationTracker`] (at most one activation of an
//!   actor runs turns at any instant).
//! * **[`SpreadPlacement`]** — deterministic hash-modulo placement so
//!   tests can compute which silo hosts which actor and aim the kill.
//! * **[`ReferenceSeries`]** — the plainest `SeriesStore`, the oracle
//!   the differential test compares the real engine against.
//!
//! The fault *injection* itself lives next to the components it breaks:
//! [`aodb_runtime::FaultPlan`] for message drop/duplicate/delay and
//! scheduled silo crashes, [`aodb_store::ChaosStore`] for storage error
//! bursts and throttling. This crate is the harness that drives them.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

mod reference;

pub use aodb_runtime::{ChaosNetConfig, CrashEvent, FaultPlan, SiloCrashReport};
pub use aodb_store::{BurstWindow, ChaosStore, ChaosStoreConfig};
pub use reference::ReferenceSeries;

/// Reads the chaos seed from the `CHAOS_SEED` environment variable
/// (decimal, or hex with a `0x` prefix), falling back to `default`.
/// Tests call this so a failure printed by [`SeedReport`] can be
/// replayed without editing code.
pub fn env_seed(default: u64) -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(text) => parse_seed_text(&text)
            .unwrap_or_else(|| panic!("CHAOS_SEED {:?} is not a u64", text.trim())),
        Err(_) => default,
    }
}

/// Parses a seed as printed by [`SeedReport`]: decimal, or hex with a
/// `0x`/`0X` prefix. Pure so it can be unit-tested without mutating the
/// process environment.
fn parse_seed_text(text: &str) -> Option<u64> {
    let text = text.trim();
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Prints the active chaos seed if the test panics, so the failing fault
/// schedule can be replayed exactly. Create it first thing in a test:
///
/// ```
/// let seed = aodb_chaos::env_seed(42);
/// let _report = aodb_chaos::SeedReport::new(seed);
/// // ... assertions; on panic stderr shows the CHAOS_SEED replay line
/// ```
pub struct SeedReport {
    seed: u64,
}

impl SeedReport {
    /// Arms the report for `seed`.
    pub fn new(seed: u64) -> Self {
        SeedReport { seed }
    }
}

impl Drop for SeedReport {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "chaos seed {seed:#018x} — replay with CHAOS_SEED={seed}",
                seed = self.seed
            );
        }
    }
}

/// Deterministic hash-modulo placement: actor → silo `stable_hash % n`.
/// Unlike the runtime's default prefer-local policy this ignores the
/// message origin, so a test can compute each actor's home silo up front
/// and kill exactly the silo it wants to hit.
pub struct SpreadPlacement;

impl SpreadPlacement {
    /// The silo this placement assigns `key` to in an `n`-silo cluster.
    pub fn silo_of(id: &aodb_runtime::ActorId, n: usize) -> aodb_runtime::SiloId {
        aodb_runtime::SiloId((id.stable_hash() % n as u64) as u32)
    }
}

impl aodb_runtime::Placement for SpreadPlacement {
    fn name(&self) -> &'static str {
        "spread"
    }
    fn place(
        &self,
        id: &aodb_runtime::ActorId,
        _origin: aodb_runtime::Origin,
        silos: usize,
    ) -> aodb_runtime::SiloId {
        Self::silo_of(id, silos)
    }
}

/// Records units of work the platform *acknowledged* (replied `Ok` to),
/// keyed by actor, and verifies afterwards that the platform still holds
/// every one of them — the "no acknowledged write is lost" invariant
/// crash tests assert after kills, restarts, and retries.
#[derive(Default)]
pub struct AckLedger {
    acked: Mutex<HashMap<String, u64>>,
}

impl AckLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `units` acknowledged units against `key`.
    pub fn ack(&self, key: &str, units: u64) {
        *self.acked.lock().entry(key.to_string()).or_default() += units;
    }

    /// Acknowledged units for `key`.
    pub fn acked(&self, key: &str) -> u64 {
        self.acked.lock().get(key).copied().unwrap_or(0)
    }

    /// Total acknowledged units across all keys.
    pub fn total(&self) -> u64 {
        self.acked.lock().values().sum()
    }

    /// Every key with at least one acknowledged unit.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.acked.lock().keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Checks that `read(key)` (the durable units the platform reports
    /// now) exactly matches the acknowledged count for every key —
    /// nothing lost, nothing double-applied. Returns the violations.
    pub fn verify_exact(&self, read: impl Fn(&str) -> u64) -> Result<(), Vec<String>> {
        self.verify(read, false)
    }

    /// Like [`AckLedger::verify_exact`] but only requires `read(key) >=
    /// acked` — for fixtures where unacknowledged work may legitimately
    /// have been applied (e.g. a reply lost in transit after the turn
    /// ran).
    pub fn verify_durable(&self, read: impl Fn(&str) -> u64) -> Result<(), Vec<String>> {
        self.verify(read, true)
    }

    fn verify(&self, read: impl Fn(&str) -> u64, at_least: bool) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        for (key, &acked) in self.acked.lock().iter() {
            let actual = read(key);
            let ok = if at_least {
                actual >= acked
            } else {
                actual == acked
            };
            if !ok {
                violations.push(format!(
                    "{key}: acked {acked} units but platform holds {actual}"
                ));
            }
        }
        violations.sort();
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

/// Detects double activation: if two turns for the same actor key ever
/// overlap, the single-activation guarantee is broken. Handlers under
/// test call [`ActivationTracker::enter`] at the top of the turn and
/// drop the guard at the end.
#[derive(Default)]
pub struct ActivationTracker {
    in_turn: Mutex<HashMap<String, u32>>,
    violations: AtomicU64,
}

impl ActivationTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a turn for `key` as running; records a violation if another
    /// turn of the same key is already in flight.
    pub fn enter(&self, key: &str) -> TurnGuard<'_> {
        let mut map = self.in_turn.lock();
        let live = map.entry(key.to_string()).or_insert(0);
        *live += 1;
        if *live > 1 {
            self.violations.fetch_add(1, Ordering::SeqCst);
        }
        TurnGuard {
            tracker: self,
            key: key.to_string(),
        }
    }

    /// Number of overlapping-turn violations observed so far.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::SeqCst)
    }
}

/// RAII guard returned by [`ActivationTracker::enter`].
pub struct TurnGuard<'a> {
    tracker: &'a ActivationTracker,
    key: String,
}

impl Drop for TurnGuard<'_> {
    fn drop(&mut self) {
        let mut map = self.tracker.in_turn.lock();
        if let Some(live) = map.get_mut(&self.key) {
            *live -= 1;
            if *live == 0 {
                map.remove(&self.key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_ledger_verifies_exact_and_durable() {
        let ledger = AckLedger::new();
        ledger.ack("a", 3);
        ledger.ack("a", 2);
        ledger.ack("b", 1);
        assert_eq!(ledger.acked("a"), 5);
        assert_eq!(ledger.total(), 6);
        assert_eq!(ledger.keys(), vec!["a".to_string(), "b".to_string()]);

        let held: HashMap<&str, u64> = [("a", 5), ("b", 1)].into();
        assert!(ledger.verify_exact(|k| held[k]).is_ok());

        // One lost unit on `a`: both modes flag it.
        let lossy: HashMap<&str, u64> = [("a", 4), ("b", 1)].into();
        let err = ledger.verify_exact(|k| lossy[k]).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("a: acked 5"));
        assert!(ledger.verify_durable(|k| lossy[k]).is_err());

        // Over-application: exact flags it, durable accepts it.
        let over: HashMap<&str, u64> = [("a", 6), ("b", 1)].into();
        assert!(ledger.verify_exact(|k| over[k]).is_err());
        assert!(ledger.verify_durable(|k| over[k]).is_ok());
    }

    #[test]
    fn activation_tracker_flags_overlap_only() {
        let tracker = ActivationTracker::new();
        {
            let _a = tracker.enter("x");
        }
        {
            let _b = tracker.enter("x"); // sequential re-entry is fine
        }
        assert_eq!(tracker.violations(), 0);

        let _one = tracker.enter("x");
        let _two = tracker.enter("x"); // overlap
        let _other = tracker.enter("y"); // different key, no overlap
        assert_eq!(tracker.violations(), 1);
    }

    #[test]
    fn seed_text_parses_decimal_and_hex() {
        // The parser is tested directly (setting process env vars in a
        // threaded test binary is racy, and CHAOS_SEED may legitimately
        // be set when the whole fleet is run under a replay seed).
        assert_eq!(parse_seed_text("7"), Some(7));
        assert_eq!(parse_seed_text(" 988768 "), Some(988768));
        assert_eq!(parse_seed_text("0xF1660"), Some(0xF1660));
        assert_eq!(parse_seed_text("0XDEADBEEF"), Some(0xDEAD_BEEF));
        assert_eq!(parse_seed_text("not-a-seed"), None);
        assert_eq!(parse_seed_text("0xZZ"), None);
    }

    #[test]
    fn seed_report_is_silent_without_panic() {
        let _report = SeedReport::new(1234);
        // Dropping without a panic must not print or crash.
    }
}

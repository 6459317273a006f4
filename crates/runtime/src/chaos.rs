//! Seeded chaos injection: fault plans, network-fault dice, and crash
//! schedules.
//!
//! A [`FaultPlan`] is the single artifact that describes an entire chaos
//! run: which message faults the simulated network injects (drop /
//! duplicate / delay — reorder falls out of unequal delays), and when which
//! silo crashes and restarts. Every decision derives from one `u64` seed
//! through a counter-keyed [`mix64`] hash, so the *schedule* is a pure
//! function of the seed: [`FaultPlan::from_seed`] called twice with the
//! same arguments yields identical plans ([`FaultPlan::fingerprint`] makes
//! that checkable in one comparison), which is what lets a test print its
//! seed on failure and replay the exact same fault schedule.
//!
//! Per-message dice are keyed on a global message counter. With a
//! deterministic driver (one client thread issuing a fixed sequence) the
//! faulted *positions* in the message stream reproduce exactly; under
//! multi-threaded load the schedule of fault kinds and rates still
//! reproduces, while which concrete message draws which fault follows the
//! thread interleaving. DESIGN.md §10 spells out this boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::identity::SiloId;

/// SplitMix64 finalizer: a high-quality 64-bit mix used to derive all
/// chaos decisions from (seed, counter) pairs. Public so test harnesses
/// can derive sub-seeds the same way the runtime does.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Message-fault rates applied at the simulated network boundary (hops
/// that pay latency under the runtime's [`NetConfig`](crate::NetConfig);
/// silo-local deliveries are never faulted — in-process memory moves
/// cannot be lost).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosNetConfig {
    /// Per-mille probability a message is dropped. The sender's promise
    /// (if any) resolves as [`PromiseError::Lost`](crate::PromiseError).
    pub drop_per_mille: u16,
    /// Per-mille probability a message is delivered twice. Only envelopes
    /// sent via the `*_replayable` APIs can actually duplicate (the
    /// message must be `Clone`); others deliver once.
    pub duplicate_per_mille: u16,
    /// Per-mille probability a message is charged extra latency, which
    /// also reorders it against messages sent after it.
    pub delay_per_mille: u16,
    /// Upper bound of the injected extra latency.
    pub max_extra_delay: Duration,
}

impl Default for ChaosNetConfig {
    fn default() -> Self {
        ChaosNetConfig {
            drop_per_mille: 10,
            duplicate_per_mille: 20,
            delay_per_mille: 100,
            max_extra_delay: Duration::from_millis(2),
        }
    }
}

/// One scheduled silo crash and its restart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// When (after runtime start) the silo is killed.
    pub at: Duration,
    /// Which silo dies.
    pub silo: SiloId,
    /// Delay between the kill and the restart.
    pub restart_after: Duration,
}

/// A complete, seed-derived description of one chaos run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed every decision in this plan (and the per-message dice of
    /// the run it drives) derives from.
    pub seed: u64,
    /// Network-boundary message faults, if enabled.
    pub net: Option<ChaosNetConfig>,
    /// Scheduled silo crashes.
    pub crashes: Vec<CrashEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults) carrying `seed` for per-message dice.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            net: None,
            crashes: Vec::new(),
        }
    }

    /// Enables network message faults.
    pub fn with_net(mut self, net: ChaosNetConfig) -> Self {
        self.net = Some(net);
        self
    }

    /// Schedules a silo kill at `at` followed by a restart `restart_after`
    /// later.
    pub fn crash_restart_at(mut self, at: Duration, silo: SiloId, restart_after: Duration) -> Self {
        self.crashes.push(CrashEvent {
            at,
            silo,
            restart_after,
        });
        self
    }

    /// Derives a full plan from a seed: moderate network-fault rates and
    /// one or two crash/restart events inside `horizon`, never killing
    /// silo 0 (the conventional client-affinity silo) so the cluster keeps
    /// a surviving silo to reactivate onto. Pure in its arguments — equal
    /// inputs yield an identical plan, which is the replay guarantee.
    pub fn from_seed(seed: u64, silos: usize, horizon: Duration) -> FaultPlan {
        let mut plan = FaultPlan::new(seed).with_net(ChaosNetConfig {
            drop_per_mille: (mix64(seed ^ 1) % 30) as u16,
            duplicate_per_mille: (mix64(seed ^ 2) % 50) as u16,
            delay_per_mille: (mix64(seed ^ 3) % 200) as u16,
            max_extra_delay: Duration::from_micros(500 + mix64(seed ^ 4) % 4_500),
        });
        if silos > 1 {
            let h = horizon.as_micros().max(4) as u64;
            let crashes = 1 + (mix64(seed ^ 5) % 2) as usize;
            for i in 0..crashes as u64 {
                let at = Duration::from_micros(h / 4 + mix64(seed ^ (6 + i)) % (h / 2).max(1));
                let victim = SiloId(1 + (mix64(seed ^ (16 + i)) % (silos as u64 - 1)) as u32);
                let restart =
                    Duration::from_micros(h / 8 + mix64(seed ^ (32 + i)) % (h / 4).max(1));
                plan = plan.crash_restart_at(at, victim, restart);
            }
        }
        plan
    }

    /// Order-sensitive hash of every field: two runs injected the same
    /// fault schedule iff their fingerprints match.
    pub fn fingerprint(&self) -> u64 {
        let mut acc = mix64(self.seed);
        let mut fold = |v: u64| acc = mix64(acc ^ v);
        match &self.net {
            None => fold(0),
            Some(n) => {
                fold(1);
                fold(n.drop_per_mille as u64);
                fold(n.duplicate_per_mille as u64);
                fold(n.delay_per_mille as u64);
                fold(n.max_extra_delay.as_nanos() as u64);
            }
        }
        for c in &self.crashes {
            fold(c.at.as_nanos() as u64);
            fold(c.silo.index() as u64 + 1);
            fold(c.restart_after.as_nanos() as u64);
        }
        acc
    }
}

/// Counters of injected network faults, shared with the runtime core.
#[derive(Default)]
pub(crate) struct ChaosNetStats {
    pub dropped: AtomicU64,
    pub duplicated: AtomicU64,
    pub delayed: AtomicU64,
}

/// Point-in-time copy of the injected-fault counters
/// ([`Runtime::chaos_stats`](crate::Runtime::chaos_stats)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosNetStatsSnapshot {
    /// Messages dropped at the network boundary.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages charged extra latency (and thereby reordered).
    pub delayed: u64,
}

/// Per-message fault decision.
pub(crate) enum NetFault {
    Deliver,
    Drop,
    Duplicate,
    Delay(Duration),
}

/// The live dice: seed + message counter + stats.
pub(crate) struct ChaosRuntime {
    cfg: ChaosNetConfig,
    seed: u64,
    counter: AtomicU64,
    pub stats: ChaosNetStats,
}

impl ChaosRuntime {
    pub fn new(seed: u64, cfg: ChaosNetConfig) -> Self {
        ChaosRuntime {
            cfg,
            seed,
            counter: AtomicU64::new(0),
            stats: ChaosNetStats::default(),
        }
    }

    /// Rolls the dice for the next network-boundary message.
    pub fn decide(&self) -> NetFault {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let r = mix64(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let roll = (r % 1000) as u16;
        let c = &self.cfg;
        if roll < c.drop_per_mille {
            return NetFault::Drop;
        }
        if roll < c.drop_per_mille + c.duplicate_per_mille {
            return NetFault::Duplicate;
        }
        if roll < c.drop_per_mille + c.duplicate_per_mille + c.delay_per_mille {
            let span = c.max_extra_delay.as_nanos().max(1) as u64;
            return NetFault::Delay(Duration::from_nanos((r >> 16) % span));
        }
        NetFault::Deliver
    }

    pub fn snapshot(&self) -> ChaosNetStatsSnapshot {
        ChaosNetStatsSnapshot {
            dropped: self.stats.dropped.load(Ordering::Relaxed),
            duplicated: self.stats.duplicated.load(Ordering::Relaxed),
            delayed: self.stats.delayed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let a = FaultPlan::from_seed(seed, 3, Duration::from_secs(2));
            let b = FaultPlan::from_seed(seed, 3, Duration::from_secs(2));
            assert_eq!(a, b);
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::from_seed(1, 3, Duration::from_secs(2));
        let b = FaultPlan::from_seed(2, 3, Duration::from_secs(2));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn from_seed_never_kills_silo_zero() {
        for seed in 0..64u64 {
            let plan = FaultPlan::from_seed(seed, 4, Duration::from_secs(1));
            assert!(plan.crashes.iter().all(|c| c.silo.index() != 0));
            assert!(!plan.crashes.is_empty());
        }
    }

    #[test]
    fn single_silo_plan_has_no_crashes() {
        let plan = FaultPlan::from_seed(7, 1, Duration::from_secs(1));
        assert!(plan.crashes.is_empty());
        assert!(plan.net.is_some());
    }

    #[test]
    fn dice_sequence_is_seed_deterministic() {
        let cfg = ChaosNetConfig::default();
        let a = ChaosRuntime::new(99, cfg);
        let b = ChaosRuntime::new(99, cfg);
        for _ in 0..1000 {
            let (x, y) = (a.decide(), b.decide());
            let tag = |f: &NetFault| match f {
                NetFault::Deliver => 0u8,
                NetFault::Drop => 1,
                NetFault::Duplicate => 2,
                NetFault::Delay(_) => 3,
            };
            assert_eq!(tag(&x), tag(&y));
        }
    }

    #[test]
    fn fault_rates_are_roughly_honoured() {
        let cfg = ChaosNetConfig {
            drop_per_mille: 100,
            duplicate_per_mille: 0,
            delay_per_mille: 0,
            max_extra_delay: Duration::from_millis(1),
        };
        let dice = ChaosRuntime::new(5, cfg);
        let drops = (0..10_000)
            .filter(|_| matches!(dice.decide(), NetFault::Drop))
            .count();
        // 10% ± generous slack for the hash's distribution.
        assert!((700..=1300).contains(&drops), "drops = {drops}");
    }
}

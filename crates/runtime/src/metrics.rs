//! Runtime metrics: a concurrent log-bucketed latency histogram (the
//! percentile machinery behind Figures 8 and 9) and coarse runtime
//! counters.
//!
//! The counters a message or a turn slice touches (`local_messages`,
//! `messages_processed`, the scheduler's pop/steal/park counts,
//! `directory_lookups`) live in cells, one per silo worker plus one that
//! every other thread shares, each padded to its own cache lines: a
//! worker counts into its own cell and never writes a line another
//! thread writes. [`RuntimeMetrics::read`] sums the cells. The counters
//! of rarer events (activations, crashes, panics, remote hops) stay
//! single runtime-wide atomics.
//!
//! The histogram uses HdrHistogram-style bucketing: exact counts below
//! 64 µs, then 64 linear sub-buckets per power of two, giving a relative
//! error below 1.6 % across the full range while staying allocation-free
//! and lock-free on the record path.
//!
//! # Atomic-ordering policy
//!
//! Every atomic in this module is `Ordering::Relaxed`, on both the write
//! and read side — deliberately and uniformly. These are *statistical*
//! counters: each is independently meaningful, per-counter monotonicity
//! is all the RMW operations need, and no code path derives a
//! happens-before relationship from them. A cell is still written with
//! `fetch_add`, not a load and a store: the shared cell has many writers,
//! and a worker's own cell may be written by another runtime's worker
//! that sends into this one. Consequently snapshots
//! ([`Histogram::snapshot`], [`RuntimeMetrics::read`]) may tear across
//! counters (e.g. `sum` momentarily ahead of `count`); consumers must
//! tolerate that, and tests only assert on quiesced values. An atomic
//! that *synchronizes* (publishes data, gates a state machine) does not
//! belong here — put it next to the state it orders, with the stronger
//! ordering written at the use site.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = 6; // log2(SUB_BUCKETS)
/// Supports values up to 2^40 µs ≈ 12.7 days, far beyond any latency here.
const MAX_EXP: u32 = 40;
const NUM_BUCKETS: usize = (SUB_BUCKETS as usize) * ((MAX_EXP - SUB_BITS + 1) as usize + 1);

fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // value in [2^exp, 2^(exp+1))
    let exp = exp.min(MAX_EXP);
    // Keep the 6 bits below the leading one as the linear sub-bucket.
    let sub = ((value >> (exp - SUB_BITS)) & (SUB_BUCKETS - 1)) as usize;
    ((exp - SUB_BITS + 1) as usize) * SUB_BUCKETS as usize + sub
}

fn bucket_lower_bound(index: usize) -> u64 {
    let group = index / SUB_BUCKETS as usize;
    let sub = (index % SUB_BUCKETS as usize) as u64;
    if group == 0 {
        sub
    } else {
        let exp = group as u32 + SUB_BITS - 1;
        (SUB_BUCKETS + sub) << (exp - SUB_BITS)
    }
}

/// Concurrent latency histogram. Values are recorded in microseconds.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        let buckets = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (µs). Lock-free; callable from any thread.
    pub fn record(&self, value_us: u64) {
        self.buckets[bucket_index(value_us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value_us, Ordering::Relaxed);
        self.max.fetch_max(value_us, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`].
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time snapshot for percentile queries.
    pub fn snapshot(&self) -> Snapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        Snapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters (between measurement windows).
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Immutable histogram snapshot with percentile queries.
#[derive(Clone, Debug)]
pub struct Snapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Snapshot {
    /// Empty snapshot (identity for [`Snapshot::merge`]).
    pub fn empty() -> Self {
        Snapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values (µs), 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded value (µs).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value (µs) at quantile `q` in `[0, 1]`, e.g. `0.999` for p99.9.
    /// Returns the lower bound of the bucket containing the quantile.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Report the bucket midpoint-ish (lower bound of next step
                // would overestimate); clamp to max for the tail bucket.
                return bucket_lower_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Convenience for the percentile set the paper plots.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.value_at_quantile(0.50),
            p90: self.value_at_quantile(0.90),
            p95: self.value_at_quantile(0.95),
            p99: self.value_at_quantile(0.99),
            p999: self.value_at_quantile(0.999),
            max: self.max,
            mean: self.mean(),
            count: self.count,
        }
    }

    /// Merges another snapshot into this one (for combining per-window or
    /// per-thread histograms).
    pub fn merge(&mut self, other: &Snapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// The latency percentiles reported by the paper's Figures 8 and 9.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    /// Median latency (µs).
    pub p50: u64,
    /// 90th percentile (µs).
    pub p90: u64,
    /// 95th percentile (µs).
    pub p95: u64,
    /// 99th percentile (µs).
    pub p99: u64,
    /// 99.9th percentile (µs).
    pub p999: u64,
    /// Maximum observed (µs).
    pub max: u64,
    /// Mean (µs).
    pub mean: f64,
    /// Number of samples.
    pub count: u64,
}

thread_local! {
    /// Index of this thread's counter cell: set on a silo worker, left at
    /// `usize::MAX` on every other thread, which all count into the last
    /// (shared) cell.
    static CELL: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The per-message counters of one thread (see the module docs). Aligned
/// to 128 bytes so that neither a cell's line nor the adjacent line the
/// prefetcher pairs with it is shared with another cell.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct Counters {
    /// Envelopes pushed into a mailbox: one per accepted push.
    pub local_messages: AtomicU64,
    /// User turns run.
    pub messages_processed: AtomicU64,
    /// Tasks a worker popped off its own LIFO deque.
    pub scheduler_local_pops: AtomicU64,
    /// Tasks taken from a silo's shared injector queue.
    pub scheduler_injector_pops: AtomicU64,
    /// Tasks stolen from a sibling worker's deque.
    pub scheduler_steals: AtomicU64,
    /// Times a worker parked after finding no work anywhere.
    pub worker_parks: AtomicU64,
    /// Times dispatch consulted the directory.
    pub directory_lookups: AtomicU64,
}

/// Coarse counters maintained by the runtime itself.
pub struct RuntimeMetrics {
    /// One cell per silo worker, then the cell every other thread shares.
    cells: Box<[Counters]>,
    /// Activations created.
    pub activations: AtomicU64,
    /// Activations reclaimed (idle, explicit, or shutdown).
    pub deactivations: AtomicU64,
    /// Handler panics caught and isolated.
    pub handler_panics: AtomicU64,
    /// Envelopes that crossed silos (paid simulated network latency).
    pub remote_messages: AtomicU64,
    /// Silos killed via [`kill_silo`](crate::Runtime::kill_silo).
    pub silo_crashes: AtomicU64,
    /// Activations re-created for an identity previously evicted by a silo
    /// crash (the recovery half of the crash metric).
    pub reactivations: AtomicU64,
    /// User envelopes aborted by silo crashes — turns that were queued or
    /// salvaged-but-unrunnable when their silo died. Their reply sinks
    /// resolved as `SiloLost`.
    pub lost_turns: AtomicU64,
}

impl RuntimeMetrics {
    /// Counters for a runtime with `workers` silo workers in all.
    pub(crate) fn new(workers: usize) -> Self {
        RuntimeMetrics {
            cells: (0..=workers).map(|_| Counters::default()).collect(),
            activations: AtomicU64::new(0),
            deactivations: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
            remote_messages: AtomicU64::new(0),
            silo_crashes: AtomicU64::new(0),
            reactivations: AtomicU64::new(0),
            lost_turns: AtomicU64::new(0),
        }
    }

    /// Makes the calling thread count into cell `index` (a silo worker's
    /// position among all workers of its runtime).
    pub(crate) fn bind_worker_cell(index: usize) {
        CELL.with(|c| c.set(index));
    }

    /// The calling thread's cell. A worker of another runtime whose index
    /// is out of range here counts into the shared cell.
    pub(crate) fn here(&self) -> &Counters {
        let index = CELL.with(Cell::get);
        &self.cells[index.min(self.cells.len() - 1)]
    }

    /// Cheap copy of all counter values; the per-thread cells are summed.
    pub fn read(&self) -> RuntimeMetricsSnapshot {
        let sum = |counter: fn(&Counters) -> &AtomicU64| -> u64 {
            self.cells
                .iter()
                .map(|cell| counter(cell).load(Ordering::Relaxed))
                .sum()
        };
        RuntimeMetricsSnapshot {
            messages_processed: sum(|c| &c.messages_processed),
            activations: self.activations.load(Ordering::Relaxed),
            deactivations: self.deactivations.load(Ordering::Relaxed),
            handler_panics: self.handler_panics.load(Ordering::Relaxed),
            remote_messages: self.remote_messages.load(Ordering::Relaxed),
            local_messages: sum(|c| &c.local_messages),
            scheduler_local_pops: sum(|c| &c.scheduler_local_pops),
            scheduler_injector_pops: sum(|c| &c.scheduler_injector_pops),
            scheduler_steals: sum(|c| &c.scheduler_steals),
            worker_parks: sum(|c| &c.worker_parks),
            directory_lookups: sum(|c| &c.directory_lookups),
            silo_crashes: self.silo_crashes.load(Ordering::Relaxed),
            reactivations: self.reactivations.load(Ordering::Relaxed),
            lost_turns: self.lost_turns.load(Ordering::Relaxed),
            parked_workers: 0,
        }
    }
}

/// Point-in-time copy of [`RuntimeMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeMetricsSnapshot {
    /// Application messages processed across all silos.
    pub messages_processed: u64,
    /// Activations created.
    pub activations: u64,
    /// Activations reclaimed.
    pub deactivations: u64,
    /// Handler panics caught and isolated.
    pub handler_panics: u64,
    /// Envelopes that crossed silos.
    pub remote_messages: u64,
    /// Envelopes delivered silo-locally: one per accepted mailbox push,
    /// however many activations the send had to try.
    pub local_messages: u64,
    /// Tasks workers popped off their own LIFO deques.
    pub scheduler_local_pops: u64,
    /// Tasks taken from silo injector queues.
    pub scheduler_injector_pops: u64,
    /// Tasks stolen from sibling workers.
    pub scheduler_steals: u64,
    /// Times a worker parked (idle workers park once; no periodic polling).
    pub worker_parks: u64,
    /// Times dispatch consulted the directory: a reference's first send,
    /// a send after its remembered activation retired or crashed, and
    /// every delivery without a reference (timers, network hops).
    pub directory_lookups: u64,
    /// Silos killed via `kill_silo`.
    pub silo_crashes: u64,
    /// Activations re-created after a crash evicted their identity.
    pub reactivations: u64,
    /// User envelopes aborted (`SiloLost`) by silo crashes.
    pub lost_turns: u64,
    /// Gauge: workers parked at snapshot time ([`RuntimeMetrics::read`]
    /// itself cannot see the silos, so it reports 0 here; the runtime's
    /// `metrics()` accessor fills it in).
    pub parked_workers: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..64 {
            assert_eq!(bucket_lower_bound(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_error_is_bounded() {
        for v in [64u64, 100, 1_000, 12_345, 1_000_000, 123_456_789] {
            let lb = bucket_lower_bound(bucket_index(v));
            assert!(lb <= v, "lower bound {lb} exceeds value {v}");
            let err = (v - lb) as f64 / v as f64;
            assert!(err < 0.032, "relative error {err} too large for {v}");
        }
    }

    #[test]
    fn bucket_index_monotone() {
        let mut last = 0;
        for v in (0..1_000_000u64).step_by(997) {
            let idx = bucket_index(v);
            assert!(idx >= last, "index decreased at {v}");
            last = idx;
        }
    }

    #[test]
    fn percentiles_of_uniform_data() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 10_000);
        let p50 = s.value_at_quantile(0.5);
        assert!((4700..=5100).contains(&p50), "p50 = {p50}");
        let p99 = s.value_at_quantile(0.99);
        assert!((9500..=10_000).contains(&p99), "p99 = {p99}");
        assert_eq!(s.max(), 10_000);
        assert!((s.mean() - 5000.5).abs() < 1.0);
    }

    #[test]
    fn tail_quantile_reflects_outliers() {
        let h = Histogram::new();
        for _ in 0..999 {
            h.record(100);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert!(s.value_at_quantile(0.5) <= 101);
        assert!(s.value_at_quantile(0.9999) >= 900_000);
    }

    #[test]
    fn empty_histogram() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.value_at_quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_combines_counts() {
        let h1 = Histogram::new();
        let h2 = Histogram::new();
        for v in 0..100 {
            h1.record(v);
            h2.record(v + 1000);
        }
        let mut s = h1.snapshot();
        s.merge(&h2.snapshot());
        assert_eq!(s.count(), 200);
        assert!(s.value_at_quantile(1.0) >= 1000);
    }

    #[test]
    fn reset_clears() {
        let h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.snapshot().count(), 0);
        assert_eq!(h.snapshot().max(), 0);
    }

    #[test]
    fn concurrent_recording() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 100);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 80_000);
    }
}

//! Outside-in tracing: the benchmark's own wrappers around the two store
//! seams the SHM stack exposes, and the per-request ledger built from the
//! spans they record.
//!
//! Nothing here reaches inside the crates under test. A [`TracedSeries`]
//! sits where the platform puts its `SeriesStore` (the public
//! `ShmEnv::series` field) and a [`TracedLog`] where it puts its
//! `StateStore` (the engine's backing and `ShmEnv::store`). Both time the
//! calls that pass through them; the traced run installs them, the
//! untraced run that produces the end-to-end numbers does not.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use aodb_runtime::Histogram;
use aodb_store::tseries::engine::AppendAck;
use aodb_store::tseries::{AppendOutcome, SeriesRecovery, SeriesStore, TsStore};
use aodb_store::{Bytes, Key, LogStore, StateStore, StoreResult};

use crate::signal::{self, mix64};

/// Nanoseconds since the process-wide trace epoch. Every timestamp of the
/// benchmark — generator, wrappers, reply callbacks — is on this clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One channel-ingest in 16 keeps its spans. Both sides — the generator
/// and the series wrapper — decide from `(channel, batch)` alone, so they
/// agree without talking to each other.
pub const SAMPLE_EVERY: u64 = 16;

/// Whether the channel-ingest of `channel`'s batch `batch` is sampled.
pub fn sampled(channel: u32, batch: u64) -> bool {
    mix64((u64::from(channel) << 40) ^ batch).is_multiple_of(SAMPLE_EVERY)
}

/// What the series wrapper saw of one sampled append.
#[derive(Clone, Copy, Debug)]
pub struct AppendSpan {
    /// Physical channel index.
    pub channel: u32,
    /// Batch number within the channel.
    pub batch: u64,
    /// `append_batch_async` entered (on the worker running the turn).
    pub t_enter: u64,
    /// The engine's call returned to the turn.
    pub t_return: u64,
    /// The engine invoked the ack (on the committer thread, or inside
    /// the call for an append that sealed a block).
    pub t_ack: u64,
}

/// Shared recorder of the traced run.
pub struct Tracer {
    /// Off during the untraced half of a traced run (the wrappers then
    /// pass straight through), on during the traced half.
    enabled: AtomicBool,
    /// Series key → physical channel index.
    series_index: HashMap<String, u32>,
    spans: Mutex<Vec<AppendSpan>>,
    /// In-turn time of `append_batch_async` (ns).
    pub append: Histogram,
    /// The same, for appends that sealed a block (tail record put, block
    /// put and backing sync happen inside the turn).
    pub seal_append: Histogram,
    /// Engine call returned → ack invoked, for deferred acks (ns).
    pub commit: Histogram,
    /// Blocking `append_batch` (virtual channels), whole call (ns).
    pub sync_append: Histogram,
    /// `scan_range` (ns).
    pub scan: Histogram,
    /// `recover` (ns).
    pub recover: Histogram,
    /// Backing-store `put`/`put_deferred` (ns).
    pub put: Histogram,
    /// Backing-store `sync` (ns).
    pub sync: Histogram,
    /// Appends through `append_batch_async`.
    pub appends: AtomicU64,
    /// Of those, appends that sealed at least one block.
    pub seals: AtomicU64,
    /// Appends whose ack carried an error.
    pub append_errors: AtomicU64,
    /// `scan_range` calls and the points they returned.
    pub scans: AtomicU64,
    /// Points returned by scans.
    pub scan_points: AtomicU64,
    /// Backing puts under the `tseries` namespace.
    pub puts_tseries: AtomicU64,
    /// Backing puts under any other namespace (actor state blobs).
    pub puts_state: AtomicU64,
    /// Key + value bytes handed to backing puts.
    pub put_bytes: AtomicU64,
    /// Backing syncs.
    pub syncs: AtomicU64,
}

impl Tracer {
    /// Recorder for a fleet whose physical channel `i` has series key
    /// `series_keys[i]`. Starts disabled.
    pub fn new(series_keys: &[String]) -> Arc<Tracer> {
        let series_index = series_keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
        Arc::new(Tracer {
            enabled: AtomicBool::new(false),
            series_index,
            spans: Mutex::new(Vec::new()),
            append: Histogram::new(),
            seal_append: Histogram::new(),
            commit: Histogram::new(),
            sync_append: Histogram::new(),
            scan: Histogram::new(),
            recover: Histogram::new(),
            put: Histogram::new(),
            sync: Histogram::new(),
            appends: AtomicU64::new(0),
            seals: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            scan_points: AtomicU64::new(0),
            puts_tseries: AtomicU64::new(0),
            puts_state: AtomicU64::new(0),
            put_bytes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        })
    }

    /// Switches recording on or off.
    pub fn set_enabled(&self, on: bool) {
        // Relaxed: the flag publishes no data; a call racing the switch
        // is recorded or not, either of which is a valid sample.
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Clears every histogram, counter and span except the recoveries,
    /// which only boots produce: called between the boots and the traced
    /// phase, so that the phase's numbers are its own.
    pub fn reset(&self) {
        for h in [
            &self.append,
            &self.seal_append,
            &self.commit,
            &self.sync_append,
            &self.scan,
            &self.put,
            &self.sync,
        ] {
            h.reset();
        }
        for c in [
            &self.appends,
            &self.seals,
            &self.append_errors,
            &self.scans,
            &self.scan_points,
            &self.puts_tseries,
            &self.puts_state,
            &self.put_bytes,
            &self.syncs,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        self.spans.lock().expect("span list poisoned").clear();
    }

    /// Takes the sampled append spans recorded so far.
    pub fn take_spans(&self) -> Vec<AppendSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

/// The two timestamps of one append that arrive from two threads: the
/// engine's return on the worker, the ack on the committer. Whichever
/// arrives second records the append.
struct AckCell {
    tracer: Arc<Tracer>,
    sample: Option<(u32, u64)>,
    t_enter: u64,
    t_return: AtomicU64,
    t_ack: AtomicU64,
    sealed: AtomicBool,
    arrivals: AtomicU8,
}

impl AckCell {
    /// Called once from each side after it stored its timestamp.
    fn arrive(&self) {
        // AcqRel pairs the first arrival's stores (Release) with the
        // second arrival's loads in `finish` (Acquire).
        if self.arrivals.fetch_add(1, Ordering::AcqRel) == 1 {
            self.finish();
        }
    }

    fn finish(&self) {
        let t = &self.tracer;
        let t_return = self.t_return.load(Ordering::Relaxed);
        let t_ack = self.t_ack.load(Ordering::Relaxed);
        // An append that seals commits through the backing store inside
        // the call and acks before returning: its in-turn span ends at the
        // ack and it has no commit wait.
        let in_turn_end = t_return.min(t_ack);
        let in_turn = in_turn_end.saturating_sub(self.t_enter);
        t.appends.fetch_add(1, Ordering::Relaxed);
        t.append.record(in_turn);
        if self.sealed.load(Ordering::Relaxed) {
            t.seals.fetch_add(1, Ordering::Relaxed);
            t.seal_append.record(in_turn);
        }
        if t_ack > t_return {
            t.commit.record(t_ack - t_return);
        }
        if let Some((channel, batch)) = self.sample {
            t.spans
                .lock()
                .expect("span list poisoned")
                .push(AppendSpan {
                    channel,
                    batch,
                    t_enter: self.t_enter,
                    t_return,
                    t_ack,
                });
        }
    }
}

/// `SeriesStore` wrapper installed through `ShmEnv::series`.
pub struct TracedSeries<S: SeriesStore = TsStore> {
    inner: Arc<S>,
    tracer: Arc<Tracer>,
}

impl<S: SeriesStore> TracedSeries<S> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<S>, tracer: Arc<Tracer>) -> Self {
        TracedSeries { inner, tracer }
    }
}

impl<S: SeriesStore> SeriesStore for TracedSeries<S> {
    fn append_batch(
        &self,
        series: &str,
        points: &[(u64, f64)],
        meta: &[u8],
    ) -> StoreResult<AppendOutcome> {
        if !self.tracer.enabled() {
            return self.inner.append_batch(series, points, meta);
        }
        let t0 = now_ns();
        let out = self.inner.append_batch(series, points, meta);
        self.tracer.sync_append.record(now_ns() - t0);
        out
    }

    fn append_batch_async(&self, series: &str, points: &[(u64, f64)], meta: &[u8], ack: AppendAck) {
        if !self.tracer.enabled() {
            return self.inner.append_batch_async(series, points, meta, ack);
        }
        let sample = match (self.tracer.series_index.get(series), points.first()) {
            (Some(&channel), Some(&(first_ts, _))) => {
                let batch = first_ts.wrapping_sub(signal::T0_MS) / signal::BATCH_MS;
                sampled(channel, batch).then_some((channel, batch))
            }
            _ => None,
        };
        let cell = Arc::new(AckCell {
            tracer: Arc::clone(&self.tracer),
            sample,
            t_enter: now_ns(),
            t_return: AtomicU64::new(0),
            t_ack: AtomicU64::new(0),
            sealed: AtomicBool::new(false),
            arrivals: AtomicU8::new(0),
        });
        let on_ack = Arc::clone(&cell);
        self.inner.append_batch_async(
            series,
            points,
            meta,
            Box::new(move |result| {
                on_ack.t_ack.store(now_ns(), Ordering::Relaxed);
                match &result {
                    Ok(outcome) => on_ack.sealed.store(outcome.sealed > 0, Ordering::Relaxed),
                    Err(_) => {
                        on_ack.tracer.append_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Deliver first: the bookkeeping below stays off the
                // request's critical path.
                ack(result);
                on_ack.arrive();
            }),
        );
        cell.t_return.store(now_ns(), Ordering::Relaxed);
        cell.arrive();
    }

    fn barrier_async(&self, ack: AppendAck) {
        self.inner.barrier_async(ack);
    }

    fn scan_range(
        &self,
        series: &str,
        from_ms: u64,
        to_ms: u64,
        limit: usize,
    ) -> StoreResult<Vec<(u64, f64)>> {
        if !self.tracer.enabled() {
            return self.inner.scan_range(series, from_ms, to_ms, limit);
        }
        let t0 = now_ns();
        let out = self.inner.scan_range(series, from_ms, to_ms, limit);
        self.tracer.scan.record(now_ns() - t0);
        self.tracer.scans.fetch_add(1, Ordering::Relaxed);
        if let Ok(points) = &out {
            self.tracer
                .scan_points
                .fetch_add(points.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn seal(&self, series: &str) -> StoreResult<()> {
        self.inner.seal(series)
    }

    fn recover(&self, series: &str) -> StoreResult<SeriesRecovery> {
        if !self.tracer.enabled() {
            return self.inner.recover(series);
        }
        let t0 = now_ns();
        let out = self.inner.recover(series);
        self.tracer.recover.record(now_ns() - t0);
        out
    }
}

/// `StateStore` wrapper around the `LogStore`, passed both as the
/// engine's backing and as `ShmEnv::store`.
pub struct TracedLog<S: StateStore = LogStore> {
    inner: Arc<S>,
    tracer: Arc<Tracer>,
}

impl<S: StateStore> TracedLog<S> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<S>, tracer: Arc<Tracer>) -> Self {
        TracedLog { inner, tracer }
    }

    fn timed_put(
        &self,
        key: &Key,
        value_len: usize,
        put: impl FnOnce() -> StoreResult<()>,
    ) -> StoreResult<()> {
        if !self.tracer.enabled() {
            return put();
        }
        let t = &self.tracer;
        let t0 = now_ns();
        let out = put();
        t.put.record(now_ns() - t0);
        t.put_bytes
            .fetch_add((key.as_bytes().len() + value_len) as u64, Ordering::Relaxed);
        let namespace = if key.as_bytes().starts_with(b"tseries\0") {
            &t.puts_tseries
        } else {
            &t.puts_state
        };
        namespace.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl<S: StateStore> StateStore for TracedLog<S> {
    fn get(&self, key: &Key) -> StoreResult<Option<Bytes>> {
        self.inner.get(key)
    }

    fn put(&self, key: &Key, value: Bytes) -> StoreResult<()> {
        self.timed_put(key, value.len(), || self.inner.put(key, value))
    }

    fn put_deferred(&self, key: &Key, value: Bytes) -> StoreResult<()> {
        self.timed_put(key, value.len(), || self.inner.put_deferred(key, value))
    }

    fn delete(&self, key: &Key) -> StoreResult<()> {
        self.inner.delete(key)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> StoreResult<Vec<(Key, Bytes)>> {
        self.inner.scan_prefix(prefix)
    }

    fn sync(&self) -> StoreResult<()> {
        if !self.tracer.enabled() {
            return self.inner.sync();
        }
        let t0 = now_ns();
        let out = self.inner.sync();
        self.tracer.sync.record(now_ns() - t0);
        self.tracer.syncs.fetch_add(1, Ordering::Relaxed);
        out
    }
}

// ------------------------------------------------------------------ ledger

/// What the generator saw of one sampled channel-ingest.
#[derive(Clone, Copy, Debug)]
pub struct ClientPart {
    /// Physical channel index.
    pub channel: u32,
    /// Batch number within the channel.
    pub batch: u64,
    /// Just before the `ask_with` that sends the batch.
    pub t_send_start: u64,
    /// `ask_with` returned.
    pub t_send_end: u64,
    /// The reply callback ran (stamped inside it).
    pub t_reply: u64,
}

/// Names of the consecutive spans of one channel-ingest, in order.
pub const LEDGER_SPANS: [&str; 5] = [
    "client.send",
    "shm.turn_prefix",
    "tseries.append",
    "wal.commit",
    "client.reply_deliver",
];

/// The five consecutive `(start, end)` spans of one channel-ingest:
/// `client.send` (the dispatch call), `shm.turn_prefix` (mailbox wait,
/// handler work and sidecar encode before the engine is entered),
/// `tseries.append` (the engine's in-turn work), `wal.commit` (engine
/// returned → ack invoked) and `client.reply_deliver` (ack invoked →
/// reply callback ran).
///
/// Two boundaries can cross on a two-core host and are clamped so spans
/// never overlap: a worker may enter the engine before the generator's
/// dispatch call has returned (the tail of the send is then off the
/// request's path), and a sealing append acks inside the engine call.
pub fn request_spans(c: &ClientPart, a: &AppendSpan) -> [(u64, u64); 5] {
    let send_end = c.t_send_end.min(a.t_enter);
    let append_end = a.t_return.min(a.t_ack);
    [
        (c.t_send_start, send_end),
        (send_end, a.t_enter),
        (a.t_enter, append_end),
        (append_end, a.t_ack),
        (a.t_ack, c.t_reply),
    ]
}

/// One ledger line.
#[derive(Clone, Debug, Default)]
pub struct LedgerRow {
    /// Span name.
    pub name: &'static str,
    /// Mean duration (µs) over matched requests.
    pub mean_us: f64,
    /// Median duration (µs).
    pub p50_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
}

/// The per-workload ledger: how the client-measured latency of a
/// channel-ingest splits over the layers it crosses.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Sampled channel-ingests the generator completed.
    pub sampled: usize,
    /// Of those, requests whose wrapper spans were found.
    pub matched: usize,
    /// Of the matched, requests whose spans are ordered and sum to within
    /// 2 % of the client-measured latency.
    pub covered: usize,
    /// Mean client-measured latency (µs) over matched requests.
    pub e2e_mean_us: f64,
    /// One row per entry of [`LEDGER_SPANS`].
    pub rows: Vec<LedgerRow>,
}

impl Ledger {
    /// Share of sampled requests matched to their wrapper spans.
    pub fn matched_share(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.matched as f64 / self.sampled as f64
        }
    }

    /// Share of sampled requests matched and covered.
    pub fn covered_share(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.covered as f64 / self.sampled as f64
        }
    }

    /// The ledger as an aligned text table.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!(
            "ledger {title}: {} sampled channel-ingests, {:.2} % matched, {:.2} % within 2 % of end-to-end\n",
            self.sampled,
            100.0 * self.matched_share(),
            100.0 * self.covered_share()
        );
        out.push_str(&format!(
            "  {:<22} {:>10} {:>10} {:>8}\n",
            "span", "mean_us", "p50_us", "share"
        ));
        for row in &self.rows {
            let share = if self.e2e_mean_us > 0.0 {
                100.0 * row.mean_us / self.e2e_mean_us
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<22} {:>10.1} {:>10.1} {:>7.1}%\n",
                row.name, row.mean_us, row.p50_us, share
            ));
        }
        out.push_str(&format!(
            "  {:<22} {:>10.1}\n",
            "end-to-end (client)", self.e2e_mean_us
        ));
        out
    }
}

/// A sampled channel-ingest with both views of it.
pub type Matched = (ClientPart, AppendSpan);

/// Joins the generator's sampled parts of one phase with the wrapper's
/// spans of the same phase on `(channel, batch)`. The key is unique within
/// a phase only: the boot cycles of `restart-recover` replay the same
/// batches, so each cycle is joined on its own.
pub fn match_spans(client: &[ClientPart], spans: &[AppendSpan]) -> Vec<Matched> {
    let by_key: HashMap<(u32, u64), &AppendSpan> =
        spans.iter().map(|s| ((s.channel, s.batch), s)).collect();
    client
        .iter()
        .filter_map(|c| by_key.get(&(c.channel, c.batch)).map(|a| (*c, **a)))
        .collect()
}

/// Builds the ledger from the matched requests; `sampled` is how many
/// channel-ingests the generator sampled in all.
pub fn build_ledger(sampled: usize, matched: &[Matched]) -> Ledger {
    let mut durations: [Vec<f64>; 5] = Default::default();
    let mut e2e_sum = 0.0;
    let mut covered = 0usize;
    for (c, a) in matched {
        let parts = request_spans(c, a);
        let e2e = c.t_reply.saturating_sub(c.t_send_start) as f64;
        let ordered = parts.iter().all(|(s, e)| s <= e);
        let sum: f64 = parts.iter().map(|(s, e)| e.saturating_sub(*s) as f64).sum();
        if ordered && (sum - e2e).abs() <= 0.02 * e2e {
            covered += 1;
        }
        e2e_sum += e2e;
        for (d, (s, e)) in durations.iter_mut().zip(parts) {
            d.push(e.saturating_sub(s) as f64 / 1e3);
        }
    }
    let rows = LEDGER_SPANS
        .iter()
        .zip(durations.iter_mut())
        .map(|(name, d)| {
            let mean_us = if d.is_empty() {
                0.0
            } else {
                d.iter().sum::<f64>() / d.len() as f64
            };
            let sorted = crate::stats::Sorted::new(d);
            LedgerRow {
                name,
                mean_us,
                p50_us: sorted.quantile(0.5),
                p99_us: sorted.quantile(0.99),
            }
        })
        .collect();
    Ledger {
        sampled,
        matched: matched.len(),
        covered,
        e2e_mean_us: if matched.is_empty() {
            0.0
        } else {
            e2e_sum / matched.len() as f64 / 1e3
        },
        rows,
    }
}

/// Writes the spans of up to `max_requests` matched requests as JSON:
/// a list of `{id, name, start, end, parent, request}` with times in ns on
/// the trace clock. Each request has a root span `client.request` and
/// the five ledger spans as its children.
pub fn write_trace_json(
    path: &std::path::Path,
    matched: &[Matched],
    max_requests: usize,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "[")?;
    let mut id = 0u64;
    for (c, a) in matched.iter().take(max_requests) {
        let request = format!("c{}/b{}", c.channel, c.batch);
        let root = id;
        let children = LEDGER_SPANS
            .iter()
            .copied()
            .zip(request_spans(c, a))
            .map(|(name, span)| (name, span, Some(root)));
        let all = std::iter::once(("client.request", (c.t_send_start, c.t_reply), None));
        for (name, (start, end), parent) in all.chain(children) {
            let sep = if id == 0 { "\n" } else { ",\n" };
            let parent = parent.map_or("null".to_string(), |p: u64| p.to_string());
            write!(
                out,
                "{sep}{{\"id\":{id},\"name\":\"{name}\",\"start\":{start},\"end\":{end},\"parent\":{parent},\"request\":\"{request}\"}}"
            )?;
            id += 1;
        }
    }
    writeln!(out, "\n]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A series store that acks inside the call for even batches (as a
    /// sealing append does) and from another thread for odd ones (as the
    /// WAL committer does).
    struct FakeSeries {
        to_committer: Mutex<mpsc::Sender<AppendAck>>,
    }

    impl SeriesStore for FakeSeries {
        fn append_batch(
            &self,
            _series: &str,
            points: &[(u64, f64)],
            _meta: &[u8],
        ) -> StoreResult<AppendOutcome> {
            Ok(AppendOutcome {
                appended: points.len() as u32,
                sealed: 0,
            })
        }

        fn append_batch_async(
            &self,
            _series: &str,
            points: &[(u64, f64)],
            _meta: &[u8],
            ack: AppendAck,
        ) {
            let batch = (points[0].0 - signal::T0_MS) / signal::BATCH_MS;
            if batch.is_multiple_of(2) {
                ack(Ok(AppendOutcome {
                    appended: points.len() as u32,
                    sealed: 1,
                }));
            } else {
                self.to_committer
                    .lock()
                    .expect("sender poisoned")
                    .send(ack)
                    .expect("committer alive");
            }
        }

        fn scan_range(
            &self,
            _series: &str,
            _from_ms: u64,
            _to_ms: u64,
            _limit: usize,
        ) -> StoreResult<Vec<(u64, f64)>> {
            Ok(vec![(1, 1.0), (2, 2.0)])
        }

        fn seal(&self, _series: &str) -> StoreResult<()> {
            Ok(())
        }

        fn recover(&self, _series: &str) -> StoreResult<SeriesRecovery> {
            Ok(SeriesRecovery::default())
        }
    }

    #[test]
    fn wrapper_spans_nest_and_never_overlap_on_one_request() {
        let (tx, rx) = mpsc::channel::<AppendAck>();
        let committer = std::thread::spawn(move || {
            for ack in rx {
                ack(Ok(AppendOutcome {
                    appended: 10,
                    sealed: 0,
                }));
            }
        });
        let keys = vec!["series-0".to_string()];
        let tracer = Tracer::new(&keys);
        tracer.set_enabled(true);
        let store = TracedSeries::new(
            Arc::new(FakeSeries {
                to_committer: Mutex::new(tx),
            }),
            Arc::clone(&tracer),
        );

        let (reply_tx, reply_rx) = mpsc::channel::<(u64, u64)>();
        let mut client = Vec::new();
        let batches: Vec<u64> = (0..4000).filter(|b| sampled(0, *b)).collect();
        assert!(batches.iter().any(|b| b % 2 == 0) && batches.iter().any(|b| b % 2 == 1));
        for &batch in &batches {
            let points: Vec<(u64, f64)> = signal::batch(1, 0, batch)
                .iter()
                .map(|p| (p.ts_ms, p.value))
                .collect();
            let reply = reply_tx.clone();
            let t_send_start = now_ns();
            store.append_batch_async(
                "series-0",
                &points,
                b"meta",
                Box::new(move |_| reply.send((batch, now_ns())).expect("test alive")),
            );
            let t_send_end = now_ns();
            client.push((batch, t_send_start, t_send_end));
        }
        let mut replies = HashMap::new();
        for _ in 0..batches.len() {
            let (batch, t) = reply_rx.recv().expect("every append acks");
            replies.insert(batch, t);
        }
        drop(store);
        committer.join().expect("committer exits");

        // The committer records an append just after delivering its ack,
        // so the last spans can trail the last reply.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let mut spans = Vec::new();
        while spans.len() < batches.len() {
            assert!(Instant::now() < deadline, "appends never recorded");
            spans.extend(tracer.take_spans());
            std::thread::yield_now();
        }
        assert_eq!(spans.len(), batches.len());
        let parts: Vec<ClientPart> = client
            .iter()
            .map(|&(batch, t_send_start, t_send_end)| ClientPart {
                channel: 0,
                batch,
                t_send_start,
                t_send_end,
                t_reply: replies[&batch],
            })
            .collect();
        for c in &parts {
            let a = spans
                .iter()
                .find(|s| s.batch == c.batch)
                .expect("span recorded");
            let spans5 = request_spans(c, a);
            assert_eq!(spans5[0].0, c.t_send_start, "first span starts at the send");
            assert_eq!(spans5[4].1, c.t_reply, "last span ends at the reply");
            for (i, (s, e)) in spans5.iter().enumerate() {
                assert!(s <= e, "span {i} of batch {} runs backwards", c.batch);
                if i > 0 {
                    assert_eq!(
                        spans5[i - 1].1,
                        *s,
                        "span {i} must start where {} ends",
                        i - 1
                    );
                }
            }
        }
        let ledger = build_ledger(parts.len(), &match_spans(&parts, &spans));
        assert_eq!(ledger.matched, batches.len());
        assert_eq!(ledger.covered, batches.len());
        assert_eq!(
            tracer.seals.load(Ordering::Relaxed) as usize,
            batches.iter().filter(|b| *b % 2 == 0).count()
        );
    }

    #[test]
    fn ledger_arithmetic() {
        let c = ClientPart {
            channel: 3,
            batch: 9,
            t_send_start: 1_000,
            t_send_end: 3_000,
            t_reply: 21_000,
        };
        let a = AppendSpan {
            channel: 3,
            batch: 9,
            t_enter: 5_000,
            t_return: 9_000,
            t_ack: 20_000,
        };
        let unmatched = ClientPart { batch: 10, ..c };
        let ledger = build_ledger(2, &match_spans(&[c, unmatched], &[a]));
        assert_eq!((ledger.sampled, ledger.matched, ledger.covered), (2, 1, 1));
        let means: Vec<f64> = ledger.rows.iter().map(|r| r.mean_us).collect();
        assert_eq!(means, vec![2.0, 2.0, 4.0, 11.0, 1.0]);
        assert_eq!(ledger.e2e_mean_us, 20.0);
        assert_eq!(means.iter().sum::<f64>(), ledger.e2e_mean_us);

        // Worker entered the engine before the send call returned, and
        // the append acked inside the call: clamped, still consecutive.
        let a2 = AppendSpan {
            t_enter: 2_000,
            t_return: 9_000,
            t_ack: 8_000,
            ..a
        };
        let spans = request_spans(&c, &a2);
        assert_eq!(
            spans,
            [
                (1_000, 2_000),
                (2_000, 2_000),
                (2_000, 8_000),
                (8_000, 8_000),
                (8_000, 21_000)
            ]
        );
    }

    #[test]
    fn sampling_keeps_about_one_in_sixteen() {
        let kept = (0..16_000u64).filter(|b| sampled(7, *b)).count();
        assert!((800..1200).contains(&kept), "kept {kept} of 16000");
    }
}

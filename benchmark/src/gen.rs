//! The load generator: one thread that turns a seeded request stream into
//! traffic, closed-loop or open-loop, and checks every reply.
//!
//! A closed loop keeps a window of requests outstanding and sends the
//! next when one completes; latency runs from the send. An open loop sends
//! one request every `1/rate` seconds whatever the system does; latency
//! runs from the time the request was due.
//!
//! The generator never blocks on the platform. Replies arrive as
//! callbacks on worker (or WAL committer) threads; each callback stamps
//! its completion time and hands the payload over a channel, and all
//! checking and bookkeeping happens here on the generator thread, so the
//! measured threads do none of it.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use aodb_runtime::{ActorRef, ReplyTo};
use aodb_shm::messages::{
    ChannelStats, GetChannelStats, GetLiveData, Ingest, LiveDataReport, QueryRange,
};
use aodb_shm::types::DataPoint;

use crate::signal::{self, Rng, BATCH_POINTS, SAMPLE_MS, T0_MS};
use crate::system::{Fleet, Ping, Probe, CHANNELS_PER_SENSOR};
use crate::trace::{now_ns, sampled, ClientPart, Tracer};

/// Data time a raw-range request looks back (the paper's "last minute").
pub const RAW_LOOKBACK_MS: u64 = 60_000;
/// Point limit of a raw-range request.
pub const RAW_LIMIT: usize = 1_000;
/// How long after a phase ends a reply may still arrive before its
/// operation counts as failed.
pub const REPLY_GRACE: Duration = Duration::from_secs(10);

/// Request mix in per-mille; the remainder is sensor ingest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    /// Raw time-range requests per 1000.
    pub raw_pm: u32,
    /// Organization live-data requests per 1000.
    pub live_pm: u32,
}

/// One request of the stream.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// A sensor request: one batch to each `(channel, batch number)`.
    Ingest {
        /// The channels of one sensor with the batch each receives.
        parts: Vec<(u32, u64)>,
    },
    /// Raw range over one channel.
    Raw {
        /// Physical channel index.
        channel: u32,
        /// Inclusive range start (ms).
        from_ms: u64,
        /// Inclusive range end (ms).
        to_ms: u64,
    },
    /// Live data of one organization.
    Live {
        /// Organization index.
        org: u32,
    },
    /// Channel statistics (verification passes only).
    Stats {
        /// Physical channel index.
        channel: u32,
    },
}

/// The seeded request stream: a pure function of `(seed, fleet shape,
/// mix)` and of how many requests were drawn — never of timing.
#[derive(Clone)]
pub struct OpStream {
    rng: Rng,
    sensor_order: Vec<u32>,
    cursor: usize,
    orgs: u32,
    /// Per physical channel: batches handed out so far (= the next batch
    /// number).
    pub sent_batches: Vec<u64>,
}

impl OpStream {
    /// Stream over a fleet with the given ingest order and organization
    /// count, starting from empty channels.
    pub fn new(seed: u64, sensor_order: Vec<u32>, orgs: usize) -> OpStream {
        let channels = sensor_order.len() * CHANNELS_PER_SENSOR as usize;
        OpStream {
            rng: Rng::new(seed, 0x0b5),
            sensor_order,
            cursor: 0,
            orgs: orgs as u32,
            sent_batches: vec![0; channels],
        }
    }

    fn channels(&self) -> u32 {
        self.sent_batches.len() as u32
    }

    /// The next batch of a single channel (pre-fill).
    pub fn next_single(&mut self, channel: u32) -> Op {
        let batch = self.sent_batches[channel as usize];
        self.sent_batches[channel as usize] += 1;
        Op::Ingest {
            parts: vec![(channel, batch)],
        }
    }

    /// The next request under `mix`.
    pub fn next_op(&mut self, mix: Mix) -> Op {
        let draw = self.rng.below(1000) as u32;
        if draw < mix.raw_pm {
            let channel = self.rng.below(u64::from(self.channels())) as u32;
            // The last minute of what the channel has been sent so far.
            let to_ms = signal::last_ts_after(self.sent_batches[channel as usize]).unwrap_or(T0_MS);
            Op::Raw {
                channel,
                from_ms: to_ms.saturating_sub(RAW_LOOKBACK_MS).max(T0_MS),
                to_ms,
            }
        } else if draw < mix.raw_pm + mix.live_pm {
            Op::Live {
                org: self.rng.below(u64::from(self.orgs)) as u32,
            }
        } else {
            let sensor = self.sensor_order[self.cursor];
            self.cursor = (self.cursor + 1) % self.sensor_order.len();
            let parts = (0..CHANNELS_PER_SENSOR)
                .map(|c| {
                    let channel = sensor * CHANNELS_PER_SENSOR + c;
                    let batch = self.sent_batches[channel as usize];
                    self.sent_batches[channel as usize] += 1;
                    (channel, batch)
                })
                .collect();
            Op::Ingest { parts }
        }
    }

    /// Hash of the next `n` requests (and of the first point of every
    /// batch they carry): equal for equal seeds, different otherwise.
    #[cfg(test)]
    pub fn prefix_hash(mut self, seed: u64, mix: Mix, n: usize) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for _ in 0..n {
            let op = self.next_op(mix);
            op.hash(&mut h);
            if let Op::Ingest { parts } = &op {
                for &(channel, batch) in parts {
                    signal::value(seed, channel, signal::batch_first_ts(batch))
                        .to_bits()
                        .hash(&mut h);
                }
            }
        }
        h.finish()
    }
}

enum Payload {
    Ack(u32),
    Raw(Vec<DataPoint>),
    Live(LiveDataReport),
    Stats(ChannelStats),
    Pong,
    /// The reply sink was dropped undelivered (abort, panic, shutdown).
    Lost,
}

struct Done {
    slot: u32,
    part: u8,
    t_done: u64,
    payload: Payload,
}

/// Travels inside a reply callback; reports `Lost` if the callback is
/// dropped without running, so no operation can vanish silently.
struct ReplyGuard {
    tx: Sender<Done>,
    slot: u32,
    part: u8,
    armed: bool,
}

impl ReplyGuard {
    fn complete(mut self, payload: Payload) {
        self.armed = false;
        // The receiver outlives every phase; a send can only fail while
        // the process is tearing down.
        let _ = self.tx.send(Done {
            slot: self.slot,
            part: self.part,
            t_done: now_ns(),
            payload,
        });
    }
}

impl Drop for ReplyGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.tx.send(Done {
                slot: self.slot,
                part: self.part,
                t_done: now_ns(),
                payload: Payload::Lost,
            });
        }
    }
}

struct InFlight {
    op: Op,
    /// Latency origin: the send (closed loop) or the due time (open loop).
    t_origin: u64,
    remaining: u8,
    t_last: u64,
    failed: bool,
    /// Per part: `(send start, send end)` when the part is sampled.
    sends: Vec<Option<(u64, u64)>>,
    /// Batches acked per relevant channel when the request was sent: the
    /// least a query must see.
    floor: Vec<u64>,
    /// Probe round trips are timed but are not workload operations.
    probe: bool,
}

/// What one phase measured.
#[derive(Default)]
pub struct PhaseStats {
    /// Phase length (ns).
    pub len_ns: u64,
    /// Sensor-request latency (ms), send or due time → last channel ack.
    pub ack_ms: Vec<f64>,
    /// Raw-range latency (ms).
    pub raw_ms: Vec<f64>,
    /// Live-data latency (ms).
    pub live_ms: Vec<f64>,
    /// Completion times of fully acked sensor requests, relative to the
    /// phase start (ns).
    pub ack_done_ns: Vec<u64>,
    /// Duration of each dispatch call (µs; traced phases only).
    pub send_us: Vec<f64>,
    /// Probe actor round trips (µs).
    pub probe_us: Vec<f64>,
    /// Open loop: how late each request was sent (ms).
    pub late_ms: Vec<f64>,
    /// Requests still outstanding when the phase's sending stopped.
    pub backlog_end: usize,
    /// Requests sent, by class: ingest, raw, live.
    pub sent: [u64; 3],
    /// Of those, requests sent while the tracer was recording.
    pub sent_traced: [u64; 3],
    /// Sampled channel-ingests (traced phases only).
    pub parts: Vec<ClientPart>,
}

impl PhaseStats {
    /// Total requests sent.
    pub fn requests(&self) -> u64 {
        self.sent.iter().sum()
    }
}

/// The generator and its view of the fleet's state.
pub struct Client {
    seed: u64,
    fleet: Arc<Fleet>,
    /// The request stream (owns the per-channel sent counters).
    pub stream: OpStream,
    /// Per physical channel: batches acked so far.
    pub acked_batches: Vec<u64>,
    tx: Sender<Done>,
    rx: Receiver<Done>,
    slab: Vec<Option<InFlight>>,
    free: Vec<u32>,
    inflight: usize,
    /// Operations sent (all phases, probes excluded).
    pub attempted: u64,
    /// Operations that errored, lost their reply, or had none within
    /// [`REPLY_GRACE`] of their phase's end.
    pub failed: u64,
    /// Output checks that did not hold (first few, for the report).
    pub check_failures: Vec<String>,
    /// Output checks that did not hold (count).
    pub check_failed: u64,
    tracer: Option<Arc<Tracer>>,
    probe: Option<ActorRef<Probe>>,
    /// When set, the tracer records during every odd window of this many
    /// ns since the phase start and passes through during the even ones.
    alternate_ns: Option<u64>,
    stats: PhaseStats,
    phase_start: u64,
}

impl Client {
    /// Generator over `fleet` continuing `stream`. `acked_batches` is the
    /// fleet's durable state the stream starts from (all zeros for a fresh
    /// data directory).
    pub fn new(seed: u64, fleet: Arc<Fleet>, stream: OpStream, acked_batches: Vec<u64>) -> Self {
        let (tx, rx) = mpsc::channel();
        Client {
            seed,
            fleet,
            stream,
            acked_batches,
            tx,
            rx,
            slab: Vec::new(),
            free: Vec::new(),
            inflight: 0,
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            check_failed: 0,
            tracer: None,
            probe: None,
            alternate_ns: None,
            stats: PhaseStats::default(),
            phase_start: 0,
        }
    }

    /// Traced run: record sampled channel-ingests while the tracer is on,
    /// and ask `probe` once every 100 requests.
    pub fn with_tracing(mut self, tracer: Arc<Tracer>, probe: ActorRef<Probe>) -> Self {
        self.tracer = Some(tracer);
        self.probe = Some(probe);
        self
    }

    /// Makes the tracer record only during the odd windows of
    /// `window_ns` of each following phase: traced and untraced windows
    /// then interleave under the same conditions, and the difference
    /// between their throughputs is the tracing overhead. `None` leaves
    /// the tracer as the caller set it.
    pub fn alternate_tracing(&mut self, window_ns: Option<u64>) {
        self.alternate_ns = window_ns;
    }

    /// Hands the stream and the acked counters on (to the next stack over
    /// the same data).
    pub fn into_state(self) -> (OpStream, Vec<u64>) {
        (self.stream, self.acked_batches)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failed += 1;
            if self.check_failures.len() < 8 {
                self.check_failures.push(what());
            }
        }
    }

    fn alloc(&mut self, flight: InFlight) -> u32 {
        self.inflight += 1;
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(flight);
                slot
            }
            None => {
                self.slab.push(Some(flight));
                (self.slab.len() - 1) as u32
            }
        }
    }

    fn guard(&self, slot: u32, part: u8) -> ReplyGuard {
        ReplyGuard {
            tx: self.tx.clone(),
            slot,
            part,
            armed: true,
        }
    }

    /// Sends `op`. `t_due` is the open-loop due time, if any.
    fn issue(&mut self, op: Op, t_due: Option<u64>) {
        let t_send = now_ns();
        if let (Some(window), Some(t)) = (self.alternate_ns, &self.tracer) {
            let odd = ((t_send - self.phase_start) / window) % 2 == 1;
            if odd != t.enabled() {
                t.set_enabled(odd);
            }
        }
        let tracing = self.tracer.as_ref().is_some_and(|t| t.enabled());
        let t_origin = t_due.unwrap_or(t_send);
        let (parts_n, floor, class) = match &op {
            Op::Ingest { parts } => (parts.len(), Vec::new(), Some(0)),
            Op::Raw { channel, .. } => (1, vec![self.acked_batches[*channel as usize]], Some(1)),
            Op::Live { org } => {
                let keys = &self.fleet.org_channel_keys[*org as usize];
                let floor = keys
                    .iter()
                    .map(|k| {
                        self.fleet
                            .channel_index
                            .get(k)
                            .map_or(0, |&c| self.acked_batches[c as usize])
                    })
                    .collect();
                (1, floor, Some(2))
            }
            Op::Stats { .. } => (1, Vec::new(), None),
        };
        if let Some(class) = class {
            self.stats.sent[class] += 1;
            self.stats.sent_traced[class] += u64::from(tracing);
        }
        self.attempted += 1;
        let slot = self.alloc(InFlight {
            op: op.clone(),
            t_origin,
            remaining: parts_n as u8,
            t_last: 0,
            failed: false,
            sends: vec![None; parts_n],
            floor,
            probe: false,
        });

        match op {
            Op::Ingest { parts } => {
                for (i, (channel, batch)) in parts.into_iter().enumerate() {
                    let points = signal::batch(self.seed, channel, batch);
                    let guard = self.guard(slot, i as u8);
                    let reply =
                        ReplyTo::Callback(Box::new(move |n: u32| guard.complete(Payload::Ack(n))));
                    // A refused send drops the guard, which reports `Lost`.
                    let target = &self.fleet.channels[channel as usize];
                    if !tracing {
                        let _ = target.ask_with(Ingest::new(points), reply);
                        continue;
                    }
                    let t0 = now_ns();
                    let _ = target.ask_with(Ingest::new(points), reply);
                    let t1 = now_ns();
                    self.stats.send_us.push((t1 - t0) as f64 / 1e3);
                    if sampled(channel, batch) {
                        if let Some(flight) = &mut self.slab[slot as usize] {
                            flight.sends[i] = Some((t0, t1));
                        }
                    }
                }
            }
            Op::Raw {
                channel,
                from_ms,
                to_ms,
            } => {
                let guard = self.guard(slot, 0);
                let reply = ReplyTo::Callback(Box::new(move |p: Vec<DataPoint>| {
                    guard.complete(Payload::Raw(p))
                }));
                let _ = self.fleet.channels[channel as usize].ask_with(
                    QueryRange {
                        from_ms,
                        to_ms,
                        limit: RAW_LIMIT,
                    },
                    reply,
                );
            }
            Op::Live { org } => {
                let guard = self.guard(slot, 0);
                let reply = ReplyTo::Callback(Box::new(move |r: LiveDataReport| {
                    guard.complete(Payload::Live(r))
                }));
                let _ =
                    self.fleet.orgs[org as usize].ask_with(GetLiveData { reply }, ReplyTo::Ignore);
            }
            Op::Stats { channel } => {
                let guard = self.guard(slot, 0);
                let reply = ReplyTo::Callback(Box::new(move |s: ChannelStats| {
                    guard.complete(Payload::Stats(s))
                }));
                let _ = self.fleet.channels[channel as usize].ask_with(GetChannelStats, reply);
            }
        }

        // The runtime's own share of a request, measured beside the
        // traffic: one no-op round trip per 100 requests.
        if tracing && self.attempted.is_multiple_of(100) {
            if let Some(probe) = self.probe.clone() {
                let slot = self.alloc(InFlight {
                    op: Op::Stats { channel: 0 },
                    t_origin: now_ns(),
                    remaining: 1,
                    t_last: 0,
                    failed: false,
                    sends: Vec::new(),
                    floor: Vec::new(),
                    probe: true,
                });
                let guard = self.guard(slot, 0);
                let reply = ReplyTo::Callback(Box::new(move |()| guard.complete(Payload::Pong)));
                let _ = probe.ask_with(Ping, reply);
            }
        }
    }

    fn on_done(&mut self, done: Done) {
        let Some(flight) = self.slab[done.slot as usize].as_mut() else {
            self.check(false, || format!("reply for free slot {}", done.slot));
            return;
        };
        flight.remaining -= 1;
        flight.t_last = flight.t_last.max(done.t_done);
        let finished = flight.remaining == 0;
        let mut problems: Vec<String> = Vec::new();
        let seed = self.seed;

        match (&flight.op, done.payload) {
            (_, Payload::Lost) => flight.failed = true,
            (_, Payload::Pong) => {}
            (Op::Ingest { parts }, Payload::Ack(n)) => {
                let (channel, batch) = parts[done.part as usize];
                if u64::from(n) != BATCH_POINTS {
                    problems.push(format!(
                        "channel {channel} batch {batch}: ack {n}, sent {BATCH_POINTS}"
                    ));
                }
                self.acked_batches[channel as usize] += 1;
                if let Some((t0, t1)) = flight.sends[done.part as usize] {
                    self.stats.parts.push(ClientPart {
                        channel,
                        batch,
                        t_send_start: t0,
                        t_send_end: t1,
                        t_reply: done.t_done,
                    });
                }
            }
            (
                Op::Raw {
                    channel,
                    from_ms,
                    to_ms,
                },
                Payload::Raw(points),
            ) => {
                // Everything acked before the request was sent must be
                // there; what was in flight may be.
                let floor_last = signal::last_ts_after(flight.floor[0]);
                let at_least = floor_last
                    .filter(|last| last >= from_ms)
                    .map_or(0, |last| (last.min(*to_ms) - from_ms) / SAMPLE_MS + 1);
                let at_most = (to_ms - from_ms) / SAMPLE_MS + 1;
                let n = points.len() as u64;
                if n < at_least || n > at_most {
                    problems.push(format!(
                        "raw channel {channel}: {n} points, expected {at_least}..={at_most}"
                    ));
                }
                if !signal::matches_signal(seed, *channel, *from_ms, &points) {
                    problems.push(format!(
                        "raw channel {channel}: reply is not the signal from {from_ms}"
                    ));
                }
            }
            (Op::Live { org }, Payload::Live(report)) => {
                let expected = &self.fleet.org_channel_keys[*org as usize];
                let mut got: Vec<&str> = report.channels.iter().map(|(k, _)| k.as_str()).collect();
                got.sort_unstable();
                if !got.iter().copied().eq(expected.iter().map(String::as_str)) {
                    problems.push(format!(
                        "live org {org}: {} channels, expected {}",
                        got.len(),
                        expected.len()
                    ));
                } else {
                    for (key, latest) in &report.channels {
                        let Some(&channel) = self.fleet.channel_index.get(key) else {
                            continue; // virtual channel: covered, not checked
                        };
                        let slot = expected
                            .binary_search(key)
                            .expect("key set was just compared");
                        let floor_last = signal::last_ts_after(flight.floor[slot]);
                        let ok = match latest {
                            Some(p) => {
                                floor_last.is_none_or(|last| p.ts_ms >= last)
                                    && p.ts_ms >= T0_MS
                                    && (p.ts_ms - T0_MS).is_multiple_of(SAMPLE_MS)
                                    && p.value == signal::value(seed, channel, p.ts_ms)
                            }
                            None => floor_last.is_none(),
                        };
                        if !ok {
                            problems.push(format!(
                                "live org {org}: channel {key} latest {latest:?}, acked up to {floor_last:?}"
                            ));
                            break;
                        }
                    }
                }
            }
            (Op::Stats { channel }, Payload::Stats(stats)) => {
                let expected = self.acked_batches[*channel as usize] * BATCH_POINTS;
                if stats.total_points != expected {
                    problems.push(format!(
                        "channel {channel}: total_points {}, acked {expected}",
                        stats.total_points
                    ));
                }
                let last = signal::last_ts_after(self.acked_batches[*channel as usize]);
                if stats.last.map(|p| p.ts_ms) != last {
                    problems.push(format!(
                        "channel {channel}: last point {:?}, acked up to {last:?}",
                        stats.last
                    ));
                }
            }
            (op, _) => problems.push(format!("reply of the wrong type for {op:?}")),
        }

        if finished {
            let flight = self.slab[done.slot as usize]
                .take()
                .expect("slot checked above");
            self.free.push(done.slot);
            self.inflight -= 1;
            let latency_ns = flight.t_last.saturating_sub(flight.t_origin);
            if flight.probe {
                if !flight.failed {
                    self.stats.probe_us.push(latency_ns as f64 / 1e3);
                }
            } else if flight.failed {
                // No reply: the operation also counts as missing every
                // latency figure, so it records no sample.
                self.failed += 1;
            } else {
                let ms = latency_ns as f64 / 1e6;
                match flight.op {
                    Op::Ingest { .. } => {
                        self.stats.ack_ms.push(ms);
                        self.stats
                            .ack_done_ns
                            .push(flight.t_last.saturating_sub(self.phase_start));
                    }
                    Op::Raw { .. } => self.stats.raw_ms.push(ms),
                    Op::Live { .. } => self.stats.live_ms.push(ms),
                    Op::Stats { .. } => {}
                }
            }
        }
        for p in problems {
            self.check(false, || p);
        }
    }

    fn drain_ready(&mut self) {
        while let Ok(done) = self.rx.try_recv() {
            self.on_done(done);
        }
    }

    /// Waits for every outstanding reply, up to [`REPLY_GRACE`]; what is
    /// still missing then is failed.
    fn drain_all(&mut self) {
        let deadline = std::time::Instant::now() + REPLY_GRACE;
        while self.inflight > 0 {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            match self.rx.recv_timeout(left) {
                Ok(done) => self.on_done(done),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        if self.inflight > 0 {
            // The emptied slots stay out of the free list: a late reply
            // for one must not land on a new request.
            for flight in self.slab.iter_mut().filter_map(Option::take) {
                if !flight.probe {
                    self.failed += 1;
                }
            }
            self.inflight = 0;
        }
    }

    fn begin_phase(&mut self) {
        self.stats = PhaseStats::default();
        self.phase_start = now_ns();
    }

    fn end_phase(&mut self) -> PhaseStats {
        self.stats.backlog_end = self.inflight;
        self.drain_all();
        self.stats.len_ns = self.stats.len_ns.max(1);
        std::mem::take(&mut self.stats)
    }

    /// Closed loop over the requests `next` yields, `window` outstanding,
    /// until `next` returns `None`.
    pub fn run_closed(
        &mut self,
        window: usize,
        mut next: impl FnMut(&mut OpStream) -> Option<Op>,
    ) -> PhaseStats {
        self.begin_phase();
        let mut exhausted = false;
        loop {
            while !exhausted && self.inflight < window {
                match next(&mut self.stream) {
                    Some(op) => self.issue(op, None),
                    None => exhausted = true,
                }
            }
            if exhausted {
                break;
            }
            match self.rx.recv_timeout(REPLY_GRACE) {
                Ok(done) => self.on_done(done),
                Err(_) => break, // nothing for 10 s: the drain fails the rest
            }
            self.drain_ready();
        }
        self.stats.len_ns = now_ns() - self.phase_start;
        self.end_phase()
    }

    /// Closed loop under `mix` for `duration`.
    pub fn run_closed_for(&mut self, window: usize, mix: Mix, duration: Duration) -> PhaseStats {
        let end = now_ns() + duration.as_nanos() as u64;
        self.run_closed(window, |stream| {
            (now_ns() < end).then(|| stream.next_op(mix))
        })
    }

    /// Closed loop over the next `count` requests under `mix`.
    pub fn run_closed_count(&mut self, window: usize, mix: Mix, count: u64) -> PhaseStats {
        let mut left = count;
        self.run_closed(window, |stream| {
            (left > 0).then(|| {
                left -= 1;
                stream.next_op(mix)
            })
        })
    }

    /// Open loop under `mix` at `rate` requests/s for `duration`.
    pub fn run_open_for(&mut self, rate: f64, mix: Mix, duration: Duration) -> PhaseStats {
        self.begin_phase();
        let interval_ns = 1e9 / rate;
        let start = self.phase_start;
        let end = start + duration.as_nanos() as u64;
        let mut n = 0u64;
        loop {
            let due = start + (n as f64 * interval_ns) as u64;
            if due >= end {
                break;
            }
            let now = now_ns();
            if now >= due {
                self.stats.late_ms.push((now - due) as f64 / 1e6);
                let op = self.stream.next_op(mix);
                self.issue(op, Some(due));
                n += 1;
                self.drain_ready();
            } else {
                match self.rx.recv_timeout(Duration::from_nanos(due - now)) {
                    Ok(done) => self.on_done(done),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        self.stats.len_ns = now_ns() - self.phase_start;
        self.end_phase()
    }

    /// Asks every physical channel for its statistics and checks them
    /// against what was acked; then checks a full-history raw range on
    /// one channel in `sample_every`. On a freshly opened stack this is
    /// also what activates every channel.
    pub fn verify_fleet(&mut self, window: usize, sample_every: u32) {
        let channels = self.stream.sent_batches.len() as u32;
        let mut next = 0u32;
        self.run_closed(window, |_| {
            (next < channels).then(|| {
                next += 1;
                Op::Stats { channel: next - 1 }
            })
        });
        let mut picked = 0u32;
        let acked = self.acked_batches.clone();
        self.run_closed(window, |_| {
            while picked < channels {
                let channel = picked;
                picked += sample_every.max(1);
                if let Some(to_ms) = signal::last_ts_after(acked[channel as usize]) {
                    return Some(Op::Raw {
                        channel,
                        from_ms: to_ms
                            .saturating_sub((RAW_LIMIT as u64 - 1) * SAMPLE_MS)
                            .max(T0_MS),
                        to_ms,
                    });
                }
            }
            None
        });
    }
}

/// Batches per channel the seeded pre-fill gives each channel: uniform in
/// `0..=max`, so the 512-point seals of the fleet are spread over the run
/// and do not fire in lockstep (which no real fleet does).
pub fn prefill_counts(seed: u64, channels: usize, max: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0xf111);
    (0..channels).map(|_| rng.below(max + 1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        raw_pm: 50,
        live_pm: 50,
    };

    fn stream(seed: u64) -> OpStream {
        OpStream::new(seed, (0..40).collect(), 2)
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = stream(11).prefix_hash(11, MIX, 5_000);
        let b = stream(11).prefix_hash(11, MIX, 5_000);
        let c = stream(12).prefix_hash(12, MIX, 5_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stream_honours_the_mix_and_numbers_batches_in_order() {
        let mut s = stream(3);
        let (mut ingest, mut raw, mut live) = (0u32, 0u32, 0u32);
        for _ in 0..20_000 {
            match s.next_op(MIX) {
                Op::Ingest { parts } => {
                    ingest += 1;
                    assert_eq!(parts.len(), 2);
                    assert_eq!(parts[0].0 + 1, parts[1].0);
                }
                Op::Raw {
                    channel,
                    from_ms,
                    to_ms,
                } => {
                    raw += 1;
                    assert!(from_ms <= to_ms && from_ms >= T0_MS);
                    assert!(to_ms - from_ms <= RAW_LOOKBACK_MS);
                    assert_eq!(
                        to_ms,
                        signal::last_ts_after(s.sent_batches[channel as usize]).unwrap_or(T0_MS)
                    );
                }
                Op::Live { org } => {
                    live += 1;
                    assert!(org < 2);
                }
                Op::Stats { .. } => unreachable!("the stream never yields stats"),
            }
        }
        assert!((800..1200).contains(&raw), "raw {raw}");
        assert!((800..1200).contains(&live), "live {live}");
        assert_eq!(s.sent_batches.iter().sum::<u64>(), u64::from(ingest) * 2);
        let (lo, hi) = (
            s.sent_batches.iter().min().unwrap(),
            s.sent_batches.iter().max().unwrap(),
        );
        assert!(hi - lo <= 1, "round robin keeps channels level");
    }

    #[test]
    fn prefill_is_seeded_and_spread() {
        let a = prefill_counts(5, 800, 50);
        assert_eq!(a, prefill_counts(5, 800, 50));
        assert_ne!(a, prefill_counts(6, 800, 50));
        assert!(a.iter().all(|&n| n <= 50));
        assert!(a.iter().any(|&n| n < 10) && a.iter().any(|&n| n > 40));
    }
}

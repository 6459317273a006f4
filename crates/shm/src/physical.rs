//! The `PhysicalSensorChannel` actor: one data stream from one physical
//! sensor channel.
//!
//! This is the hot actor of the whole platform — the paper's benchmark
//! drives 10 data points per second into each of ~thousands of these. A
//! channel holds a bounded in-memory window of recent points (the
//! "programmable cache" role of the AODB), maintains the accumulated
//! change required by functional requirement 4, raises threshold alerts
//! (FR 5), feeds subscribed virtual channels, and forwards batches to its
//! hourly aggregator.

use std::cell::OnceCell;
use std::collections::VecDeque;
use std::sync::Arc;

use aodb_runtime::{Actor, ActorContext, ActorKey, ActorRef, Handler};
use aodb_store::codec::{Reader, Writer};
use aodb_store::tseries::SeriesStore;
use aodb_store::StoreResult;
use serde::{Deserialize, Serialize};

use crate::aggregator::{aggregator_key, Aggregator};
use crate::alerts::AlertLog;
use crate::env::ShmEnv;
use crate::messages::{
    ChannelStats, ConfigureChannel, GetChannelStats, GetLatest, Ingest, PushAlert, PushDerived,
    QueryRange, RecordSamples,
};
use crate::sidecar;
use crate::types::{
    AggregateLevel, Alert, AlertKind, AlertSeverity, DataPoint, PointBatch, Threshold,
};
use crate::virtual_channel::VirtualSensorChannel;
use aodb_core::Persisted;

#[derive(Default, Serialize, Deserialize)]
pub(crate) struct ChannelState {
    org: String,
    sensor: String,
    threshold: Threshold,
    subscribers: Vec<String>,
    aggregates: bool,
    window: VecDeque<DataPoint>,
    total_points: u64,
    accumulated_change: f64,
    first_value: Option<f64>,
    last: Option<DataPoint>,
    /// Hysteresis flags so a sustained breach raises one alert, not one
    /// per sample.
    breaching_high: bool,
    breaching_low: bool,
    accumulated_alerted: bool,
    /// Per-source ingest high-watermarks `(source, max seq applied)`.
    /// A `Vec` of pairs rather than a map: serde_json requires string
    /// map keys, and the set of sources per channel is small.
    #[serde(default)]
    ingest_watermarks: Vec<(u64, u64)>,
}

impl ChannelState {
    /// Returns `true` (and advances the watermark) when the token is
    /// fresh; `false` when the batch is a duplicate redelivery.
    pub(crate) fn admit_dedup(&mut self, source: u64, seq: u64) -> bool {
        match self
            .ingest_watermarks
            .iter_mut()
            .find(|(src, _)| *src == source)
        {
            Some((_, mark)) if seq <= *mark => false,
            Some((_, mark)) => {
                *mark = seq;
                true
            }
            None => {
                self.ingest_watermarks.push((source, seq));
                true
            }
        }
    }
}

/// The channel's data-plane fields, shipped as series metadata on the
/// columnar path so they commit in the same durable write as the points
/// they describe (the dedup watermarks in particular: a watermark must
/// never be durable without its points, or ahead of them).
#[derive(Default, Serialize, Deserialize)]
pub(crate) struct ChannelSideCar {
    total_points: u64,
    accumulated_change: f64,
    first_value: Option<f64>,
    last: Option<DataPoint>,
    breaching_high: bool,
    breaching_low: bool,
    accumulated_alerted: bool,
    ingest_watermarks: Vec<(u64, u64)>,
}

impl ChannelSideCar {
    /// Compact fixed-layout encoding of `s`'s data-plane fields into
    /// `out` (the side-car rides every columnar append, so this sits on
    /// the ingest hot path — see `sidecar.rs` — and encodes straight from
    /// the state into the channel's reused buffer).
    fn encode_from(s: &ChannelState, out: &mut Vec<u8>) {
        out.clear();
        let mut w = Writer::over(out);
        w.u8(sidecar::FORMAT);
        w.u64(s.total_points);
        w.f64(s.accumulated_change);
        w.opt(s.first_value, Writer::f64);
        w.opt(s.last, write_point);
        w.bool(s.breaching_high);
        w.bool(s.breaching_low);
        w.bool(s.accumulated_alerted);
        w.u64(s.ingest_watermarks.len() as u64);
        for &(source, seq) in &s.ingest_watermarks {
            w.u64(source);
            w.u64(seq);
        }
    }

    fn decode(bytes: &[u8]) -> StoreResult<Self> {
        Reader::whole(bytes, "channel side-car", |r| {
            r.tag(sidecar::FORMAT)?;
            Ok(ChannelSideCar {
                total_points: r.u64()?,
                accumulated_change: r.f64()?,
                first_value: r.opt(Reader::f64)?,
                last: r.opt(read_point)?,
                breaching_high: r.bool()?,
                breaching_low: r.bool()?,
                accumulated_alerted: r.bool()?,
                ingest_watermarks: r.u64_list(|r| Ok((r.u64()?, r.u64()?)))?,
            })
        })
    }

    fn apply(self, s: &mut ChannelState) {
        s.total_points = self.total_points;
        s.accumulated_change = self.accumulated_change;
        s.first_value = self.first_value;
        s.last = self.last;
        s.breaching_high = self.breaching_high;
        s.breaching_low = self.breaching_low;
        s.accumulated_alerted = self.accumulated_alerted;
        s.ingest_watermarks = self.ingest_watermarks;
    }
}

/// A side-car's `DataPoint` field: `ts_ms u64 | value f64`.
pub(crate) fn write_point(w: &mut Writer<'_>, p: DataPoint) {
    w.u64(p.ts_ms);
    w.f64(p.value);
}

pub(crate) fn read_point(r: &mut Reader<'_>) -> StoreResult<DataPoint> {
    Ok(DataPoint {
        ts_ms: r.u64()?,
        value: r.f64()?,
    })
}

/// Series name of a channel's point stream: type-prefixed so physical
/// and virtual channels with the same key stay isolated.
pub(crate) fn channel_series_key(type_name: &str, channel_key: &str) -> String {
    format!("{type_name}/{channel_key}")
}

/// What a channel actor (physical or virtual) keeps per activation so
/// that its hot turns stop re-deriving it per message: the strings its
/// identity fixes for good and the buffers an append reuses. (Each
/// actor also keeps its hour aggregator's reference next to this; the
/// send site stays in the actor's own code, where the topology checks
/// look for it.) Actor-struct data, not persisted state.
pub(crate) struct ChannelCache {
    /// The actor key as text (shared: a physical channel names itself as
    /// the `source` of every derived-stream push).
    pub channel_key: Arc<str>,
    /// The channel's series name in the engine.
    pub series_key: String,
    /// Scratch: the batch being appended, in the engine's point type.
    pub points: Vec<(u64, f64)>,
    /// Scratch: the encoded side-car of that append.
    pub meta: Vec<u8>,
}

impl ChannelCache {
    pub fn new(type_name: &str, key: &ActorKey) -> Self {
        let channel_key: Arc<str> = key.to_string().into();
        ChannelCache {
            series_key: channel_series_key(type_name, &channel_key),
            channel_key,
            points: Vec::new(),
            meta: Vec::new(),
        }
    }
}

/// Loads `points` into a [`ChannelCache::points`] scratch batch.
pub(crate) fn stage_points(scratch: &mut Vec<(u64, f64)>, points: &[DataPoint]) {
    scratch.clear();
    scratch.extend(points.iter().map(|p| (p.ts_ms, p.value)));
}

/// The physical sensor channel actor.
pub struct PhysicalSensorChannel {
    state: Persisted<ChannelState>,
    window_capacity: usize,
    service_time: Option<std::time::Duration>,
    /// Columnar point-stream engine; `None` = KV-blob mode.
    series: Option<Arc<dyn SeriesStore>>,
    cache: ChannelCache,
    /// The hour aggregator ingests feed, resolved on first use.
    hour_aggregator: OnceCell<ActorRef<Aggregator>>,
    /// The subscribed virtual channels, resolved on first use;
    /// `ConfigureChannel` drops them with the list they were made from.
    subscribers: OnceCell<Vec<ActorRef<VirtualSensorChannel>>>,
}

impl PhysicalSensorChannel {
    /// Registers the actor type.
    pub fn register(rt: &aodb_runtime::Runtime, env: ShmEnv) {
        rt.register(move |id| PhysicalSensorChannel {
            state: env.persisted_data(Self::TYPE_NAME, &id.key),
            window_capacity: env.window_capacity,
            service_time: env.ingest_service_time,
            series: env.series.clone(),
            cache: ChannelCache::new(Self::TYPE_NAME, &id.key),
            hour_aggregator: OnceCell::new(),
            subscribers: OnceCell::new(),
        });
    }

    /// Shared ingest/alert logic, also used by virtual channels.
    pub(crate) fn apply_points(
        state: &mut ChannelState,
        points: &[DataPoint],
        window_capacity: usize,
        alerts: &mut Vec<Alert>,
        channel_key: &str,
    ) -> u32 {
        let mut accepted = 0u32;
        for p in points {
            if let Some(last) = state.last {
                state.accumulated_change += (p.value - last.value).abs();
            } else {
                state.first_value = Some(p.value);
            }
            state.last = Some(*p);
            // Capacity 0 = no window at all (the columnar path serves
            // range queries from the series store instead).
            if window_capacity > 0 {
                state.window.push_back(*p);
                if state.window.len() > window_capacity {
                    state.window.pop_front();
                }
            }
            state.total_points += 1;
            accepted += 1;
            check_thresholds(state, *p, alerts, channel_key);
        }
        accepted
    }
}

fn check_thresholds(
    state: &mut ChannelState,
    p: DataPoint,
    alerts: &mut Vec<Alert>,
    channel_key: &str,
) {
    let th = state.threshold;
    if let Some(high) = th.high {
        let breaching = p.value > high;
        if breaching && !state.breaching_high {
            alerts.push(Alert {
                channel: channel_key.to_string(),
                ts_ms: p.ts_ms,
                value: p.value,
                kind: AlertKind::AboveHigh,
                severity: AlertSeverity::Critical,
            });
        }
        state.breaching_high = breaching;
    }
    if let Some(low) = th.low {
        let breaching = p.value < low;
        if breaching && !state.breaching_low {
            alerts.push(Alert {
                channel: channel_key.to_string(),
                ts_ms: p.ts_ms,
                value: p.value,
                kind: AlertKind::BelowLow,
                severity: AlertSeverity::Critical,
            });
        }
        state.breaching_low = breaching;
    }
    if let Some(limit) = th.max_accumulated_change {
        if state.accumulated_change > limit && !state.accumulated_alerted {
            alerts.push(Alert {
                channel: channel_key.to_string(),
                ts_ms: p.ts_ms,
                value: state.accumulated_change,
                kind: AlertKind::AccumulatedChange,
                severity: AlertSeverity::Warning,
            });
            state.accumulated_alerted = true;
        }
    }
}

/// Shared window query, also used by virtual channels.
pub(crate) fn query_window(window: &VecDeque<DataPoint>, q: QueryRange) -> Vec<DataPoint> {
    // Windows are (quasi-)sorted by timestamp because devices stream
    // monotonically; binary search the slices for the range bounds.
    let (a, b) = window.as_slices();
    let mut out = Vec::new();
    for slice in [a, b] {
        let start = slice.partition_point(|p| p.ts_ms < q.from_ms);
        for p in &slice[start..] {
            if p.ts_ms > q.to_ms {
                break;
            }
            out.push(*p);
            if q.limit != 0 && out.len() >= q.limit {
                return out;
            }
        }
    }
    out
}

/// Answers a range query on the columnar path: scans the compressed
/// blocks, skipping any whose sparse index misses the range, instead of
/// replaying the in-memory window. A failed scan (a backing read error
/// while the series recovers, a CRC-corrupt block, an unsupported block
/// version) aborts the reply: "no points" would be a wrong answer, not
/// a degraded one.
pub(crate) fn scan_series(
    series: &dyn SeriesStore,
    series_key: &str,
    q: QueryRange,
    ctx: &mut ActorContext<'_>,
) -> Vec<DataPoint> {
    match series.scan_range(series_key, q.from_ms, q.to_ms, q.limit) {
        Ok(points) => points
            .into_iter()
            .map(|(ts_ms, value)| DataPoint { ts_ms, value })
            .collect(),
        Err(_) => {
            if let Some(reply) = ctx.defer_reply::<Vec<DataPoint>>() {
                reply.abort(aodb_runtime::PromiseError::Lost);
            }
            Vec::new()
        }
    }
}

impl Actor for PhysicalSensorChannel {
    const TYPE_NAME: &'static str = "shm.channel";
    fn declared_calls() -> &'static [aodb_runtime::CallDecl] {
        // Ingest side effects: raised alerts, derived-channel pushes, and
        // the aggregate pyramid.
        const CALLS: &[aodb_runtime::CallDecl] = &[
            aodb_runtime::CallDecl::send("shm.alert-log"),
            aodb_runtime::CallDecl::send("shm.virtual-channel"),
            aodb_runtime::CallDecl::send("shm.aggregator"),
        ];
        CALLS
    }

    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.load_or_default();
        if let Some(series) = &self.series {
            // The series store is authoritative for data-plane fields on
            // the columnar path: overlay the committed sidecar (stats +
            // dedup watermarks) over whatever the KV blob held.
            if let Ok(rec) = series.recover(&self.cache.series_key) {
                // Empty meta means the series committed *nothing* — but
                // the KV blob may still hold data-plane fields from a
                // turn whose append never became durable (a WAL group
                // wiped by a crash), so the overlay must reset them or
                // the stale watermark would falsely reject the
                // retransmitted batch forever.
                let overlay = if rec.meta.is_empty() {
                    Some(ChannelSideCar::default())
                } else {
                    ChannelSideCar::decode(&rec.meta).ok()
                };
                if let Some(sidecar) = overlay {
                    sidecar.apply(self.state.get_mut_untracked());
                }
            }
        }
    }

    fn on_deactivate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.flush();
    }
}

impl Handler<ConfigureChannel> for PhysicalSensorChannel {
    fn handle(&mut self, msg: ConfigureChannel, _ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| {
            s.org = msg.org;
            s.sensor = msg.sensor;
            s.threshold = msg.threshold;
            s.subscribers = msg.subscribers;
            s.aggregates = msg.aggregates;
        });
        self.subscribers.take();
    }
}

impl Handler<Ingest> for PhysicalSensorChannel {
    fn handle(&mut self, msg: Ingest, ctx: &mut ActorContext<'_>) -> u32 {
        if let Some((source, seq)) = msg.dedup {
            let stale = self
                .state
                .get()
                .ingest_watermarks
                .iter()
                .any(|(src, mark)| *src == source && seq <= *mark);
            if stale {
                // Duplicate redelivery: drop it before the state mutation
                // *and* before the downstream fan-out, so subscribers and
                // aggregators see each batch exactly once too.
                //
                // A duplicate-reject ack asserts "this batch is already
                // durable" — under group commit the original append may
                // still be in flight, so on the series path the reject
                // queues *behind* it and resolves only at the engine's
                // current durability horizon. A barrier failure (e.g.
                // dead WAL) aborts instead: the safe direction is a
                // retransmit, never a false duplicate ack.
                if let Some(series) = &self.series {
                    if let Some(reply) = ctx.defer_reply::<u32>() {
                        series.barrier_async(Box::new(move |result| match result {
                            Ok(_) => reply.deliver(0),
                            Err(_) => reply.abort(aodb_runtime::PromiseError::Lost),
                        }));
                    }
                }
                return 0;
            }
        }
        if let Some(service) = self.service_time {
            // Simulated server CPU cost of one ingest request (see
            // `ShmEnv::ingest_service_time`).
            std::thread::sleep(service);
        }
        let channel_key = &*self.cache.channel_key;
        let mut alerts = Vec::new();
        if let Some(series) = &self.series {
            // Columnar path: stats and watermarks mutate in memory only;
            // the single durable write is the series append, which
            // commits the compressed points and the sidecar (watermarks
            // + stats) atomically.
            let s = self.state.get_mut_untracked();
            if let Some((source, seq)) = msg.dedup {
                s.admit_dedup(source, seq);
            }
            let accepted = Self::apply_points(s, &msg.points, 0, &mut alerts, channel_key);
            ChannelSideCar::encode_from(s, &mut self.cache.meta);
            stage_points(&mut self.cache.points, &msg.points);
            self.fan_out(alerts, msg.points, ctx);
            // The engine owns the ack: it resolves when the append is
            // durable — inside this call for an engine that commits on
            // append, at group commit (off this worker) for one with a
            // WAL. Last in the turn, so no ack is visible before the
            // fan-out is enqueued. A failed append aborts the reply,
            // never a false ack; the points stay in the engine's
            // in-memory tail until its next committed record carries
            // them.
            let ack = ctx.defer_reply::<u32>();
            series.append_batch_async(
                &self.cache.series_key,
                &self.cache.points,
                &self.cache.meta,
                Box::new(move |result| {
                    if let Some(reply) = ack {
                        match result {
                            Ok(_) => reply.deliver(accepted),
                            Err(_) => reply.abort(aodb_runtime::PromiseError::Lost),
                        }
                    }
                }),
            );
            accepted
        } else {
            let capacity = self.window_capacity;
            let accepted = self.state.mutate(|s| {
                if let Some((source, seq)) = msg.dedup {
                    // Advance the watermark in the same mutation (and
                    // hence the same durable write) as the points it
                    // admits.
                    s.admit_dedup(source, seq);
                }
                Self::apply_points(s, &msg.points, capacity, &mut alerts, channel_key)
            });
            self.fan_out(alerts, msg.points, ctx);
            accepted
        }
    }
}

impl PhysicalSensorChannel {
    /// An ingest turn's downstream sends: raised alerts, derived-channel
    /// pushes, and the aggregate pyramid.
    fn fan_out(&self, alerts: Vec<Alert>, points: PointBatch, ctx: &ActorContext<'_>) {
        let s = self.state.get();
        let channel_key = &*self.cache.channel_key;
        if !alerts.is_empty() {
            let log = ctx.actor_ref::<AlertLog>(s.org.as_str());
            for alert in alerts {
                let _ = log.tell(PushAlert(alert));
            }
        }
        let subscribers = self.subscribers.get_or_init(|| {
            s.subscribers
                .iter()
                .map(|key| ctx.actor_ref::<VirtualSensorChannel>(key.as_str()))
                .collect()
        });
        for subscriber in subscribers {
            let _ = subscriber.tell(PushDerived {
                source: Arc::clone(&self.cache.channel_key),
                points: points.clone(),
            });
        }
        if s.aggregates {
            let agg = self.hour_aggregator.get_or_init(|| {
                ctx.actor_ref::<Aggregator>(aggregator_key(channel_key, AggregateLevel::Hour))
            });
            let _ = agg.tell(RecordSamples { points });
        }
    }
}

impl Handler<GetLatest> for PhysicalSensorChannel {
    fn handle(&mut self, _msg: GetLatest, _ctx: &mut ActorContext<'_>) -> Option<DataPoint> {
        self.state.get().last
    }
}

impl Handler<QueryRange> for PhysicalSensorChannel {
    fn handle(&mut self, msg: QueryRange, ctx: &mut ActorContext<'_>) -> Vec<DataPoint> {
        if let Some(series) = &self.series {
            return scan_series(series.as_ref(), &self.cache.series_key, msg, ctx);
        }
        query_window(&self.state.get().window, msg)
    }
}

impl Handler<GetChannelStats> for PhysicalSensorChannel {
    fn handle(&mut self, _msg: GetChannelStats, _ctx: &mut ActorContext<'_>) -> ChannelStats {
        let s = self.state.get();
        ChannelStats {
            total_points: s.total_points,
            window_len: s.window.len(),
            accumulated_change: s.accumulated_change,
            net_change: match (s.first_value, s.last) {
                (Some(first), Some(last)) => last.value - first,
                _ => 0.0,
            },
            last: s.last,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dp(ts_ms: u64, value: f64) -> DataPoint {
        DataPoint { ts_ms, value }
    }

    #[test]
    fn apply_points_tracks_stats_and_window_bound() {
        let mut state = ChannelState::default();
        let mut alerts = Vec::new();
        let points: Vec<DataPoint> = (0..10).map(|i| dp(i, i as f64)).collect();
        let n = PhysicalSensorChannel::apply_points(&mut state, &points, 4, &mut alerts, "c");
        assert_eq!(n, 10);
        assert_eq!(state.total_points, 10);
        assert_eq!(state.window.len(), 4, "window must stay bounded");
        assert_eq!(state.accumulated_change, 9.0);
        assert_eq!(state.first_value, Some(0.0));
        assert!(alerts.is_empty());
    }

    #[test]
    fn high_threshold_alerts_once_per_breach_episode() {
        let mut state = ChannelState {
            threshold: Threshold {
                high: Some(10.0),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut alerts = Vec::new();
        let points = [
            dp(0, 5.0),
            dp(1, 11.0),
            dp(2, 12.0),
            dp(3, 9.0),
            dp(4, 15.0),
        ];
        PhysicalSensorChannel::apply_points(&mut state, &points, 100, &mut alerts, "c");
        // Two episodes: 11→12 (one alert) and 15 (second alert).
        assert_eq!(alerts.len(), 2);
        assert!(alerts.iter().all(|a| a.kind == AlertKind::AboveHigh));
    }

    #[test]
    fn low_threshold_fires() {
        let mut state = ChannelState {
            threshold: Threshold {
                low: Some(-1.0),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut alerts = Vec::new();
        PhysicalSensorChannel::apply_points(&mut state, &[dp(0, -2.0)], 100, &mut alerts, "c");
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::BelowLow);
    }

    #[test]
    fn accumulated_change_alert_fires_once() {
        let mut state = ChannelState {
            threshold: Threshold {
                max_accumulated_change: Some(5.0),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut alerts = Vec::new();
        let points: Vec<DataPoint> = (0..10).map(|i| dp(i, (i % 2) as f64 * 3.0)).collect();
        PhysicalSensorChannel::apply_points(&mut state, &points, 100, &mut alerts, "c");
        let acc: Vec<_> = alerts
            .iter()
            .filter(|a| a.kind == AlertKind::AccumulatedChange)
            .collect();
        assert_eq!(
            acc.len(),
            1,
            "accumulated-change alert must fire exactly once"
        );
    }

    #[test]
    fn query_window_respects_range_and_limit() {
        let mut window = VecDeque::new();
        for i in 0..100u64 {
            window.push_back(dp(i * 10, i as f64));
        }
        let hits = query_window(
            &window,
            QueryRange {
                from_ms: 200,
                to_ms: 400,
                limit: 0,
            },
        );
        assert_eq!(hits.len(), 21);
        assert_eq!(hits.first().unwrap().ts_ms, 200);
        assert_eq!(hits.last().unwrap().ts_ms, 400);
        let hits = query_window(
            &window,
            QueryRange {
                from_ms: 200,
                to_ms: 400,
                limit: 5,
            },
        );
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn query_window_straddles_ring_buffer_wrap() {
        // Force the deque to wrap so as_slices() returns two pieces.
        let mut window: VecDeque<DataPoint> = VecDeque::with_capacity(8);
        for i in 0..6u64 {
            window.push_back(dp(i, 0.0));
        }
        for _ in 0..3 {
            window.pop_front();
        }
        for i in 6..10u64 {
            window.push_back(dp(i, 0.0));
        }
        let hits = query_window(
            &window,
            QueryRange {
                from_ms: 0,
                to_ms: 100,
                limit: 0,
            },
        );
        assert_eq!(hits.len(), window.len());
    }

    #[test]
    fn dedup_watermarks_admit_once_per_sequence() {
        let mut state = ChannelState::default();
        assert!(state.admit_dedup(7, 1));
        assert!(!state.admit_dedup(7, 1)); // exact duplicate
        assert!(state.admit_dedup(7, 2));
        assert!(!state.admit_dedup(7, 1)); // late replay below the mark
        assert!(state.admit_dedup(9, 1)); // independent source
        assert!(!state.admit_dedup(9, 1));
        // Watermarks survive a serde round trip (they are part of the
        // persisted state, so redelivery after reactivation is safe too).
        let json = serde_json::to_vec(&state).unwrap();
        let mut back: ChannelState = serde_json::from_slice(&json).unwrap();
        assert!(!back.admit_dedup(7, 2));
        assert!(back.admit_dedup(7, 3));
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::test_props::{assert_codec_roundtrip, data_point, key, threshold};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any channel state survives the persistence codec unchanged —
        /// including the ingest dedup watermarks, whose durability is what
        /// keeps post-crash retries exactly-once.
        #[test]
        fn channel_state_roundtrips(
            (org, sensor, threshold, subscribers, aggregates) in (
                key(),
                key(),
                threshold(),
                proptest::collection::vec(key(), 0..4),
                any::<bool>(),
            ),
            (window, total_points, accumulated_change, first_value, last) in (
                proptest::collection::vec(data_point(), 0..6),
                any::<u64>(),
                0.0f64..1e9,
                proptest::option::of(-1e9f64..1e9),
                proptest::option::of(data_point()),
            ),
            (breaching_high, breaching_low, accumulated_alerted, ingest_watermarks) in (
                any::<bool>(),
                any::<bool>(),
                any::<bool>(),
                proptest::collection::vec((any::<u64>(), any::<u64>()), 0..4),
            ),
        ) {
            assert_codec_roundtrip(&ChannelState {
                org,
                sensor,
                threshold,
                subscribers,
                aggregates,
                window: window.into(),
                total_points,
                accumulated_change,
                first_value,
                last,
                breaching_high,
                breaching_low,
                accumulated_alerted,
                ingest_watermarks,
            });
        }

        /// The side-car's compact binary codec round-trips every field
        /// (it carries the dedup watermarks, so a lossy encode would
        /// break exactly-once ingest after recovery).
        #[test]
        fn channel_sidecar_roundtrips(
            (total_points, accumulated_change, first_value, last) in (
                any::<u64>(),
                -1e12f64..1e12,
                proptest::option::of(-1e300f64..1e300),
                proptest::option::of(data_point()),
            ),
            (breaching_high, breaching_low, accumulated_alerted, ingest_watermarks) in (
                any::<bool>(),
                any::<bool>(),
                any::<bool>(),
                proptest::collection::vec((any::<u64>(), any::<u64>()), 0..4),
            ),
        ) {
            // The encoder reads the fields off a channel state.
            let state = ChannelState {
                total_points,
                accumulated_change,
                first_value,
                last,
                breaching_high,
                breaching_low,
                accumulated_alerted,
                ingest_watermarks,
                ..ChannelState::default()
            };
            let mut bytes = Vec::new();
            ChannelSideCar::encode_from(&state, &mut bytes);
            let decoded = ChannelSideCar::decode(&bytes).unwrap();
            prop_assert_eq!(decoded.total_points, state.total_points);
            prop_assert_eq!(decoded.accumulated_change.to_bits(), state.accumulated_change.to_bits());
            prop_assert_eq!(decoded.first_value.map(f64::to_bits), state.first_value.map(f64::to_bits));
            prop_assert_eq!(decoded.last, state.last);
            prop_assert_eq!(decoded.breaching_high, state.breaching_high);
            prop_assert_eq!(decoded.breaching_low, state.breaching_low);
            prop_assert_eq!(decoded.accumulated_alerted, state.accumulated_alerted);
            prop_assert_eq!(decoded.ingest_watermarks, state.ingest_watermarks);
            // Every strict prefix is refused, never read as a side-car.
            for cut in 0..bytes.len() {
                prop_assert!(ChannelSideCar::decode(&bytes[..cut]).is_err(), "cut at {}", cut);
            }
        }
    }

    /// Golden fixture: the exact bytes of one channel side-car (it is
    /// the series metadata every committed append carries).
    #[test]
    fn golden_channel_sidecar_bytes() {
        let state = ChannelState {
            total_points: 3,
            accumulated_change: 1.5,
            first_value: Some(20.0),
            last: Some(DataPoint {
                ts_ms: 1000,
                value: 21.5,
            }),
            breaching_high: true,
            ingest_watermarks: vec![(7, 2)],
            ..ChannelState::default()
        };
        let mut bytes = vec![0xEE; 5]; // stale contents are replaced
        ChannelSideCar::encode_from(&state, &mut bytes);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                // format byte | total_points=3 | accumulated_change=1.5
                "01",
                "0300000000000000",
                "000000000000f83f",
                // first_value: present, 20.0
                "01",
                "0000000000003440",
                // last: present, ts=1000, value=21.5
                "01",
                "e803000000000000",
                "0000000000803540",
                // breaching_high | breaching_low | accumulated_alerted
                "010000",
                // ingest_watermarks: count=1, (source=7, seq=2)
                "0100000000000000",
                "0700000000000000",
                "0200000000000000",
            ),
            "channel side-car format drifted — bump sidecar::FORMAT"
        );
    }
}

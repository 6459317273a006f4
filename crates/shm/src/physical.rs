//! The `PhysicalSensorChannel` actor: one data stream from one physical
//! sensor channel.
//!
//! This is the hot actor of the whole platform — the paper's benchmark
//! drives 10 data points per second into each of ~thousands of these. A
//! channel appends its points to its series in the [`SeriesStore`],
//! maintains the accumulated change required by functional requirement 4,
//! raises threshold alerts (FR 5) and feeds subscribed virtual channels.
//! Its aggregate buckets (FR 6) are read from the series by the
//! aggregators themselves (see `aggregator.rs`), so an ingest sends
//! nothing for them.

use std::cell::OnceCell;
use std::sync::Arc;

use aodb_runtime::{Actor, ActorContext, ActorKey, ActorRef, Handler, PromiseError};
use aodb_store::codec::{Reader, Writer};
use aodb_store::tseries::SeriesStore;
use aodb_store::StoreResult;
use serde::{Deserialize, Serialize};

use crate::alerts::AlertLog;
use crate::env::ShmEnv;
use crate::messages::{
    ChannelStats, ConfigureChannel, GetChannelStats, Ingest, PushAlert, PushDerived, QueryRange,
};
use crate::sidecar;
use crate::types::{Alert, AlertKind, AlertSeverity, DataPoint, PointBatch, Threshold};
use crate::virtual_channel::VirtualSensorChannel;
use aodb_core::Persisted;

/// A channel's configuration: all it keeps in its state blob.
#[derive(Default, Serialize, Deserialize)]
pub(crate) struct ChannelState {
    org: String,
    sensor: String,
    threshold: Threshold,
    subscribers: Vec<String>,
}

/// The running stats every channel keeps over its stream, and the common
/// prefix of both side-car layouts.
#[derive(Clone, Copy, Default)]
pub(crate) struct RunningStats {
    pub(crate) total_points: u64,
    pub(crate) accumulated_change: f64,
    pub(crate) first_value: Option<f64>,
    pub(crate) last: Option<DataPoint>,
}

impl RunningStats {
    pub(crate) fn record(&mut self, p: DataPoint) {
        match self.last {
            Some(last) => self.accumulated_change += (p.value - last.value).abs(),
            None => self.first_value = Some(p.value),
        }
        self.last = Some(p);
        self.total_points += 1;
    }

    pub(crate) fn reply(&self) -> ChannelStats {
        ChannelStats {
            total_points: self.total_points,
            accumulated_change: self.accumulated_change,
            net_change: match (self.first_value, self.last) {
                (Some(first), Some(last)) => last.value - first,
                _ => 0.0,
            },
            last: self.last,
        }
    }

    pub(crate) fn write(&self, w: &mut Writer<'_>) {
        w.u64(self.total_points);
        w.f64(self.accumulated_change);
        w.opt(self.first_value, Writer::f64);
        w.opt(self.last, write_point);
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> StoreResult<Self> {
        Ok(RunningStats {
            total_points: r.u64()?,
            accumulated_change: r.f64()?,
            first_value: r.opt(Reader::f64)?,
            last: r.opt(read_point)?,
        })
    }
}

/// The channel's data plane. It lives in memory, is recovered from the
/// series' metadata (see [`ChannelCache::recovered`]), and is
/// written only as the metadata of the append that carries the points it
/// describes — so a dedup watermark is never durable without its points,
/// or ahead of them.
#[derive(Default)]
pub(crate) struct ChannelSideCar {
    pub(crate) stats: RunningStats,
    /// Hysteresis flags so a sustained breach raises one alert, not one
    /// per sample.
    breaching_high: bool,
    breaching_low: bool,
    accumulated_alerted: bool,
    /// Per-source ingest high-watermarks `(source, max seq applied)`; a
    /// channel has few sources.
    ingest_watermarks: Vec<(u64, u64)>,
}

impl ChannelSideCar {
    /// Returns `true` (and advances the watermark) when the token is
    /// fresh; `false` when the batch is a duplicate redelivery.
    fn admit_dedup(&mut self, source: u64, seq: u64) -> bool {
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

    /// Applies one ingest batch: stats and threshold alerts. Returns the
    /// number of points accepted.
    fn apply_points(
        &mut self,
        threshold: Threshold,
        points: &[DataPoint],
        alerts: &mut Vec<Alert>,
        channel_key: &str,
    ) -> u32 {
        for p in points {
            self.stats.record(*p);
            self.check_thresholds(threshold, *p, alerts, channel_key);
        }
        points.len() as u32
    }

    fn check_thresholds(
        &mut self,
        th: Threshold,
        p: DataPoint,
        alerts: &mut Vec<Alert>,
        channel_key: &str,
    ) {
        if let Some(high) = th.high {
            let breaching = p.value > high;
            if breaching && !self.breaching_high {
                alerts.push(Alert {
                    channel: channel_key.to_string(),
                    ts_ms: p.ts_ms,
                    value: p.value,
                    kind: AlertKind::AboveHigh,
                    severity: AlertSeverity::Critical,
                });
            }
            self.breaching_high = breaching;
        }
        if let Some(low) = th.low {
            let breaching = p.value < low;
            if breaching && !self.breaching_low {
                alerts.push(Alert {
                    channel: channel_key.to_string(),
                    ts_ms: p.ts_ms,
                    value: p.value,
                    kind: AlertKind::BelowLow,
                    severity: AlertSeverity::Critical,
                });
            }
            self.breaching_low = breaching;
        }
        if let Some(limit) = th.max_accumulated_change {
            let accumulated = self.stats.accumulated_change;
            if accumulated > limit && !self.accumulated_alerted {
                alerts.push(Alert {
                    channel: channel_key.to_string(),
                    ts_ms: p.ts_ms,
                    value: accumulated,
                    kind: AlertKind::AccumulatedChange,
                    severity: AlertSeverity::Warning,
                });
                self.accumulated_alerted = true;
            }
        }
    }

    /// Compact fixed-layout encoding into `out` (the side-car rides
    /// every append, so this sits on the ingest hot path — see
    /// `sidecar.rs` — and writes into the channel's reused buffer).
    fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        let mut w = Writer::over(out);
        w.u8(sidecar::FORMAT);
        self.stats.write(&mut w);
        w.bool(self.breaching_high);
        w.bool(self.breaching_low);
        w.bool(self.accumulated_alerted);
        w.u64(self.ingest_watermarks.len() as u64);
        for &(source, seq) in &self.ingest_watermarks {
            w.u64(source);
            w.u64(seq);
        }
    }

    pub(crate) fn decode(bytes: &[u8]) -> StoreResult<Self> {
        Reader::whole(bytes, "channel side-car", |r| {
            r.tag(sidecar::FORMAT)?;
            Ok(ChannelSideCar {
                stats: RunningStats::read(r)?,
                breaching_high: r.bool()?,
                breaching_low: r.bool()?,
                accumulated_alerted: r.bool()?,
                ingest_watermarks: r.u64_list(|r| Ok((r.u64()?, r.u64()?)))?,
            })
        })
    }
}

/// A side-car's `DataPoint` field: `ts_ms u64 | value f64`.
fn write_point(w: &mut Writer<'_>, p: DataPoint) {
    w.u64(p.ts_ms);
    w.f64(p.value);
}

fn read_point(r: &mut Reader<'_>) -> StoreResult<DataPoint> {
    Ok(DataPoint {
        ts_ms: r.u64()?,
        value: r.f64()?,
    })
}

/// Aborts the turn's reply with `Lost`: the caller sees a failed request,
/// never an answer. Returns the placeholder the handler's signature needs
/// (the runtime discards it once the reply is taken).
pub(crate) fn abort_reply<R: Default + Send + 'static>(ctx: &mut ActorContext<'_>) -> R {
    if let Some(reply) = ctx.defer_reply::<R>() {
        reply.abort(PromiseError::Lost);
    }
    R::default()
}

/// The name of the series that holds the points and side-car of channel
/// `channel_key` of actor type `type_name`, written into `out` (replacing
/// its contents) and returned. Type-prefixed, so physical and virtual
/// channels with the same key stay isolated.
pub fn series_key<'a>(out: &'a mut String, type_name: &str, channel_key: &str) -> &'a str {
    out.clear();
    out.reserve(type_name.len() + 1 + channel_key.len());
    out.push_str(type_name);
    out.push('/');
    out.push_str(channel_key);
    out
}

/// A channel's side-car from the meta its series holds: the fresh side-car
/// for an empty meta (a series without an append), `decode`'s verdict
/// otherwise.
pub(crate) fn sidecar_from_meta<T: Default>(
    meta: &[u8],
    decode: fn(&[u8]) -> StoreResult<T>,
) -> StoreResult<T> {
    if meta.is_empty() {
        Ok(T::default())
    } else {
        decode(meta)
    }
}

/// What a channel actor (physical or virtual) keeps per activation so
/// that its hot turns stop re-deriving it per message: its series, the
/// strings its identity fixes for good and the buffers an append reuses.
/// Actor-struct data, not persisted state.
pub(crate) struct ChannelCache {
    /// The store holding the channel's points and side-car.
    pub series: Arc<dyn SeriesStore>,
    /// The actor key as text (shared: a physical channel names itself as
    /// the `source` of every derived-stream push).
    pub channel_key: Arc<str>,
    /// The channel's series name (see [`series_key`]).
    pub series_key: String,
    /// Scratch: the batch being appended, in the engine's point type.
    pub points: Vec<(u64, f64)>,
    /// Scratch: the encoded side-car of that append.
    pub meta: Vec<u8>,
}

impl ChannelCache {
    pub fn new(env: &ShmEnv, type_name: &str, key: &ActorKey) -> Self {
        let channel_key: Arc<str> = key.to_string().into();
        let mut series_name = String::new();
        series_key(&mut series_name, type_name, &channel_key);
        ChannelCache {
            series: Arc::clone(&env.series),
            series_key: series_name,
            channel_key,
            points: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// The data plane in `slot`, recovered first when the slot is empty:
    /// the side-car of the series' last applied append, or a fresh one
    /// for a series without any (see [`sidecar_from_meta`]). `None`
    /// while the series store cannot deliver it (a backing read error, a
    /// corrupt or unsupported record): a channel never admits, appends or
    /// answers against a defaulted data plane, and its next turn tries
    /// again.
    pub fn recovered<'a, T: Default>(
        &self,
        slot: &'a mut Option<T>,
        decode: fn(&[u8]) -> StoreResult<T>,
    ) -> Option<&'a mut T> {
        if slot.is_none() {
            *slot = self
                .series
                .recover(&self.series_key)
                .and_then(|rec| sidecar_from_meta(&rec.meta, decode))
                .ok();
        }
        slot.as_mut()
    }

    /// Loads `points` into the [`ChannelCache::points`] scratch batch.
    pub fn stage(&mut self, points: &[DataPoint]) {
        self.points.clear();
        self.points
            .extend(points.iter().map(|p| (p.ts_ms, p.value)));
    }

    /// Answers a range query from the series: scans the compressed
    /// blocks, skipping any whose sparse index misses the range. A failed
    /// scan (a backing read error, a CRC-corrupt block, an unsupported
    /// block version) aborts the reply: "no points" would be a wrong
    /// answer, not a degraded one.
    pub fn scan(&self, q: QueryRange, ctx: &mut ActorContext<'_>) -> Vec<DataPoint> {
        match self
            .series
            .scan_range(&self.series_key, q.from_ms, q.to_ms, q.limit)
        {
            Ok(points) => points
                .into_iter()
                .map(|(ts_ms, value)| DataPoint { ts_ms, value })
                .collect(),
            Err(_) => abort_reply(ctx),
        }
    }
}

/// The physical sensor channel actor.
pub struct PhysicalSensorChannel {
    state: Persisted<ChannelState>,
    /// `None` until recovered (see [`ChannelCache::recovered`]).
    data: Option<ChannelSideCar>,
    service_time: Option<std::time::Duration>,
    cache: ChannelCache,
    /// The subscribed virtual channels, resolved on first use;
    /// `ConfigureChannel` drops them with the list they were made from.
    subscribers: OnceCell<Vec<ActorRef<VirtualSensorChannel>>>,
}

impl PhysicalSensorChannel {
    /// Registers the actor type.
    pub fn register(rt: &aodb_runtime::Runtime, env: ShmEnv) {
        rt.register(move |id| PhysicalSensorChannel {
            state: env.persisted(Self::TYPE_NAME, &id.key),
            data: None,
            service_time: env.ingest_service_time,
            cache: ChannelCache::new(&env, Self::TYPE_NAME, &id.key),
            subscribers: OnceCell::new(),
        });
    }
}

impl Actor for PhysicalSensorChannel {
    const TYPE_NAME: &'static str = "shm.channel";
    fn declared_calls() -> &'static [aodb_runtime::CallDecl] {
        // Ingest side effects: raised alerts and derived-channel pushes.
        const CALLS: &[aodb_runtime::CallDecl] = &[
            aodb_runtime::CallDecl::send("shm.alert-log"),
            aodb_runtime::CallDecl::send("shm.virtual-channel"),
        ];
        CALLS
    }

    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.load_or_default();
        self.cache.recovered(&mut self.data, ChannelSideCar::decode);
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
        });
        self.subscribers.take();
    }
}

impl Handler<Ingest> for PhysicalSensorChannel {
    fn handle(&mut self, msg: Ingest, ctx: &mut ActorContext<'_>) -> u32 {
        let Some(data) = self.cache.recovered(&mut self.data, ChannelSideCar::decode) else {
            // Watermarks that may not be the committed ones admit
            // nothing: the caller retransmits.
            return abort_reply(ctx);
        };
        if let Some((source, seq)) = msg.dedup {
            if !data.admit_dedup(source, seq) {
                // Duplicate redelivery: drop it before the stats and
                // *before* the downstream fan-out, so subscribers see
                // each batch exactly once too.
                //
                // A duplicate-reject ack asserts "this batch is already
                // durable" — under group commit the original append may
                // still be in flight, so the reject queues *behind* it
                // and resolves only at the engine's current durability
                // horizon. A barrier failure (e.g. dead WAL) aborts
                // instead: the safe direction is a retransmit, never a
                // false duplicate ack.
                if let Some(reply) = ctx.defer_reply::<u32>() {
                    self.cache
                        .series
                        .barrier_async(Box::new(move |result| match result {
                            Ok(_) => reply.deliver(0),
                            Err(_) => reply.abort(PromiseError::Lost),
                        }));
                }
                return 0;
            }
        }
        if let Some(service) = self.service_time {
            // Simulated server CPU cost of one ingest request (see
            // `ShmEnv::ingest_service_time`).
            std::thread::sleep(service);
        }
        // Stats and watermarks change in memory only; the single durable
        // write is the series append, which commits the compressed points
        // and the side-car together.
        let mut alerts = Vec::new();
        let threshold = self.state.get().threshold;
        let accepted =
            data.apply_points(threshold, &msg.points, &mut alerts, &self.cache.channel_key);
        data.encode(&mut self.cache.meta);
        self.cache.stage(&msg.points);
        self.fan_out(alerts, msg.points, ctx);
        // The engine owns the ack: it resolves when the append is durable
        // — inside this call for an engine that commits on append, at
        // group commit (off this worker) for one with a WAL. Last in the
        // turn, so no ack is visible before the fan-out is enqueued. A
        // failed append aborts the reply, never a false ack; the points
        // stay in the engine's in-memory tail until its next committed
        // record carries them.
        let ack = ctx.defer_reply::<u32>();
        let cache = &self.cache;
        cache.series.append_batch_async(
            &cache.series_key,
            &cache.points,
            &cache.meta,
            Box::new(move |result| {
                if let Some(reply) = ack {
                    match result {
                        Ok(_) => reply.deliver(accepted),
                        Err(_) => reply.abort(PromiseError::Lost),
                    }
                }
            }),
        );
        accepted
    }
}

impl PhysicalSensorChannel {
    /// An ingest turn's downstream sends: raised alerts and
    /// derived-channel pushes.
    fn fan_out(&self, alerts: Vec<Alert>, points: PointBatch, ctx: &ActorContext<'_>) {
        let s = self.state.get();
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
    }
}

impl Handler<QueryRange> for PhysicalSensorChannel {
    fn handle(&mut self, msg: QueryRange, ctx: &mut ActorContext<'_>) -> Vec<DataPoint> {
        match self.cache.recovered(&mut self.data, ChannelSideCar::decode) {
            Some(_) => self.cache.scan(msg, ctx),
            None => abort_reply(ctx),
        }
    }
}

impl Handler<GetChannelStats> for PhysicalSensorChannel {
    fn handle(&mut self, _msg: GetChannelStats, ctx: &mut ActorContext<'_>) -> ChannelStats {
        match self.cache.recovered(&mut self.data, ChannelSideCar::decode) {
            Some(data) => data.stats.reply(),
            None => abort_reply(ctx),
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
    fn apply_points_tracks_stats() {
        let mut data = ChannelSideCar::default();
        let mut alerts = Vec::new();
        let points: Vec<DataPoint> = (0..10).map(|i| dp(i, i as f64)).collect();
        let n = data.apply_points(Threshold::default(), &points, &mut alerts, "c");
        assert_eq!(n, 10);
        assert_eq!(data.stats.total_points, 10);
        assert_eq!(data.stats.accumulated_change, 9.0);
        assert_eq!(data.stats.first_value, Some(0.0));
        assert!(alerts.is_empty());
    }

    #[test]
    fn high_threshold_alerts_once_per_breach_episode() {
        let threshold = Threshold {
            high: Some(10.0),
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
        ChannelSideCar::default().apply_points(threshold, &points, &mut alerts, "c");
        // Two episodes: 11→12 (one alert) and 15 (second alert).
        assert_eq!(alerts.len(), 2);
        assert!(alerts.iter().all(|a| a.kind == AlertKind::AboveHigh));
    }

    #[test]
    fn low_threshold_fires() {
        let threshold = Threshold {
            low: Some(-1.0),
            ..Default::default()
        };
        let mut alerts = Vec::new();
        ChannelSideCar::default().apply_points(threshold, &[dp(0, -2.0)], &mut alerts, "c");
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::BelowLow);
    }

    #[test]
    fn accumulated_change_alert_fires_once() {
        let threshold = Threshold {
            max_accumulated_change: Some(5.0),
            ..Default::default()
        };
        let mut alerts = Vec::new();
        let points: Vec<DataPoint> = (0..10).map(|i| dp(i, (i % 2) as f64 * 3.0)).collect();
        ChannelSideCar::default().apply_points(threshold, &points, &mut alerts, "c");
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
    fn dedup_watermarks_admit_once_per_sequence() {
        let mut data = ChannelSideCar::default();
        assert!(data.admit_dedup(7, 1));
        assert!(!data.admit_dedup(7, 1)); // exact duplicate
        assert!(data.admit_dedup(7, 2));
        assert!(!data.admit_dedup(7, 1)); // late replay below the mark
        assert!(data.admit_dedup(9, 1)); // independent source
        assert!(!data.admit_dedup(9, 1));
        // Watermarks survive the side-car codec (they commit with every
        // append, so redelivery after reactivation is safe too).
        let mut bytes = Vec::new();
        data.encode(&mut bytes);
        let mut back = ChannelSideCar::decode(&bytes).unwrap();
        assert!(!back.admit_dedup(7, 2));
        assert!(back.admit_dedup(7, 3));
    }

    /// A blob written when the state still held the data plane (window,
    /// stats, watermarks) and the `aggregates` switch loads its
    /// configuration: the state codec skips fields the struct no longer
    /// has.
    #[test]
    fn blob_with_the_former_data_fields_loads_its_configuration() {
        let blob = br#"{"org":"org-0","sensor":"org-0/s-0","threshold":{"high":55.0,"low":null,"max_accumulated_change":null},"subscribers":["org-0/s-0/v"],"aggregates":true,"window":[{"ts_ms":100,"value":1.5}],"total_points":1,"accumulated_change":0.0,"first_value":1.5,"last":{"ts_ms":100,"value":1.5},"breaching_high":false,"breaching_low":false,"accumulated_alerted":false,"ingest_watermarks":[[7,2]]}"#;
        let s: ChannelState = aodb_store::codec::decode_state(blob).unwrap();
        assert_eq!((s.org.as_str(), s.sensor.as_str()), ("org-0", "org-0/s-0"));
        assert_eq!(s.threshold.high, Some(55.0));
        assert_eq!(s.subscribers, ["org-0/s-0/v"]);
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::test_props::{assert_codec_roundtrip, data_point, key, threshold};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any channel configuration survives the persistence codec
        /// unchanged.
        #[test]
        fn channel_state_roundtrips(
            (org, sensor, threshold, subscribers) in (
                key(),
                key(),
                threshold(),
                proptest::collection::vec(key(), 0..4),
            ),
        ) {
            assert_codec_roundtrip(&ChannelState {
                org,
                sensor,
                threshold,
                subscribers,
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
            let data = ChannelSideCar {
                stats: RunningStats { total_points, accumulated_change, first_value, last },
                breaching_high,
                breaching_low,
                accumulated_alerted,
                ingest_watermarks,
            };
            let mut bytes = Vec::new();
            data.encode(&mut bytes);
            let decoded = ChannelSideCar::decode(&bytes).unwrap();
            prop_assert_eq!(decoded.stats.total_points, total_points);
            prop_assert_eq!(decoded.stats.accumulated_change.to_bits(), accumulated_change.to_bits());
            prop_assert_eq!(decoded.stats.first_value.map(f64::to_bits), first_value.map(f64::to_bits));
            prop_assert_eq!(decoded.stats.last, last);
            prop_assert_eq!(decoded.breaching_high, breaching_high);
            prop_assert_eq!(decoded.breaching_low, breaching_low);
            prop_assert_eq!(decoded.accumulated_alerted, accumulated_alerted);
            prop_assert_eq!(decoded.ingest_watermarks, data.ingest_watermarks);
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
        let data = ChannelSideCar {
            stats: RunningStats {
                total_points: 3,
                accumulated_change: 1.5,
                first_value: Some(20.0),
                last: Some(DataPoint {
                    ts_ms: 1000,
                    value: 21.5,
                }),
            },
            breaching_high: true,
            ingest_watermarks: vec![(7, 2)],
            ..ChannelSideCar::default()
        };
        let mut bytes = vec![0xEE; 5]; // stale contents are replaced
        data.encode(&mut bytes);
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

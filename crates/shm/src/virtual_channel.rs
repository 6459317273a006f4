//! The `VirtualSensorChannel` actor: a continuously derived stream.
//!
//! Figure 4 specializes `Sensor Channel` into physical and *virtual*
//! channels, the latter computing an equation over potentially multiple
//! physical channels. In the paper's benchmark every tenth sensor carries
//! a virtual channel summing its two physical channels; physical channels
//! push their fresh points here, and each incoming point yields one
//! derived point computed from the latest value of every input.

use std::cell::OnceCell;
use std::collections::VecDeque;
use std::sync::Arc;

use aodb_runtime::{Actor, ActorContext, ActorRef, Handler};
use aodb_store::codec::{Reader, Writer};
use aodb_store::tseries::SeriesStore;
use aodb_store::StoreResult;
use serde::{Deserialize, Serialize};

use crate::aggregator::{aggregator_key, Aggregator};
use crate::env::ShmEnv;
use crate::messages::{
    ChannelStats, ConfigureVirtual, GetChannelStats, GetLatest, PushDerived, QueryRange,
    RecordSamples,
};
use crate::physical::{
    query_window, read_point, scan_series, stage_points, write_point, ChannelCache,
};
use crate::sidecar;
use crate::types::{AggregateLevel, DataPoint, Equation};
use aodb_core::Persisted;

#[derive(Serialize, Deserialize)]
pub(crate) struct VirtualState {
    org: String,
    inputs: Vec<String>,
    equation: Equation,
    aggregates: bool,
    /// Latest value seen per input (equation operands).
    latest_inputs: Vec<Option<f64>>,
    window: VecDeque<DataPoint>,
    total_points: u64,
    accumulated_change: f64,
    first_value: Option<f64>,
    last: Option<DataPoint>,
}

impl Default for VirtualState {
    fn default() -> Self {
        VirtualState {
            org: String::new(),
            inputs: Vec::new(),
            equation: Equation::Sum,
            aggregates: false,
            latest_inputs: Vec::new(),
            window: VecDeque::new(),
            total_points: 0,
            accumulated_change: 0.0,
            first_value: None,
            last: None,
        }
    }
}

/// The virtual channel's data-plane fields, shipped as series metadata
/// on the columnar path (see `ChannelSideCar` in `physical.rs`).
/// `latest_inputs` rides along so the equation operands survive a
/// restart with the derived points they produced.
#[derive(Default, Serialize, Deserialize)]
pub(crate) struct VirtualSideCar {
    total_points: u64,
    accumulated_change: f64,
    first_value: Option<f64>,
    last: Option<DataPoint>,
    latest_inputs: Vec<Option<f64>>,
}

impl VirtualSideCar {
    /// Compact fixed-layout encoding of `s`'s data-plane fields into
    /// `out` — same hot-path rationale as `ChannelSideCar::encode_from`
    /// (see `sidecar.rs`).
    fn encode_from(s: &VirtualState, out: &mut Vec<u8>) {
        out.clear();
        let mut w = Writer::over(out);
        w.u8(sidecar::FORMAT);
        w.u64(s.total_points);
        w.f64(s.accumulated_change);
        w.opt(s.first_value, Writer::f64);
        w.opt(s.last, write_point);
        w.u64(s.latest_inputs.len() as u64);
        for &input in &s.latest_inputs {
            w.opt(input, Writer::f64);
        }
    }

    fn decode(bytes: &[u8]) -> StoreResult<Self> {
        Reader::whole(bytes, "virtual side-car", |r| {
            r.tag(sidecar::FORMAT)?;
            Ok(VirtualSideCar {
                total_points: r.u64()?,
                accumulated_change: r.f64()?,
                first_value: r.opt(Reader::f64)?,
                last: r.opt(read_point)?,
                latest_inputs: r.u64_list(|r| r.opt(Reader::f64))?,
            })
        })
    }

    fn apply(self, s: &mut VirtualState) {
        s.total_points = self.total_points;
        s.accumulated_change = self.accumulated_change;
        s.first_value = self.first_value;
        s.last = self.last;
        // Only overlay operands when the shape matches the configured
        // inputs (a reconfiguration may have changed the arity).
        if self.latest_inputs.len() == s.latest_inputs.len() {
            s.latest_inputs = self.latest_inputs;
        }
    }
}

/// Applies one pushed batch: updates the matching operand and derives
/// one point per input point. `window_capacity` 0 = keep no window.
fn derive_points(
    s: &mut VirtualState,
    msg: &PushDerived,
    window_capacity: usize,
) -> Vec<DataPoint> {
    let Some(idx) = s.inputs.iter().position(|i| **i == *msg.source) else {
        return Vec::new(); // unknown source: configuration race; drop
    };
    let mut derived = Vec::with_capacity(msg.points.len());
    for p in &msg.points {
        s.latest_inputs[idx] = Some(p.value);
        let Some(value) = s.equation.apply(&s.latest_inputs) else {
            continue;
        };
        let dp = DataPoint {
            ts_ms: p.ts_ms,
            value,
        };
        if let Some(last) = s.last {
            s.accumulated_change += (value - last.value).abs();
        } else {
            s.first_value = Some(value);
        }
        s.last = Some(dp);
        if window_capacity > 0 {
            s.window.push_back(dp);
            if s.window.len() > window_capacity {
                s.window.pop_front();
            }
        }
        s.total_points += 1;
        derived.push(dp);
    }
    derived
}

/// The virtual sensor channel actor.
pub struct VirtualSensorChannel {
    state: Persisted<VirtualState>,
    window_capacity: usize,
    /// Columnar point-stream engine; `None` = KV-blob mode.
    series: Option<Arc<dyn SeriesStore>>,
    cache: ChannelCache,
    /// The hour aggregator derived points feed, resolved on first use.
    hour_aggregator: OnceCell<ActorRef<Aggregator>>,
}

impl VirtualSensorChannel {
    /// Registers the actor type.
    pub fn register(rt: &aodb_runtime::Runtime, env: ShmEnv) {
        rt.register(move |id| VirtualSensorChannel {
            state: env.persisted_data(Self::TYPE_NAME, &id.key),
            window_capacity: env.window_capacity,
            series: env.series.clone(),
            cache: ChannelCache::new(Self::TYPE_NAME, &id.key),
            hour_aggregator: OnceCell::new(),
        });
    }
}

impl Actor for VirtualSensorChannel {
    const TYPE_NAME: &'static str = "shm.virtual-channel";
    fn declared_calls() -> &'static [aodb_runtime::CallDecl] {
        // Derived points cascade into this channel's aggregate pyramid.
        const CALLS: &[aodb_runtime::CallDecl] = &[aodb_runtime::CallDecl::send("shm.aggregator")];
        CALLS
    }

    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.load_or_default();
        if let Some(series) = &self.series {
            if let Ok(rec) = series.recover(&self.cache.series_key) {
                // Empty meta: the series committed nothing, so reset
                // the KV blob's data-plane fields, which may be ahead
                // of the store after a crash wiped an in-flight append
                // (see the physical channel's on_activate).
                let overlay = if rec.meta.is_empty() {
                    Some(VirtualSideCar::default())
                } else {
                    VirtualSideCar::decode(&rec.meta).ok()
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

impl Handler<ConfigureVirtual> for VirtualSensorChannel {
    fn handle(&mut self, msg: ConfigureVirtual, _ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| {
            s.org = msg.org;
            s.latest_inputs = vec![None; msg.inputs.len()];
            s.inputs = msg.inputs;
            s.equation = msg.equation;
            s.aggregates = msg.aggregates;
        });
    }
}

impl Handler<PushDerived> for VirtualSensorChannel {
    fn handle(&mut self, msg: PushDerived, ctx: &mut ActorContext<'_>) {
        if let Some(series) = &self.series {
            // Columnar path: derive in memory, then commit the derived
            // points and the sidecar (stats + operands) in one append.
            let s = self.state.get_mut_untracked();
            let derived = derive_points(s, &msg, 0);
            VirtualSideCar::encode_from(s, &mut self.cache.meta);
            stage_points(&mut self.cache.points, &derived);
            self.fan_out(derived, ctx);
            // The physical channel's pattern: the engine makes the append
            // durable at group commit, off this worker, and the turn ends
            // without waiting for it — so the derived points are visible
            // to `GetLatest` and `QueryRange` before they are durable.
            // Last in the turn, after the fan-out is enqueued. The push
            // is a `tell`: a failed append has no caller to abort, and
            // as on the physical path the points stay in the engine's
            // in-memory tail until its next committed record carries
            // them.
            series.append_batch_async(
                &self.cache.series_key,
                &self.cache.points,
                &self.cache.meta,
                Box::new(|_result| {}),
            );
        } else {
            let capacity = self.window_capacity;
            let derived = self.state.mutate(|s| derive_points(s, &msg, capacity));
            self.fan_out(derived, ctx);
        }
    }
}

impl VirtualSensorChannel {
    /// A push turn's downstream send: the derived points cascade into
    /// this channel's aggregate pyramid.
    fn fan_out(&self, derived: Vec<DataPoint>, ctx: &ActorContext<'_>) {
        if !derived.is_empty() && self.state.get().aggregates {
            let channel_key = &*self.cache.channel_key;
            let agg = self.hour_aggregator.get_or_init(|| {
                ctx.actor_ref::<Aggregator>(aggregator_key(channel_key, AggregateLevel::Hour))
            });
            let _ = agg.tell(RecordSamples {
                points: derived.into(),
            });
        }
    }
}

impl Handler<GetLatest> for VirtualSensorChannel {
    fn handle(&mut self, _msg: GetLatest, _ctx: &mut ActorContext<'_>) -> Option<DataPoint> {
        self.state.get().last
    }
}

impl Handler<QueryRange> for VirtualSensorChannel {
    fn handle(&mut self, msg: QueryRange, ctx: &mut ActorContext<'_>) -> Vec<DataPoint> {
        if let Some(series) = &self.series {
            return scan_series(series.as_ref(), &self.cache.series_key, msg, ctx);
        }
        query_window(&self.state.get().window, msg)
    }
}

impl Handler<GetChannelStats> for VirtualSensorChannel {
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
mod codec_tests {
    use super::*;
    use crate::test_props::{assert_codec_roundtrip, data_point, equation, key};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any virtual-channel state survives the persistence codec
        /// unchanged.
        #[test]
        fn virtual_state_roundtrips(
            (org, inputs, equation, aggregates, latest_inputs) in (
                key(),
                proptest::collection::vec(key(), 0..4),
                equation(),
                any::<bool>(),
                proptest::collection::vec(proptest::option::of(-1e9f64..1e9), 0..4),
            ),
            (window, total_points, accumulated_change, first_value, last) in (
                proptest::collection::vec(data_point(), 0..6),
                any::<u64>(),
                0.0f64..1e9,
                proptest::option::of(-1e9f64..1e9),
                proptest::option::of(data_point()),
            ),
        ) {
            assert_codec_roundtrip(&VirtualState {
                org,
                inputs,
                equation,
                aggregates,
                latest_inputs,
                window: window.into(),
                total_points,
                accumulated_change,
                first_value,
                last,
            });
        }

        /// The side-car's binary codec round-trips every field, and every
        /// strict prefix of an encoding is refused.
        #[test]
        fn virtual_sidecar_roundtrips_and_rejects_every_prefix(
            (total_points, accumulated_change, first_value, last, latest_inputs) in (
                any::<u64>(),
                -1e12f64..1e12,
                proptest::option::of(-1e300f64..1e300),
                proptest::option::of(data_point()),
                proptest::collection::vec(proptest::option::of(-1e9f64..1e9), 0..4),
            ),
        ) {
            let state = VirtualState {
                total_points,
                accumulated_change,
                first_value,
                last,
                latest_inputs,
                ..VirtualState::default()
            };
            let mut bytes = Vec::new();
            VirtualSideCar::encode_from(&state, &mut bytes);
            let decoded = VirtualSideCar::decode(&bytes).unwrap();
            prop_assert_eq!(decoded.total_points, state.total_points);
            prop_assert_eq!(decoded.accumulated_change.to_bits(), state.accumulated_change.to_bits());
            prop_assert_eq!(decoded.first_value.map(f64::to_bits), state.first_value.map(f64::to_bits));
            prop_assert_eq!(decoded.last, state.last);
            prop_assert_eq!(decoded.latest_inputs, state.latest_inputs);
            for cut in 0..bytes.len() {
                prop_assert!(VirtualSideCar::decode(&bytes[..cut]).is_err(), "cut at {}", cut);
            }
        }
    }

    /// Golden fixture: the exact bytes of one virtual-channel side-car.
    #[test]
    fn golden_virtual_sidecar_bytes() {
        let state = VirtualState {
            total_points: 2,
            accumulated_change: 0.5,
            first_value: None,
            last: Some(DataPoint {
                ts_ms: 1000,
                value: -1.0,
            }),
            latest_inputs: vec![Some(1.0), None],
            ..VirtualState::default()
        };
        let mut bytes = Vec::new();
        VirtualSideCar::encode_from(&state, &mut bytes);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                // format byte | total_points=2 | accumulated_change=0.5
                "01",
                "0200000000000000",
                "000000000000e03f",
                // first_value: absent
                "00",
                // last: present, ts=1000, value=-1.0
                "01",
                "e803000000000000",
                "000000000000f0bf",
                // latest_inputs: count=2, Some(1.0), None
                "0200000000000000",
                "01",
                "000000000000f03f",
                "00",
            ),
            "virtual side-car format drifted — bump sidecar::FORMAT"
        );
    }
}

//! The `VirtualSensorChannel` actor: a continuously derived stream.
//!
//! Figure 4 specializes `Sensor Channel` into physical and *virtual*
//! channels, the latter computing an equation over potentially multiple
//! physical channels. In the paper's benchmark every tenth sensor carries
//! a virtual channel summing its two physical channels; physical channels
//! push their fresh points here, and each incoming point yields one
//! derived point computed from the latest value of every input. The
//! derived series feeds the channel's aggregators as a physical series
//! does: they read it (see `aggregator.rs`), nothing is sent to them.

use aodb_runtime::{Actor, ActorContext, Handler};
use aodb_store::codec::{Reader, Writer};
use aodb_store::StoreResult;
use serde::{Deserialize, Serialize};

use crate::env::ShmEnv;
use crate::messages::{ChannelStats, ConfigureVirtual, GetChannelStats, PushDerived, QueryRange};
use crate::physical::{abort_reply, ChannelCache, RunningStats};
use crate::sidecar;
use crate::types::{DataPoint, Equation};
use aodb_core::Persisted;

/// A virtual channel's configuration: all it keeps in its state blob.
#[derive(Serialize, Deserialize)]
pub(crate) struct VirtualState {
    org: String,
    inputs: Vec<String>,
    equation: Equation,
}

impl Default for VirtualState {
    fn default() -> Self {
        VirtualState {
            org: String::new(),
            inputs: Vec::new(),
            equation: Equation::Sum,
        }
    }
}

/// The virtual channel's data plane, kept and committed like the
/// physical channel's (see `ChannelSideCar` in `physical.rs`).
/// `latest_inputs` rides along so the equation operands survive a
/// restart with the derived points they produced.
#[derive(Default)]
pub(crate) struct VirtualSideCar {
    pub(crate) stats: RunningStats,
    /// Latest value seen per input (equation operands).
    latest_inputs: Vec<Option<f64>>,
}

impl VirtualSideCar {
    /// Compact fixed-layout encoding into `out` — same hot-path
    /// rationale as `ChannelSideCar::encode` (see `sidecar.rs`).
    fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        let mut w = Writer::over(out);
        w.u8(sidecar::FORMAT);
        self.stats.write(&mut w);
        w.u64(self.latest_inputs.len() as u64);
        for &input in &self.latest_inputs {
            w.opt(input, Writer::f64);
        }
    }

    pub(crate) fn decode(bytes: &[u8]) -> StoreResult<Self> {
        Reader::whole(bytes, "virtual side-car", |r| {
            r.tag(sidecar::FORMAT)?;
            Ok(VirtualSideCar {
                stats: RunningStats::read(r)?,
                latest_inputs: r.u64_list(|r| r.opt(Reader::f64))?,
            })
        })
    }
}

/// Applies one pushed batch: updates the matching operand and derives
/// one point per input point. Operands recovered for a different number
/// of inputs than configured start over.
fn derive_points(
    config: &VirtualState,
    data: &mut VirtualSideCar,
    msg: &PushDerived,
) -> Vec<DataPoint> {
    let Some(idx) = config.inputs.iter().position(|i| **i == *msg.source) else {
        return Vec::new(); // unknown source: configuration race; drop
    };
    if data.latest_inputs.len() != config.inputs.len() {
        data.latest_inputs = vec![None; config.inputs.len()];
    }
    let mut derived = Vec::with_capacity(msg.points.len());
    for p in &msg.points {
        data.latest_inputs[idx] = Some(p.value);
        let Some(value) = config.equation.apply(&data.latest_inputs) else {
            continue;
        };
        let dp = DataPoint {
            ts_ms: p.ts_ms,
            value,
        };
        data.stats.record(dp);
        derived.push(dp);
    }
    derived
}

/// The virtual sensor channel actor.
pub struct VirtualSensorChannel {
    state: Persisted<VirtualState>,
    /// `None` until recovered (see `ChannelCache::recovered`).
    data: Option<VirtualSideCar>,
    cache: ChannelCache,
}

impl VirtualSensorChannel {
    /// Registers the actor type.
    pub fn register(rt: &aodb_runtime::Runtime, env: ShmEnv) {
        rt.register(move |id| VirtualSensorChannel {
            state: env.persisted(Self::TYPE_NAME, &id.key),
            data: None,
            cache: ChannelCache::new(&env, Self::TYPE_NAME, &id.key),
        });
    }
}

impl Actor for VirtualSensorChannel {
    const TYPE_NAME: &'static str = "shm.virtual-channel";

    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.load_or_default();
        self.cache.recovered(&mut self.data, VirtualSideCar::decode);
    }

    fn on_deactivate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.flush();
    }
}

impl Handler<ConfigureVirtual> for VirtualSensorChannel {
    fn handle(&mut self, msg: ConfigureVirtual, _ctx: &mut ActorContext<'_>) {
        if let Some(data) = self.cache.recovered(&mut self.data, VirtualSideCar::decode) {
            data.latest_inputs = vec![None; msg.inputs.len()];
        }
        self.state.mutate(|s| {
            s.org = msg.org;
            s.inputs = msg.inputs;
            s.equation = msg.equation;
        });
    }
}

impl Handler<PushDerived> for VirtualSensorChannel {
    fn handle(&mut self, msg: PushDerived, _ctx: &mut ActorContext<'_>) {
        // A push that finds the data plane unrecovered is dropped, as a
        // push whose derived append fails is.
        let Some(data) = self.cache.recovered(&mut self.data, VirtualSideCar::decode) else {
            return;
        };
        // Derive in memory, then commit the derived points and the
        // side-car (stats + operands) in one append.
        let derived = derive_points(self.state.get(), data, &msg);
        data.encode(&mut self.cache.meta);
        self.cache.stage(&derived);
        // The physical channel's pattern: the engine makes the append
        // durable at group commit, off this worker, and the turn ends
        // without waiting for it — so the derived points are visible to
        // live data, stats, `QueryRange` and aggregates once this turn has
        // run, before they are durable (DESIGN §13). The push is a
        // `tell`: a failed append has no caller to abort, and as on the
        // physical path the points stay in the engine's in-memory tail
        // until its next committed record carries them.
        let cache = &self.cache;
        cache.series.append_batch_async(
            &cache.series_key,
            &cache.points,
            &cache.meta,
            Box::new(|_result| {}),
        );
    }
}

impl Handler<QueryRange> for VirtualSensorChannel {
    fn handle(&mut self, msg: QueryRange, ctx: &mut ActorContext<'_>) -> Vec<DataPoint> {
        match self.cache.recovered(&mut self.data, VirtualSideCar::decode) {
            Some(_) => self.cache.scan(msg, ctx),
            None => abort_reply(ctx),
        }
    }
}

impl Handler<GetChannelStats> for VirtualSensorChannel {
    fn handle(&mut self, _msg: GetChannelStats, ctx: &mut ActorContext<'_>) -> ChannelStats {
        match self.cache.recovered(&mut self.data, VirtualSideCar::decode) {
            Some(data) => data.stats.reply(),
            None => abort_reply(ctx),
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

        /// Any virtual-channel configuration survives the persistence
        /// codec unchanged.
        #[test]
        fn virtual_state_roundtrips(
            (org, inputs, equation) in (
                key(),
                proptest::collection::vec(key(), 0..4),
                equation(),
            ),
        ) {
            assert_codec_roundtrip(&VirtualState {
                org,
                inputs,
                equation,
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
            let data = VirtualSideCar {
                stats: RunningStats { total_points, accumulated_change, first_value, last },
                latest_inputs,
            };
            let mut bytes = Vec::new();
            data.encode(&mut bytes);
            let decoded = VirtualSideCar::decode(&bytes).unwrap();
            prop_assert_eq!(decoded.stats.total_points, total_points);
            prop_assert_eq!(decoded.stats.accumulated_change.to_bits(), accumulated_change.to_bits());
            prop_assert_eq!(decoded.stats.first_value.map(f64::to_bits), first_value.map(f64::to_bits));
            prop_assert_eq!(decoded.stats.last, last);
            prop_assert_eq!(decoded.latest_inputs, data.latest_inputs);
            for cut in 0..bytes.len() {
                prop_assert!(VirtualSideCar::decode(&bytes[..cut]).is_err(), "cut at {}", cut);
            }
        }
    }

    /// Golden fixture: the exact bytes of one virtual-channel side-car.
    #[test]
    fn golden_virtual_sidecar_bytes() {
        let data = VirtualSideCar {
            stats: RunningStats {
                total_points: 2,
                accumulated_change: 0.5,
                first_value: None,
                last: Some(DataPoint {
                    ts_ms: 1000,
                    value: -1.0,
                }),
            },
            latest_inputs: vec![Some(1.0), None],
        };
        let mut bytes = Vec::new();
        data.encode(&mut bytes);
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

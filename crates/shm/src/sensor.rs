//! The `Sensor` actor: metadata and channel membership of one physical
//! sensor.
//!
//! Sensors are modeled as actors (not as objects inside the organization)
//! because they are *active* entities: they get relocated and they own
//! multiple independent channels (Section 4.2). Data does not flow through
//! the sensor actor — streams are disaggregated by channel at the ingest
//! proxy, so sensor↔channel messaging stays minimal, exactly as the paper
//! argues.

use aodb_runtime::{Actor, ActorContext, Handler};
use serde::{Deserialize, Serialize};

use crate::env::ShmEnv;
use crate::messages::{AttachChannel, GetSensorInfo, InitSensor, SensorInfo, UpdatePosition};
use crate::types::{Position, SensorKind};
use aodb_core::Persisted;

#[derive(Serialize, Deserialize)]
struct SensorState {
    org: String,
    kind: SensorKind,
    position: Position,
    channels: Vec<String>,
}

impl Default for SensorState {
    fn default() -> Self {
        SensorState {
            org: String::new(),
            kind: SensorKind::Extension,
            position: Position::default(),
            channels: Vec::new(),
        }
    }
}

/// The sensor actor.
pub struct Sensor {
    state: Persisted<SensorState>,
}

impl Sensor {
    /// Registers the actor type.
    pub fn register(rt: &aodb_runtime::Runtime, env: ShmEnv) {
        rt.register(move |id| Sensor {
            state: env.persisted(Self::TYPE_NAME, &id.key),
        });
    }
}

impl Actor for Sensor {
    const TYPE_NAME: &'static str = "shm.sensor";

    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.load_or_default();
    }

    fn on_deactivate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.flush();
    }
}

impl Handler<InitSensor> for Sensor {
    fn handle(&mut self, msg: InitSensor, _ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| {
            s.org = msg.org;
            s.kind = msg.kind;
            s.position = msg.position;
        });
    }
}

impl Handler<AttachChannel> for Sensor {
    fn handle(&mut self, msg: AttachChannel, _ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| {
            if !s.channels.contains(&msg.channel) {
                s.channels.push(msg.channel);
            }
        });
    }
}

impl Handler<UpdatePosition> for Sensor {
    fn handle(&mut self, msg: UpdatePosition, _ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| s.position = msg.0);
    }
}

impl Handler<GetSensorInfo> for Sensor {
    fn handle(&mut self, _msg: GetSensorInfo, _ctx: &mut ActorContext<'_>) -> SensorInfo {
        let s = self.state.get();
        SensorInfo {
            org: s.org.clone(),
            kind: s.kind,
            position: s.position,
            channels: s.channels.clone(),
        }
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::test_props::{assert_codec_roundtrip, key, position, sensor_kind};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any sensor state survives the persistence codec unchanged.
        #[test]
        fn sensor_state_roundtrips(
            org in key(),
            kind in sensor_kind(),
            position in position(),
            channels in proptest::collection::vec(key(), 0..5),
        ) {
            assert_codec_roundtrip(&SensorState { org, kind, position, channels });
        }
    }
}

//! The `Organization` actor: a tenant of the multi-tenant platform.
//!
//! Per the paper's granularity principle (Section 4.2), organizations are
//! actors while their projects and users are *non-actor objects*
//! encapsulated in organization state — projects are passive structural
//! schemes, so separate actors would only add messaging overhead.

use std::sync::Arc;

use aodb_runtime::{Actor, ActorContext, Handler, PromiseError};
use aodb_store::tseries::SeriesStore;
use aodb_store::StoreResult;
use serde::{Deserialize, Serialize};

use crate::env::ShmEnv;
use crate::messages::{
    AddProject, AddUser, GetLiveData, GetOrgInfo, InitOrg, LiveDataReport, OrgInfo,
    RegisterChannel, RegisterSensor,
};
use crate::physical::{series_key, sidecar_from_meta, ChannelSideCar, PhysicalSensorChannel};
use crate::types::{DataPoint, Project, User};
use crate::virtual_channel::{VirtualSensorChannel, VirtualSideCar};
use aodb_core::Persisted;

#[derive(Default, Serialize, Deserialize)]
pub(crate) struct OrgState {
    name: String,
    users: Vec<User>,
    projects: Vec<Project>,
    sensors: Vec<String>,
    /// `(channel key, is_virtual)` — virtuality decides which series and
    /// which side-car layout hold the channel's latest point.
    channels: Vec<(String, bool)>,
}

/// The organization (tenant) actor.
pub struct Organization {
    state: Persisted<OrgState>,
    /// The store holding every channel's series.
    series: Arc<dyn SeriesStore>,
    /// Scratch: the series name a live-data read is looking up.
    series_key: String,
}

impl Organization {
    /// Registers the actor type.
    pub fn register(rt: &aodb_runtime::Runtime, env: ShmEnv) {
        rt.register(move |id| Organization {
            state: env.persisted(Self::TYPE_NAME, &id.key),
            series: Arc::clone(&env.series),
            series_key: String::new(),
        });
    }
}

/// The last point of channel `key`, as its series holds it: `stats.last`
/// of the side-car the series' last applied append carried, decoded with
/// the channel kind's own decoder. `None` for a channel without points.
fn last_point(
    series: &dyn SeriesStore,
    series_name: &mut String,
    key: &str,
    is_virtual: bool,
) -> StoreResult<Option<DataPoint>> {
    let type_name = if is_virtual {
        VirtualSensorChannel::TYPE_NAME
    } else {
        PhysicalSensorChannel::TYPE_NAME
    };
    let meta = series
        .recover(series_key(series_name, type_name, key))?
        .meta;
    Ok(if is_virtual {
        sidecar_from_meta(&meta, VirtualSideCar::decode)?.stats.last
    } else {
        sidecar_from_meta(&meta, ChannelSideCar::decode)?.stats.last
    })
}

impl Actor for Organization {
    const TYPE_NAME: &'static str = "shm.organization";

    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.load_or_default();
    }

    fn on_deactivate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.flush();
    }
}

impl Handler<InitOrg> for Organization {
    fn handle(&mut self, msg: InitOrg, _ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| s.name = msg.name);
    }
}

impl Handler<AddUser> for Organization {
    fn handle(&mut self, msg: AddUser, _ctx: &mut ActorContext<'_>) -> u32 {
        self.state.mutate(|s| {
            let id = s.users.len() as u32;
            s.users.push(User {
                id,
                name: msg.name,
                role: msg.role,
            });
            id
        })
    }
}

impl Handler<AddProject> for Organization {
    fn handle(&mut self, msg: AddProject, _ctx: &mut ActorContext<'_>) -> u32 {
        self.state.mutate(|s| {
            let id = s.projects.len() as u32;
            s.projects.push(Project {
                id,
                name: msg.name,
                structure: msg.structure,
            });
            id
        })
    }
}

impl Handler<RegisterSensor> for Organization {
    fn handle(&mut self, msg: RegisterSensor, _ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| {
            if !s.sensors.contains(&msg.sensor) {
                s.sensors.push(msg.sensor);
            }
        });
    }
}

impl Handler<RegisterChannel> for Organization {
    fn handle(&mut self, msg: RegisterChannel, _ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| {
            if !s.channels.iter().any(|(c, _)| c == &msg.channel) {
                s.channels.push((msg.channel, msg.virtual_channel));
            }
        });
    }
}

impl Handler<GetLiveData> for Organization {
    /// The paper's "live data request": the most recent value of **all**
    /// sensor channels of the organization, read in this turn from the
    /// series store (DESIGN §13). A channel whose series cannot be
    /// recovered or whose side-car does not decode aborts the whole
    /// report with `Lost`: a defaulted point would be a wrong answer.
    fn handle(&mut self, msg: GetLiveData, _ctx: &mut ActorContext<'_>) {
        let channels = &self.state.get().channels;
        let mut report = Vec::with_capacity(channels.len());
        for (key, is_virtual) in channels {
            match last_point(&*self.series, &mut self.series_key, key, *is_virtual) {
                Ok(last) => report.push((key.clone(), last)),
                Err(_) => return msg.reply.abort(PromiseError::Lost),
            }
        }
        msg.reply.deliver(LiveDataReport { channels: report });
    }
}

impl Handler<GetOrgInfo> for Organization {
    fn handle(&mut self, _msg: GetOrgInfo, _ctx: &mut ActorContext<'_>) -> OrgInfo {
        let s = self.state.get();
        OrgInfo {
            name: s.name.clone(),
            users: s.users.clone(),
            projects: s.projects.clone(),
            sensors: s.sensors.clone(),
            channels: s.channels.iter().map(|(c, _)| c.clone()).collect(),
        }
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::test_props::{assert_codec_roundtrip, key, project, user};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any organization state survives the persistence codec unchanged.
        #[test]
        fn org_state_roundtrips(
            name in key(),
            users in proptest::collection::vec(user(), 0..5),
            projects in proptest::collection::vec(project(), 0..5),
            sensors in proptest::collection::vec(key(), 0..5),
            channels in proptest::collection::vec((key(), any::<bool>()), 0..5),
        ) {
            assert_codec_roundtrip(&OrgState { name, users, projects, sensors, channels });
        }
    }
}

//! The `Organization` actor: a tenant of the multi-tenant platform.
//!
//! Per the paper's granularity principle (Section 4.2), organizations are
//! actors while their projects and users are *non-actor objects*
//! encapsulated in organization state — projects are passive structural
//! schemes, so separate actors would only add messaging overhead.

use std::cell::OnceCell;

use aodb_runtime::{Actor, ActorContext, ActorRef, Collector, Handler};
use serde::{Deserialize, Serialize};

use crate::env::ShmEnv;
use crate::messages::{
    AddProject, AddUser, GetLatest, GetLiveData, GetOrgInfo, InitOrg, LiveDataReport, OrgInfo,
    RegisterChannel, RegisterSensor,
};
use crate::physical::PhysicalSensorChannel;
use crate::types::{Project, User};
use crate::virtual_channel::VirtualSensorChannel;
use aodb_core::Persisted;

#[derive(Default, Serialize, Deserialize)]
pub(crate) struct OrgState {
    name: String,
    users: Vec<User>,
    projects: Vec<Project>,
    sensors: Vec<String>,
    /// `(channel key, is_virtual)` — virtuality decides which actor type
    /// the live-data fan-out addresses.
    channels: Vec<(String, bool)>,
}

/// A channel's actor reference, resolved by the first live-data fan-out
/// that addresses it.
enum ChannelRef {
    Physical(OnceCell<ActorRef<PhysicalSensorChannel>>),
    Virtual(OnceCell<ActorRef<VirtualSensorChannel>>),
}

/// The organization (tenant) actor.
pub struct Organization {
    state: Persisted<OrgState>,
    /// References to `state.channels`, index for index, minted once (the
    /// live-data fan-out addresses every channel on every request) and
    /// caught up at the start of each fan-out.
    channel_refs: Vec<ChannelRef>,
}

impl Organization {
    /// Registers the actor type.
    pub fn register(rt: &aodb_runtime::Runtime, env: ShmEnv) {
        rt.register(move |id| Organization {
            state: env.persisted_structural(Self::TYPE_NAME, &id.key),
            channel_refs: Vec::new(),
        });
    }

    /// Adds a cell for every channel registered since the last call
    /// (channels are only ever appended), so `channel_refs` lines up
    /// with `state.channels` again.
    fn catch_up_channel_refs(&mut self) {
        let channels = &self.state.get().channels;
        let known = self.channel_refs.len();
        self.channel_refs
            .extend(channels[known..].iter().map(|(_, is_virtual)| {
                if *is_virtual {
                    ChannelRef::Virtual(OnceCell::new())
                } else {
                    ChannelRef::Physical(OnceCell::new())
                }
            }));
    }
}

impl Actor for Organization {
    const TYPE_NAME: &'static str = "shm.organization";
    fn declared_calls() -> &'static [aodb_runtime::CallDecl] {
        // Live-data fan-out over the org's channels (collector slots, so
        // the turn never blocks).
        const CALLS: &[aodb_runtime::CallDecl] = &[
            aodb_runtime::CallDecl::send("shm.virtual-channel"),
            aodb_runtime::CallDecl::send("shm.channel"),
        ];
        CALLS
    }

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
    /// The paper's "live data request": most recent values from **all**
    /// sensor channels of the organization. Implemented as a non-blocking
    /// scatter/gather — the organization's turn ends immediately; the
    /// collector assembles the report as channel replies arrive and
    /// resolves the caller's promise from whichever worker thread delivers
    /// the last one.
    fn handle(&mut self, msg: GetLiveData, ctx: &mut ActorContext<'_>) {
        self.catch_up_channel_refs();
        let channels = &self.state.get().channels;
        // The report owns its channel names: one copy per request, moved
        // into the report beside the replies, which the collector hands
        // over in slot order — the order of `channels`.
        let names: Vec<String> = channels.iter().map(|(c, _)| c.clone()).collect();
        let collector = Collector::new(
            channels.len(),
            move |latest: Vec<Option<crate::types::DataPoint>>| {
                let channels = names.into_iter().zip(latest).collect();
                msg.reply.deliver(LiveDataReport { channels });
            },
        );
        for ((name, _), target) in channels.iter().zip(&self.channel_refs) {
            let slot = collector.slot();
            // A send refused in a shutdown race takes this channel's
            // slot down with it, so the overall reply resolves as Lost,
            // which is correct.
            let _ = match target {
                ChannelRef::Physical(cell) => {
                    let channel =
                        cell.get_or_init(|| ctx.actor_ref::<PhysicalSensorChannel>(name.as_str()));
                    channel.ask_with(GetLatest, slot)
                }
                ChannelRef::Virtual(cell) => {
                    let channel =
                        cell.get_or_init(|| ctx.actor_ref::<VirtualSensorChannel>(name.as_str()));
                    channel.ask_with(GetLatest, slot)
                }
            };
        }
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

//! Platform facade: type registration, topology provisioning with the
//! paper's exact ratios, and a typed client for ingest and online queries.

use std::time::Duration;

use aodb_runtime::{ActorRef, Promise, ReplyTo, Runtime, RuntimeHandle, SendError, SiloId};

use crate::aggregator::{aggregator_key, Aggregator};
use crate::alerts::AlertLog;
use crate::env::ShmEnv;
use crate::messages::{
    AddProject, AddUser, AttachChannel, ChannelStats, ConfigureChannel, ConfigureVirtual,
    CountAlerts, GetChannelStats, GetLiveData, GetOrgInfo, GetSensorInfo, Ingest, InitOrg,
    InitSensor, LiveDataReport, OrgInfo, QueryAggregates, QueryRange, RecentAlerts,
    RegisterChannel, RegisterSensor, SensorInfo,
};
use crate::organization::Organization;
use crate::physical::PhysicalSensorChannel;
use crate::sensor::Sensor;
use crate::types::{
    Aggregate, AggregateLevel, Alert, DataPoint, Equation, Position, SensorKind, Threshold,
    UserRole,
};
use crate::virtual_channel::VirtualSensorChannel;

/// Registers every SHM actor type with a runtime.
pub fn register_all(rt: &Runtime, env: ShmEnv) {
    Organization::register(rt, env.clone());
    Sensor::register(rt, env.clone());
    PhysicalSensorChannel::register(rt, env.clone());
    VirtualSensorChannel::register(rt, env.clone());
    Aggregator::register(rt, env.clone());
    AlertLog::register(rt, env.clone());
    crate::auth::TenantGuard::register(rt, env);
    crate::gateway::IngestGateway::register(rt);
}

/// Layout parameters; defaults reproduce the paper's environment
/// configuration (Section 6.1).
#[derive(Clone, Copy, Debug)]
pub struct TopologySpec {
    /// Sensors per organization (paper: 100, each org also getting one
    /// user and one project).
    pub sensors_per_org: usize,
    /// Physical channels per sensor (paper: 2).
    pub channels_per_sensor: usize,
    /// Every n-th sensor carries a virtual channel summing its physical
    /// channels (paper: 10).
    pub virtual_every: usize,
    /// Threshold installed on every physical channel (default: none).
    pub threshold: Threshold,
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec {
            sensors_per_org: 100,
            channels_per_sensor: 2,
            virtual_every: 10,
            threshold: Threshold::default(),
        }
    }
}

/// One sensor's actor keys.
#[derive(Clone, Debug)]
pub struct SensorTopology {
    /// Sensor actor key.
    pub key: String,
    /// Physical channel actor keys.
    pub physical: Vec<String>,
    /// Virtual channel actor key, when this sensor carries one.
    pub virtual_channel: Option<String>,
}

/// One organization's actor keys.
#[derive(Clone, Debug)]
pub struct OrgTopology {
    /// Organization actor key.
    pub key: String,
    /// The organization's sensors.
    pub sensors: Vec<SensorTopology>,
}

/// The provisioned fleet layout.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Organizations, each with its sensors and channels.
    pub orgs: Vec<OrgTopology>,
    /// The spec that generated this layout.
    pub spec: TopologySpec,
}

impl Topology {
    /// Computes the layout for `n_sensors` sensors under `spec`, without
    /// touching any runtime. Keys embed the organization so placement and
    /// storage partitions align with tenancy.
    pub fn layout(n_sensors: usize, spec: TopologySpec) -> Topology {
        let mut orgs = Vec::new();
        let per_org = spec.sensors_per_org.max(1);
        for (i, sensor_global) in (0..n_sensors).enumerate() {
            let org_idx = sensor_global / per_org;
            if org_idx == orgs.len() {
                orgs.push(OrgTopology {
                    key: format!("org-{org_idx}"),
                    sensors: Vec::new(),
                });
            }
            let org = &mut orgs[org_idx];
            let local = i % per_org;
            let sensor_key = format!("org-{org_idx}/s-{local}");
            let physical = (0..spec.channels_per_sensor)
                .map(|c| format!("{sensor_key}/c-{c}"))
                .collect();
            let virtual_channel = (local.checked_rem(spec.virtual_every) == Some(0))
                .then(|| format!("{sensor_key}/v"));
            org.sensors.push(SensorTopology {
                key: sensor_key,
                physical,
                virtual_channel,
            });
        }
        Topology { orgs, spec }
    }

    /// Total sensors.
    pub fn sensor_count(&self) -> usize {
        self.orgs.iter().map(|o| o.sensors.len()).sum()
    }

    /// Total physical channels.
    pub fn physical_channel_count(&self) -> usize {
        self.orgs
            .iter()
            .flat_map(|o| &o.sensors)
            .map(|s| s.physical.len())
            .sum()
    }

    /// Total virtual channels.
    pub fn virtual_channel_count(&self) -> usize {
        self.orgs
            .iter()
            .flat_map(|o| &o.sensors)
            .filter(|s| s.virtual_channel.is_some())
            .count()
    }

    /// All physical channel keys (the ingest targets).
    pub fn physical_channels(&self) -> impl Iterator<Item = &str> {
        self.orgs
            .iter()
            .flat_map(|o| &o.sensors)
            .flat_map(|s| s.physical.iter())
            .map(String::as_str)
    }
}

/// Creates all actors of `topology`, wiring subscriptions and thresholds
/// (aggregators need no set-up: they read the channels' series). `silo_of_org` assigns each organization index a home silo
/// (`None` → plain client origin); with prefer-local placement this pins
/// all of an organization's actors to its silo, the paper's deployment.
///
/// Provisioning is pipelined (`tell`) and then fenced with a quiesce.
pub fn provision(
    rt: &Runtime,
    topology: &Topology,
    silo_of_org: impl Fn(usize) -> Option<SiloId>,
) -> Result<(), SendError> {
    for (org_idx, org) in topology.orgs.iter().enumerate() {
        let handle = match silo_of_org(org_idx) {
            Some(silo) => rt.handle_on(silo),
            None => rt.handle(),
        };
        let org_ref = handle.try_actor_ref::<Organization>(org.key.as_str())?;
        org_ref.tell(InitOrg {
            name: format!("Organization {org_idx}"),
        })?;
        org_ref.tell(AddUser {
            name: format!("user-{org_idx}"),
            role: UserRole::Engineer,
        })?;
        org_ref.tell(AddProject {
            name: format!("project-{org_idx}"),
            structure: "bridge".into(),
        })?;

        for sensor in &org.sensors {
            let sensor_ref = handle.try_actor_ref::<Sensor>(sensor.key.as_str())?;
            sensor_ref.tell(InitSensor {
                org: org.key.clone(),
                kind: SensorKind::Extension,
                position: Position::default(),
            })?;
            org_ref.tell(RegisterSensor {
                sensor: sensor.key.clone(),
            })?;

            let subscribers: Vec<String> = sensor.virtual_channel.iter().cloned().collect();
            for channel in &sensor.physical {
                sensor_ref.tell(AttachChannel {
                    channel: channel.clone(),
                })?;
                handle
                    .try_actor_ref::<PhysicalSensorChannel>(channel.as_str())?
                    .tell(ConfigureChannel {
                        org: org.key.clone(),
                        sensor: sensor.key.clone(),
                        threshold: topology.spec.threshold,
                        subscribers: subscribers.clone(),
                    })?;
                org_ref.tell(RegisterChannel {
                    channel: channel.clone(),
                    virtual_channel: false,
                })?;
            }
            if let Some(vkey) = &sensor.virtual_channel {
                sensor_ref.tell(AttachChannel {
                    channel: vkey.clone(),
                })?;
                handle
                    .try_actor_ref::<VirtualSensorChannel>(vkey.as_str())?
                    .tell(ConfigureVirtual {
                        org: org.key.clone(),
                        inputs: sensor.physical.clone(),
                        equation: Equation::Sum,
                    })?;
                org_ref.tell(RegisterChannel {
                    channel: vkey.clone(),
                    virtual_channel: true,
                })?;
            }
        }
    }
    rt.quiesce(Duration::from_secs(60));
    Ok(())
}

/// Typed client facade over the platform's online API.
#[derive(Clone)]
pub struct ShmClient {
    handle: RuntimeHandle,
}

impl ShmClient {
    /// Client using `handle`'s origin (plain or silo-affine).
    pub fn new(handle: RuntimeHandle) -> Self {
        ShmClient { handle }
    }

    /// Hot-path ingest target for a physical channel; cache this across
    /// requests in load generators.
    pub fn channel(&self, key: &str) -> ActorRef<PhysicalSensorChannel> {
        self.handle.actor_ref(key)
    }

    /// Inserts a batch of points; the promise carries the accepted count.
    pub fn ingest(&self, channel: &str, points: Vec<DataPoint>) -> Result<Promise<u32>, SendError> {
        self.handle
            .try_actor_ref::<PhysicalSensorChannel>(channel)?
            .ask(Ingest::new(points))
    }

    /// The paper's "live data request": latest point of every channel of
    /// an organization.
    pub fn live_data(&self, org: &str) -> Result<Promise<LiveDataReport>, SendError> {
        let (reply, promise) = ReplyTo::promise();
        self.handle
            .try_actor_ref::<Organization>(org)?
            .tell(GetLiveData { reply })?;
        Ok(promise)
    }

    /// The paper's "raw data request": a time range from one channel's
    /// series.
    pub fn raw_range(
        &self,
        channel: &str,
        from_ms: u64,
        to_ms: u64,
        limit: usize,
    ) -> Result<Promise<Vec<DataPoint>>, SendError> {
        self.handle
            .try_actor_ref::<PhysicalSensorChannel>(channel)?
            .ask(QueryRange {
                from_ms,
                to_ms,
                limit,
            })
    }

    /// Raw range over a virtual channel.
    pub fn raw_range_virtual(
        &self,
        channel: &str,
        from_ms: u64,
        to_ms: u64,
        limit: usize,
    ) -> Result<Promise<Vec<DataPoint>>, SendError> {
        self.handle
            .try_actor_ref::<VirtualSensorChannel>(channel)?
            .ask(QueryRange {
                from_ms,
                to_ms,
                limit,
            })
    }

    /// Statistical buckets of a channel at a level (plot feed).
    pub fn aggregates(
        &self,
        channel: &str,
        level: AggregateLevel,
        from_ms: u64,
        to_ms: u64,
    ) -> Result<Promise<Vec<(u64, Aggregate)>>, SendError> {
        self.handle
            .try_actor_ref::<Aggregator>(aggregator_key(channel, level))?
            .ask(QueryAggregates { from_ms, to_ms })
    }

    /// Channel statistics (accumulated change etc.).
    pub fn channel_stats(&self, channel: &str) -> Result<Promise<ChannelStats>, SendError> {
        self.handle
            .try_actor_ref::<PhysicalSensorChannel>(channel)?
            .ask(GetChannelStats)
    }

    /// Stats of a virtual channel.
    pub fn virtual_channel_stats(&self, channel: &str) -> Result<Promise<ChannelStats>, SendError> {
        self.handle
            .try_actor_ref::<VirtualSensorChannel>(channel)?
            .ask(GetChannelStats)
    }

    /// Organization structure snapshot.
    pub fn org_info(&self, org: &str) -> Result<Promise<OrgInfo>, SendError> {
        self.handle
            .try_actor_ref::<Organization>(org)?
            .ask(GetOrgInfo)
    }

    /// Sensor metadata snapshot.
    pub fn sensor_info(&self, sensor: &str) -> Result<Promise<SensorInfo>, SendError> {
        self.handle
            .try_actor_ref::<Sensor>(sensor)?
            .ask(GetSensorInfo)
    }

    /// Recent alerts of an organization, newest first.
    pub fn recent_alerts(&self, org: &str, limit: usize) -> Result<Promise<Vec<Alert>>, SendError> {
        self.handle
            .try_actor_ref::<AlertLog>(org)?
            .ask(RecentAlerts { limit })
    }

    /// Total alerts an organization has ever received.
    pub fn alert_count(&self, org: &str) -> Result<Promise<u64>, SendError> {
        self.handle.try_actor_ref::<AlertLog>(org)?.ask(CountAlerts)
    }

    /// The underlying handle (for advanced composition).
    pub fn handle(&self) -> &RuntimeHandle {
        &self.handle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout_ratios() {
        // 100 sensors → 1 org, 200 physical + 10 virtual = 210 channels,
        // exactly the paper's numbers.
        let t = Topology::layout(100, TopologySpec::default());
        assert_eq!(t.orgs.len(), 1);
        assert_eq!(t.sensor_count(), 100);
        assert_eq!(t.physical_channel_count(), 200);
        assert_eq!(t.virtual_channel_count(), 10);
    }

    #[test]
    fn layout_scales_organizations() {
        let t = Topology::layout(500, TopologySpec::default());
        assert_eq!(t.orgs.len(), 5);
        assert_eq!(t.physical_channel_count(), 1000);
        assert_eq!(t.virtual_channel_count(), 50);
    }

    #[test]
    fn partial_org_layout() {
        let t = Topology::layout(150, TopologySpec::default());
        assert_eq!(t.orgs.len(), 2);
        assert_eq!(t.orgs[0].sensors.len(), 100);
        assert_eq!(t.orgs[1].sensors.len(), 50);
    }

    #[test]
    fn keys_embed_org_for_partitioning() {
        let t = Topology::layout(150, TopologySpec::default());
        for sensor in &t.orgs[1].sensors {
            assert!(sensor.key.starts_with("org-1/"));
            for c in &sensor.physical {
                assert!(c.starts_with("org-1/"));
            }
        }
    }
}

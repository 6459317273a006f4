//! Message vocabulary of the SHM platform.

use aodb_runtime::{Message, ReplyTo};
use serde::{Deserialize, Serialize};

use crate::types::{
    Aggregate, Alert, DataPoint, Equation, PointBatch, Position, Project, SensorKind, Threshold,
    User, UserRole,
};

// ------------------------------------------------------------ organization

/// Initializes an organization tenant.
pub struct InitOrg {
    /// Display name.
    pub name: String,
}
impl Message for InitOrg {
    type Reply = ();
}

/// Adds a user to the organization; replies with the user id.
pub struct AddUser {
    /// Display name.
    pub name: String,
    /// Role.
    pub role: UserRole,
}
impl Message for AddUser {
    type Reply = u32;
}

/// Adds a monitoring project; replies with the project id.
pub struct AddProject {
    /// Project name.
    pub name: String,
    /// Monitored structure.
    pub structure: String,
}
impl Message for AddProject {
    type Reply = u32;
}

/// Registers a sensor under this organization.
pub struct RegisterSensor {
    /// Sensor actor key.
    pub sensor: String,
}
impl Message for RegisterSensor {
    type Reply = ();
}

/// Registers a (physical or virtual) channel for live-data reports.
pub struct RegisterChannel {
    /// Channel actor key.
    pub channel: String,
    /// Whether the channel is virtual.
    pub virtual_channel: bool,
}
impl Message for RegisterChannel {
    type Reply = ();
}

/// Live view over all of the organization's channels (functional
/// requirement 7; the paper's "live data request" in Figure 9).
///
/// The organization answers in its own turn, reading each channel's last
/// point from the series store; the reply sink travels in the message.
/// Use [`crate::ShmClient::live_data`] for the ergonomic form.
pub struct GetLiveData {
    /// Where the report goes.
    pub reply: ReplyTo<LiveDataReport>,
}
impl Message for GetLiveData {
    type Reply = ();
}

/// Result of [`GetLiveData`]: the most recent point of every channel.
#[derive(Clone, Debug, Default)]
pub struct LiveDataReport {
    /// `(channel key, latest point if any)`, unordered.
    pub channels: Vec<(String, Option<DataPoint>)>,
}

/// Structural snapshot of an organization.
pub struct GetOrgInfo;
impl Message for GetOrgInfo {
    type Reply = OrgInfo;
}

/// Reply of [`GetOrgInfo`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OrgInfo {
    /// Display name.
    pub name: String,
    /// Users (non-actor objects owned by the org).
    pub users: Vec<User>,
    /// Projects (non-actor objects owned by the org).
    pub projects: Vec<Project>,
    /// Registered sensor keys.
    pub sensors: Vec<String>,
    /// Registered channel keys (physical and virtual).
    pub channels: Vec<String>,
}

// ------------------------------------------------------------------ sensor

/// Initializes a sensor actor.
pub struct InitSensor {
    /// Owning organization key.
    pub org: String,
    /// What it measures.
    pub kind: SensorKind,
    /// Mounting position.
    pub position: Position,
}
impl Message for InitSensor {
    type Reply = ();
}

/// Attaches a channel to the sensor.
pub struct AttachChannel {
    /// Channel actor key.
    pub channel: String,
}
impl Message for AttachChannel {
    type Reply = ();
}

/// Relocates the sensor (sensors are active entities: they move).
pub struct UpdatePosition(pub Position);
impl Message for UpdatePosition {
    type Reply = ();
}

/// Sensor metadata snapshot.
pub struct GetSensorInfo;
impl Message for GetSensorInfo {
    type Reply = SensorInfo;
}

/// Reply of [`GetSensorInfo`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SensorInfo {
    /// Owning organization key.
    pub org: String,
    /// Measured quantity.
    pub kind: SensorKind,
    /// Current position.
    pub position: Position,
    /// Attached channel keys.
    pub channels: Vec<String>,
}

// ---------------------------------------------------------------- channels

/// Configures a physical channel (idempotent; provisioning).
pub struct ConfigureChannel {
    /// Owning organization key (alert routing).
    pub org: String,
    /// Owning sensor key.
    pub sensor: String,
    /// Threshold rules.
    pub threshold: Threshold,
    /// Virtual channels subscribed to this channel's stream.
    pub subscribers: Vec<String>,
}
impl Message for ConfigureChannel {
    type Reply = ();
}

/// Configures a virtual channel.
pub struct ConfigureVirtual {
    /// Owning organization key.
    pub org: String,
    /// Input (physical) channel keys, in equation order.
    pub inputs: Vec<String>,
    /// The derivation.
    pub equation: Equation,
}
impl Message for ConfigureVirtual {
    type Reply = ();
}

/// Sensor data insertion: the workload that dominates the paper's
/// benchmark (98 % of requests; 10 points per channel per request).
///
/// `Clone` so the batch can travel over an at-least-once boundary
/// (`tell_replayable` / `ask_replayable`); pair it with a [`dedup`]
/// token so redelivered copies are dropped instead of double-counted.
///
/// [`dedup`]: Ingest::dedup
#[derive(Clone)]
pub struct Ingest {
    /// The new points, oldest first. A [`PointBatch`] so replay copies
    /// and downstream fan-out share one allocation.
    pub points: PointBatch,
    /// Optional idempotence token `(source, seq)`. The channel keeps a
    /// per-source high-watermark of the largest `seq` applied and
    /// ignores batches at or below it, so duplicate delivery (network
    /// chaos, client retry after a silo crash) applies each batch once.
    ///
    /// The watermark is TCP-style: a source must send its sequence
    /// numbers in order and **retransmit an unacknowledged `seq` until
    /// it is acked before moving to `seq + 1`** — skipping ahead over a
    /// lost batch would leave a gap the watermark then (by design)
    /// refuses to fill.
    pub dedup: Option<(u64, u64)>,
}

impl Ingest {
    /// A plain batch with no idempotence token (at-most-once delivery).
    pub fn new(points: impl Into<PointBatch>) -> Self {
        Ingest {
            points: points.into(),
            dedup: None,
        }
    }

    /// A batch tagged `(source, seq)` for duplicate-safe redelivery.
    pub fn deduped(points: impl Into<PointBatch>, source: u64, seq: u64) -> Self {
        Ingest {
            points: points.into(),
            dedup: Some((source, seq)),
        }
    }
}

impl Message for Ingest {
    type Reply = u32; // number of points accepted
}

/// Derived-stream push from a physical channel to a subscribed virtual
/// channel.
pub struct PushDerived {
    /// The source physical channel (its key, shared across pushes).
    pub source: std::sync::Arc<str>,
    /// Its new points (shared with the originating ingest batch).
    pub points: PointBatch,
}
impl Message for PushDerived {
    type Reply = ();
}

/// Raw time-range query over a channel's series, points in the order
/// they were ingested (the paper's "raw data request" in Figure 8).
#[derive(Clone, Copy)]
pub struct QueryRange {
    /// Inclusive start (ms).
    pub from_ms: u64,
    /// Inclusive end (ms).
    pub to_ms: u64,
    /// Max points returned (0 = unlimited).
    pub limit: usize,
}
impl Message for QueryRange {
    type Reply = Vec<DataPoint>;
}

/// Channel statistics (accumulated change — functional requirement 4).
#[derive(Clone, Copy)]
pub struct GetChannelStats;
impl Message for GetChannelStats {
    type Reply = ChannelStats;
}

/// Reply of [`GetChannelStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Points ever ingested.
    pub total_points: u64,
    /// Sum of |Δvalue| over consecutive points (how far the element has
    /// moved in total).
    pub accumulated_change: f64,
    /// Last value minus first-ever value.
    pub net_change: f64,
    /// Most recent point.
    pub last: Option<DataPoint>,
}

// -------------------------------------------------------------- aggregator

/// Statistical buckets in a time range (plot data, functional
/// requirement 6). The aggregator first folds what the channel's series
/// has applied since its last read, so the buckets count every applied
/// point, as live data shows it.
#[derive(Clone, Copy)]
pub struct QueryAggregates {
    /// Inclusive start (ms).
    pub from_ms: u64,
    /// Inclusive end (ms).
    pub to_ms: u64,
}
impl Message for QueryAggregates {
    type Reply = Vec<(u64, Aggregate)>;
}

// --------------------------------------------------------------- alert log

/// A channel raising an alert into its organization's log.
pub struct PushAlert(pub Alert);
impl Message for PushAlert {
    type Reply = ();
}

/// Recent alerts, newest first.
pub struct RecentAlerts {
    /// Max alerts returned.
    pub limit: usize,
}
impl Message for RecentAlerts {
    type Reply = Vec<Alert>;
}

/// Total alerts ever logged.
pub struct CountAlerts;
impl Message for CountAlerts {
    type Reply = u64;
}

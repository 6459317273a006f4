//! # aodb-shm — the Structural Health Monitoring data platform
//!
//! Case study 1 of the EDBT 2019 paper, and the system its evaluation
//! measures: an IoT data platform for bridge monitoring built as an
//! actor-oriented database following the model of Figure 4.
//!
//! ## Actor model (Figure 4)
//!
//! | Actor | Role | Non-actor objects it encapsulates |
//! |---|---|---|
//! | [`Organization`] | Tenant; structural registry; live data from the series store | `Project`, `User` |
//! | [`Sensor`] | Relocatable device metadata | position |
//! | [`PhysicalSensorChannel`] | One raw data stream: series, accumulated change, thresholds | `DataPoint`s |
//! | [`VirtualSensorChannel`] | Equation over physical channels | derived `DataPoint`s |
//! | [`Aggregator`] | Hour, day or month buckets of one channel, folded from its series on query | `Aggregate` buckets |
//! | [`AlertLog`] | Per-tenant alert feed | `Alert`s |
//! | [`TenantGuard`] | Per-tenant authentication & authorization (NFR 7) | users, sessions |
//! | [`IngestGateway`] | Burst-absorbing device queue (§6.1) | buffered packets |
//!
//! The [`warehouse`] module exports online aggregates into a star schema
//! for historical analytics — the third component of the paper's
//! architecture (§5).
//!
//! ## Quick use
//!
//! ```
//! use std::sync::Arc;
//! use aodb_runtime::Runtime;
//! use aodb_store::MemStore;
//! use aodb_shm::{register_all, provision, ShmClient, ShmEnv, Topology, TopologySpec};
//! use aodb_shm::types::DataPoint;
//!
//! let rt = Runtime::single(2);
//! register_all(&rt, ShmEnv::paper_default(Arc::new(MemStore::new())));
//! let topology = Topology::layout(10, TopologySpec::default());
//! provision(&rt, &topology, |_org| None).unwrap();
//!
//! let client = ShmClient::new(rt.handle());
//! let channel = topology.physical_channels().next().unwrap();
//! client
//!     .ingest(channel, vec![DataPoint { ts_ms: 0, value: 1.5 }])
//!     .unwrap()
//!     .wait()
//!     .unwrap();
//! rt.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod aggregator;
mod alerts;
pub mod auth;
mod env;
pub mod gateway;
pub mod messages;
mod organization;
mod physical;
mod platform;
mod sensor;
mod sidecar;
#[cfg(test)]
pub(crate) mod test_props;
pub mod types;
mod virtual_channel;
pub mod warehouse;

pub use aggregator::{aggregator_key, parse_aggregator_key, Aggregator};
pub use alerts::AlertLog;
pub use auth::{AccessError, AccessLevel, SecureShmClient, SessionToken, TenantGuard};
pub use env::ShmEnv;
pub use gateway::IngestGateway;
pub use organization::Organization;
pub use physical::{series_key, PhysicalSensorChannel};
pub use platform::{
    provision, register_all, OrgTopology, SensorTopology, ShmClient, Topology, TopologySpec,
};
pub use sensor::Sensor;
pub use virtual_channel::VirtualSensorChannel;
pub use warehouse::{WarehouseExporter, WarehouseReader};

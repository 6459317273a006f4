//! # iot-aodb — actor-oriented databases for IoT data platforms
//!
//! A from-scratch Rust reproduction of *"Modeling and Building IoT Data
//! Platforms with Actor-Oriented Databases"* (EDBT 2019): an Orleans-style
//! virtual-actor runtime, a DynamoDB-style persistent state store, the
//! actor-oriented database layer (persistence, secondary indexes,
//! multi-actor transactions, workflows, versioned objects, multi-actor
//! queries), and the paper's two case-study platforms.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name for applications that want the whole stack.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`runtime`] | `aodb-runtime` | virtual actors, silos, placement, simulated network, metrics |
//! | [`store`] | `aodb-store` | `MemStore`, `LogStore` (WAL + snapshots), group-commit WAL, time series, fault injection |
//! | [`core`] | `aodb-core` | persistence, indexes, 2PC transactions, workflows, versioned objects |
//! | [`shm`] | `aodb-shm` | the Structural Health Monitoring platform (paper Figure 4) |
//! | [`cattle`] | `aodb-cattle` | the beef tracking & tracing platform (paper Figures 3 & 5) |
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use iot_aodb::runtime::Runtime;
//! use iot_aodb::store::MemStore;
//! use iot_aodb::shm::{register_all, provision, ShmClient, ShmEnv, Topology, TopologySpec};
//! use iot_aodb::shm::types::DataPoint;
//!
//! let rt = Runtime::single(2);
//! register_all(&rt, ShmEnv::paper_default(Arc::new(MemStore::new())));
//! let topology = Topology::layout(10, TopologySpec::default());
//! provision(&rt, &topology, |_| None).unwrap();
//!
//! let client = ShmClient::new(rt.handle());
//! let channel = topology.physical_channels().next().unwrap();
//! let accepted = client
//!     .ingest(channel, vec![DataPoint { ts_ms: 0, value: 0.42 }])
//!     .unwrap()
//!     .wait()
//!     .unwrap();
//! assert_eq!(accepted, 1);
//! rt.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use aodb_cattle as cattle;
pub use aodb_core as core;
pub use aodb_runtime as runtime;
pub use aodb_shm as shm;
pub use aodb_store as store;

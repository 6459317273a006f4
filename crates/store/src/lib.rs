//! # aodb-store — durable state storage for actor-oriented databases
//!
//! The storage substrate of the EDBT 2019 IoT-AODB reproduction, standing
//! in for Amazon DynamoDB in the paper's architecture:
//!
//! * [`StateStore`] — the store abstraction persistent actors write
//!   through (get / put / delete / prefix scan over composite
//!   [`Key`]s with DynamoDB-like partition + sort structure).
//! * [`MemStore`] — in-memory baseline.
//! * [`LogStore`] — durable log-structured store: CRC-framed write-ahead
//!   log, in-memory index, snapshot compaction, crash recovery with
//!   torn-tail truncation.
//! * [`ChaosStore`] — a seeded fault-injecting decorator (error bursts,
//!   throttle windows, latency) for crash/recovery testing; its throttle
//!   windows are the one model of DynamoDB's exhausted capacity
//!   ([`StoreError::Throttled`]).
//! * [`GroupWal`] — group-commit write-ahead log: a single committer
//!   thread coalesces frames from concurrent turns into one write + one
//!   fsync per group and resolves acks post-durability, with injectable
//!   [`CrashPoint`]s at every write/fsync/ack boundary.
//! * [`codec`] — value serialization, the byte codec every binary record
//!   is written and read with, and record framing.
//! * [`tseries`] — columnar time-series engine for the ingest hot path:
//!   delta-of-delta + Gorilla-XOR compressed sealed blocks behind the
//!   [`SeriesStore`] seam, durable through any [`StateStore`] backing.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod api;
mod chaos;
pub mod codec;
mod log;
mod mem;
pub mod tseries;
pub mod wal;

pub use api::{Key, StateStore, StoreError, StoreResult};
pub use chaos::{BurstWindow, ChaosStore, ChaosStoreConfig};
pub use log::{LogStore, LogStoreConfig};
pub use mem::MemStore;
pub use tseries::{AppendOutcome, SeriesRecovery, SeriesStats, SeriesStore, TsConfig, TsStore};
pub use wal::{
    CrashPlan, CrashPoint, FsyncPolicy, GroupWal, MemMedia, WalConfig, WalMedia, WalStatsSnapshot,
    WalTicket,
};

pub use bytes::Bytes;

//! # aodb-runtime — a virtual-actor runtime for actor-oriented databases
//!
//! This crate is the Orleans-style substrate the EDBT 2019 paper
//! *"Modeling and Building IoT Data Platforms with Actor-Oriented
//! Databases"* builds on, reimplemented from scratch in safe Rust:
//!
//! * **Virtual actors** — actors are *named* ([`ActorId`]) and logically
//!   always exist. The runtime activates an in-memory instance on the first
//!   message, runs handlers turn-based (at most one turn per activation at
//!   a time), and reclaims idle activations, calling
//!   [`Actor::on_deactivate`] so persistent actors can flush state.
//! * **Silos** — simulated servers: each owns a worker pool and an
//!   activation table. Cross-silo messages pay configurable simulated
//!   network latency ([`NetConfig`]), making placement effects measurable.
//! * **Placement** — [`RandomPlacement`] (the Orleans default),
//!   [`PreferLocalPlacement`] (what the paper's SHM platform adopted for
//!   sensor channels and aggregators), and [`ConsistentHashPlacement`].
//! * **Messaging** — typed [`Message`]/[`Handler`] dispatch, one-way
//!   `tell`, promise-based `ask`, blocking `call` for clients, and
//!   deadlock-free scatter/gather via [`Collector`].
//! * **Metrics** — a concurrent log-bucketed [`Histogram`] delivering the
//!   latency percentiles the paper plots in Figures 8–9.
//!
//! ## Quick example
//!
//! ```
//! use aodb_runtime::{Actor, ActorContext, Handler, Message, Runtime};
//!
//! struct Counter { value: u64 }
//!
//! impl Actor for Counter {
//!     const TYPE_NAME: &'static str = "example.counter";
//! }
//!
//! struct Add(u64);
//! impl Message for Add { type Reply = u64; }
//!
//! impl Handler<Add> for Counter {
//!     fn handle(&mut self, msg: Add, _ctx: &mut ActorContext<'_>) -> u64 {
//!         self.value += msg.0;
//!         self.value
//!     }
//! }
//!
//! let rt = Runtime::single(2);
//! rt.register(|_id| Counter { value: 0 });
//! let counter = rt.actor_ref::<Counter>("my-counter");
//! assert_eq!(counter.call(Add(5)).unwrap(), 5);
//! assert_eq!(counter.call(Add(2)).unwrap(), 7);
//! rt.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod actor;
pub mod chaos;
mod directory;
mod envelope;
mod error;
mod identity;
mod mailbox;
pub mod metrics;
mod net;
mod placement;
mod promise;
mod runq;
mod runtime;
mod silo;
mod topology;

pub use actor::{Actor, ActorContext, Handler, Message};
pub use chaos::{ChaosNetConfig, ChaosNetStatsSnapshot, CrashEvent, FaultPlan};
pub use envelope::Envelope;
pub use error::{ActorError, CallError, PromiseError, SendError};
pub use identity::{ActorId, ActorKey, ActorTypeId, Origin, SiloId};
pub use metrics::{Histogram, Percentiles, RuntimeMetricsSnapshot, Snapshot};
pub use net::{LatencyModel, NetConfig, TimerHandle};
pub use placement::{ConsistentHashPlacement, Placement, PreferLocalPlacement, RandomPlacement};
pub use promise::{gather, resolved, Collector, Promise, ReplyTo};
pub use runtime::{ActorRef, Recipient, Runtime, RuntimeBuilder, RuntimeHandle, SiloCrashReport};
pub use silo::SiloConfig;
pub use topology::{CallDecl, CallKind};

/// Internal scheduler/mailbox surface re-exported for the `modelcheck`
/// component models (feature `model` only; not a stable API).
#[cfg(feature = "model")]
pub mod model_api {
    pub use crate::mailbox::{Mailbox, PushOutcome, TurnOutcome};
    pub use crate::runq::{IdleSet, RunQueues, TaskSource, INJECTOR_FIRST_INTERVAL};

    use crate::envelope::Envelope;

    /// An inert envelope usable as an opaque mailbox token in models.
    pub fn inert_envelope() -> Envelope {
        Envelope::lifecycle_activate()
    }
}

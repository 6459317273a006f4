//! # aodb-core — the actor-oriented database layer
//!
//! This crate turns the bare virtual-actor runtime (`aodb-runtime`) plus
//! the storage substrate (`aodb-store`) into an *actor-oriented database*
//! in the sense of the EDBT 2019 paper: actors enriched with classic DBMS
//! functionality.
//!
//! | Module | Database feature | Paper anchor |
//! |---|---|---|
//! | [`persist`] | Durable actor state with write policies (`EveryChange`, `OnDeactivate`) | §5 durability discussion |
//! | [`index`] | Hash-partitioned secondary indexes maintained by actors | §1/§7, AODB vision |
//! | [`txn`] | Multi-actor ACID transactions (2PC, non-blocking coordinator) | §4.4 principle |
//! | [`workflow`] | Multi-actor update workflows with retries + idempotence | §4.4 fallback |
//! | [`versioned`] | Versioned non-actor objects with copy-on-transfer provenance | §4.3 principle |
//! | [`query`] | Key registries and scatter/gather multi-actor queries | §2/§6 online queries |
//! | [`reminders`] | Durable periodic callbacks surviving restarts | §6.1 (RDS stores Orleans reminders) |

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod index;
pub mod persist;
pub mod query;
pub mod reminders;
#[cfg(test)]
pub(crate) mod test_props;
pub mod txn;
pub mod versioned;
pub mod workflow;

pub use index::{IndexClient, IndexDump, IndexLookup, IndexMode, IndexShard, IndexUpdate};
pub use persist::{state_key, state_key_for, Persisted, PersistentState, WritePolicy};
pub use query::{broadcast, CountKeys, KeyRegistry, ListKeys, RegisterKey, UnregisterKey};
pub use reminders::{
    register_reminder, restore_reminders, unregister_reminder, ReminderFired, ReminderSpec,
    ReminderTable,
};
pub use txn::{
    run_transaction, Begin, Decide, Participant, Prepare, TxnCoordinator, TxnId, TxnLock, TxnOp,
    TxnOutcome, Vote,
};
pub use versioned::{TransferRecord, Versioned};
pub use workflow::{
    run_workflow, IdempotenceGuard, StartWorkflow, StepResult, WorkStep, WorkflowEngine,
    WorkflowOutcome,
};

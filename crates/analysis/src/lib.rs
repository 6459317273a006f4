//! # aodb-analysis — static analysis for the actor workspace
//!
//! The platform is only deadlock-free and recoverable because every
//! actor follows the turn discipline: one message at a time, no
//! blocking on another actor that might be waiting on it, state
//! persisted before the ack. This crate checks that discipline — one
//! declared-topology check plus **one core under five source passes**.
//!
//! **Call graph.** Every actor type declares its outbound edges
//! ([`aodb_runtime::Actor::declared_calls`]); [`workspace_graph`]
//! assembles the whole-workspace [`CallGraph`] (renderable as DOT) and
//! Tarjan SCC over the synchronous `Call` edges
//! ([`CallGraph::call_cycles`]) finds the reentrancy deadlocks of
//! non-reentrant virtual-actor systems.
//!
//! **The core.** A tree is read, lexed and parsed once into a
//! [`Corpus`]; a crate-scoped pass takes a [`Corpus::scope`] of it.
//!
//! * [`lexer`] — the hand-rolled token scanner (comments, raw strings
//!   and nested block comments out of the way);
//! * [`dataflow`] — the per-file item model (`impl`s, `fn`s, `Actor`
//!   impls, every `struct`/`enum` with its fields), the control-flow
//!   tree of each function body, and [`dataflow::eval_flow`], the one
//!   path-sensitive evaluator every flow-walking rule runs on;
//! * [`taxonomy`] — the one table module: what blocks, what sends, what
//!   commits, what is nondeterministic.
//!
//! **The passes**, each a thin set of rules over that core:
//!
//! * **turn** ([`lint::turn_findings`]) — `guard-across-wait` (the
//!   guard-liveness walk of [`locks`] over the whole tree, reporting
//!   blocking *requests*), `blocking-in-collector` and
//!   `std-sync-primitive` (token scans).
//! * **verify** ([`verify_corpus`]) — declaration drift between send
//!   sites and `declared_calls()` ([`sendsites`]) and sync-handler paths
//!   that leak their reply obligation ([`dataflow`]).
//! * **lock** ([`lockcheck_corpus`]) — lock-class extraction and
//!   guard-liveness dataflow over the runtime substrate ([`locks`]):
//!   every held-while-acquiring pair feeds a [`lockgraph::LockGraph`]
//!   whose SCCs are `lock-order-cycle` findings, and any guard live
//!   across blocking work (store I/O, parks, waits, channel ops,
//!   dispatch into actor code) is a `lock-across-blocking` finding.
//! * **replay** ([`replaycheck_corpus`]) — turn determinism
//!   ([`effects`], [`replay`]): values from unordered-collection
//!   iteration, RNG, thread identity, or env/FS reads that flow into a
//!   send payload, a reply, or a persisted write are `nondet-in-turn`;
//!   `Persisted<T>` state types carrying `HashMap`/`HashSet` fields are
//!   `unordered-persisted-state`; `Instant::now`/`SystemTime::now`
//!   inside a turn is `ambient-clock`.
//! * **schema** ([`schemacheck_corpus`]) — layout fingerprints of every
//!   `Persisted<T>` state type and binary on-disk format ([`schema`],
//!   [`schemalock`]) against the committed `schema.lock`
//!   (`schema-drift`, `schema-unversioned`), plus the ack-durability
//!   dataflow ([`durability`]) proving no handler path resolves a
//!   `ReplyTo` before its commit-point store write
//!   (`ack-before-commit`).
//!
//! Accepted findings live in a [`baseline`] file with per-entry
//! justifications; entries that stop firing fail the lint, so the
//! baseline can only ratchet down. The `aodb-lint` binary drives all of
//! it and exits nonzero on any violation; debug builds of the runtime
//! enforce the declarations at dispatch time, so graph and code cannot
//! silently drift apart.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod baseline;
pub mod dataflow;
pub mod durability;
pub mod effects;
pub mod graph;
pub mod lexer;
pub mod lint;
pub mod lockgraph;
pub mod locks;
pub mod replay;
pub mod schema;
pub mod schemalock;
pub mod sendsites;
pub mod taxonomy;

pub use baseline::{Baseline, Suppression};
pub use graph::{CallGraph, Edge, ANY_NODE};
pub use lint::{turn_findings, Finding, Rule};
pub use lockgraph::{LockEdge, LockGraph};
pub use locks::{lockcheck_corpus, LockAnalysis};
pub use replay::replaycheck_corpus;
pub use schemalock::{EntryKind, LockEntry, SchemaLock, SchemaLockError};
pub use sendsites::Corpus;

/// Runs the aodb-verify dataflow passes (declaration drift, reply
/// obligations) over one parsed corpus.
pub fn verify_corpus(corpus: &Corpus) -> Vec<Finding> {
    let replies = corpus.reply_structs();
    let mut findings = sendsites::drift_findings(corpus);
    for file in &corpus.files {
        findings.extend(dataflow::reply_findings(file, &replies));
    }
    crate::lint::sort_findings(&mut findings);
    findings
}

/// Runs the aodb-schemacheck passes over one parsed corpus: persisted
/// layout fingerprints against an optional `schema.lock` (drift,
/// unversioned formats, stale lock entries) plus the ack-before-commit
/// dataflow over every handler.
pub fn schemacheck_corpus(corpus: &Corpus, lock: Option<&SchemaLock>) -> Vec<Finding> {
    let mut findings = schema::schema_findings(corpus, lock);
    for file in &corpus.files {
        findings.extend(durability::ack_findings(file));
    }
    crate::lint::sort_findings(&mut findings);
    findings
}

/// The whole-workspace call graph: every actor type registered by the
/// SHM platform, the cattle-tracking platform, and the shared AODB
/// infrastructure, with their declared edges.
pub fn workspace_graph() -> CallGraph {
    CallGraph::from_topology(
        aodb_shm::call_topology()
            .into_iter()
            .chain(aodb_cattle::call_topology())
            .chain(aodb_core::call_topology()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_graph_covers_all_platform_actors() {
        let g = workspace_graph();
        for name in [
            "shm.sensor",
            "shm.ingest-gateway",
            "shm.channel",
            "shm.virtual-channel",
            "shm.aggregator",
            "shm.organization",
            "shm.alert-log",
            "shm.tenant-guard",
            "cattle.cow",
            "cattle.farmer",
            "cattle.slaughterhouse",
            "cattle.meat-cut",
            "cattle.distributor",
            "cattle.delivery",
            "cattle.retailer",
            "cattle.meat-product",
            "cattle.cut-holder",
            "aodb.index-shard",
            "aodb.key-registry",
            "aodb.reminder-table",
            "aodb.txn-coordinator",
            "aodb.workflow-engine",
        ] {
            assert!(g.nodes().iter().any(|n| n == name), "missing node {name}");
        }
    }

    #[test]
    fn workspace_graph_has_no_call_cycles() {
        let cycles = workspace_graph().call_cycles();
        assert!(
            cycles.is_empty(),
            "declared topology has sync-call cycles: {cycles:?}"
        );
    }
}

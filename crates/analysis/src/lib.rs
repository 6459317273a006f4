//! # aodb-analysis — static analysis for the actor workspace
//!
//! The platform is only deadlock-free and recoverable because every
//! actor follows the turn discipline: one message at a time, no
//! blocking on another actor that might be waiting on it, state
//! persisted before the ack. This crate checks that discipline from the
//! source alone — it depends on no workspace crate — with a call-graph
//! check plus **one core under five source passes**.
//!
//! **The core.** A tree is read, lexed and parsed once into a
//! [`Corpus`]; a crate-scoped pass takes a [`Corpus::scope`] of it.
//!
//! * [`lexer`] — the hand-rolled token scanner (comments, raw strings
//!   and nested block comments out of the way);
//! * [`dataflow`] — the per-file item model (`impl`s, `fn`s, `Actor`
//!   impls, every `struct`/`enum` with its fields), the control-flow
//!   tree of each function body, [`dataflow::eval_flow`], the one
//!   path-sensitive evaluator every flow-walking rule runs on, and the
//!   walker vocabulary the passes share (which fns are turns, which
//!   calls a walk follows, statement and `let`/`for` heads, receiver
//!   resolution against [`dataflow::FieldClasses`]);
//! * [`taxonomy`] — the one table module: what blocks, what sends, what
//!   commits, what is nondeterministic.
//!
//! **Call graph.** Every actor type declares its outbound edges in
//! `Actor::declared_calls()`. [`CallGraph::from_corpus`] builds the
//! graph from those declarations as the parser reads them out of the
//! [`ACTOR_CRATES`] (renderable as DOT), and Tarjan SCC over the
//! synchronous `Call` edges ([`CallGraph::call_cycles`]) finds the
//! reentrancy deadlocks of non-reentrant virtual-actor systems.
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
//! it and exits nonzero on any violation. The `verify` pass diffs the
//! declarations against the send sites, and debug builds of the runtime
//! enforce them at dispatch time, so graph and code cannot silently
//! drift apart.

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
pub use graph::{CallGraph, CallKind, Edge, ANY, ANY_NODE};
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

/// The crates whose `src/` trees hold the platform's actors, as a
/// [`Corpus::scope`]: the call graph and the `replay` pass audit these.
pub const ACTOR_CRATES: &[&str] = &["shm", "cattle", "core"];

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// The actor crates of this workspace, as `aodb-lint` scopes them.
    fn actor_corpus() -> Corpus {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        Corpus::load(&[root]).unwrap().scope(ACTOR_CRATES)
    }

    #[test]
    fn workspace_graph_covers_all_platform_actors() {
        // Every `impl Actor for` in the actor crates is a node under the
        // `TYPE_NAME` the parser reads; one it cannot name fails here.
        let corpus = actor_corpus();
        let g = CallGraph::from_corpus(&corpus);
        let mut impls = 0;
        for file in &corpus.files {
            let toks = &file.toks;
            impls += (2..toks.len())
                .filter(|&i| {
                    toks[i - 2].is_ident("impl")
                        && toks[i - 1].is_ident("Actor")
                        && toks[i].is_ident("for")
                })
                .count();
            for actor in &file.actors {
                let name = actor.type_name.as_ref().unwrap_or_else(|| {
                    panic!(
                        "{}: no readable TYPE_NAME for `{}`",
                        file.path.display(),
                        actor.type_ident
                    )
                });
                assert!(g.nodes().contains(name), "missing node {name}");
            }
        }
        let parsed: usize = corpus.files.iter().map(|f| f.actors.len()).sum();
        assert_eq!(parsed, impls, "an `impl Actor for` the parser did not read");
        assert!(impls > 0, "no actors found under {ACTOR_CRATES:?}");
    }

    #[test]
    fn workspace_graph_has_no_call_cycles() {
        let cycles = CallGraph::from_corpus(&actor_corpus()).call_cycles();
        assert!(
            cycles.is_empty(),
            "declared topology has sync-call cycles: {cycles:?}"
        );
    }
}

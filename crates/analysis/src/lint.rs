//! Rules, findings, and the turn-discipline lint.
//!
//! [`Rule`] and [`Finding`] are the vocabulary every pass reports in.
//! The three rules that live here are the turn contract's own — handlers
//! only stay deadlock-free if they follow disciplines the type system
//! cannot express:
//!
//! 1. **`guard-across-wait`** — holding a guard (`.lock()` / `.read()` /
//!    `.write()`) across a blocking request (`.call(...)`, `.wait()`,
//!    `.wait_for(...)`) keeps the lock pinned while the thread sleeps on
//!    another actor's turn. This is the guard-liveness walk of
//!    [`crate::locks`] with a second reporting rule: same scope exit,
//!    `drop(g)` and statement-temporary handling, run over the whole
//!    tree with every receiver admitted.
//! 2. **`blocking-in-collector`** — a blocking request inside the
//!    argument list of `Collector::new(..)`: the completion closure runs
//!    on whichever worker delivers the final reply; blocking there stalls
//!    a silo worker that other activations need.
//! 3. **`std-sync-primitive`** — a `std::sync` lock where `parking_lot`
//!    is the workspace convention (the `std` primitives are poisonable
//!    and slower under contention).
//!
//! 2 and 3 are token scans over the lexed corpus, so comments, strings
//! (raw ones included) and nested block comments never match. A finding
//! can be suppressed by putting `aodb-lint: allow(<rule>)` on the
//! offending line or the line above.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::dataflow::FileModel;
use crate::lexer::{is_method_call, skip_group, Tok};
use crate::sendsites::Corpus;
use crate::taxonomy::{STD_SYNC_PRIMITIVES, TURN_BLOCKERS};

/// Lint rule identifiers (used in reports and `allow(...)` markers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// A `parking_lot` guard is live across a blocking request.
    GuardAcrossWait,
    /// A blocking request inside a `Collector` fan-in closure.
    BlockingInCollector,
    /// A `std::sync` lock where `parking_lot` is the convention.
    StdSyncPrimitive,
    /// A cross-actor send/call site with no covering `declared_calls()`
    /// entry (debug builds would panic at dispatch).
    DeclarationDriftMissing,
    /// A `declared_calls()` entry no send site exercises anymore.
    DeclarationDriftStale,
    /// A sync-handler path that neither consumes its `ReplyTo` sink nor
    /// propagates an error.
    ReplyLeak,
    /// Two lock classes acquired in inconsistent order somewhere in the
    /// runtime (an SCC in the held-while-acquiring graph).
    LockOrderCycle,
    /// A lock guard live across store/file I/O, a park/condvar/promise
    /// wait, a channel op, or a dispatch into user actor code.
    LockAcrossBlocking,
    /// A nondeterministic value (RNG, thread identity, env/FS read,
    /// unordered-collection iteration) flows into a send payload, a
    /// reply, or a persisted write inside an actor turn.
    NondetInTurn,
    /// A `Persisted<T>` state type carries a `HashMap`/`HashSet` field:
    /// serde serialization order leaks into the stored blob, so replayed
    /// histories produce different state bytes.
    UnorderedPersistedState,
    /// `Instant::now()` / `SystemTime::now()` inside an actor turn;
    /// actor code must read time through `ActorContext::now()`.
    AmbientClock,
    /// A persisted layout (a `Persisted<T>` state type or an on-disk
    /// binary format) whose fingerprint no longer matches the committed
    /// `schema.lock` entry — the change must be acknowledged by
    /// regenerating the lockfile.
    SchemaDrift,
    /// A binary on-disk format whose magic carries no version dispatch
    /// path: a future layout change could only fail as CRC corruption
    /// instead of a typed unsupported-version error.
    SchemaUnversioned,
    /// A handler resolves a `ReplyTo` sink and *then* performs a
    /// commit-point store write on the same path — the caller can
    /// observe the ack while the turn's durable effects are still
    /// volatile (breaks the ack-⇒-durable contract).
    AckBeforeCommit,
}

/// Every rule with the name reports and `allow(...)` markers use, in
/// declaration order (so a rule's discriminant indexes its row).
const RULES: [(Rule, &str); 14] = [
    (Rule::GuardAcrossWait, "guard-across-wait"),
    (Rule::BlockingInCollector, "blocking-in-collector"),
    (Rule::StdSyncPrimitive, "std-sync-primitive"),
    (Rule::DeclarationDriftMissing, "declaration-drift-missing"),
    (Rule::DeclarationDriftStale, "declaration-drift-stale"),
    (Rule::ReplyLeak, "reply-leak"),
    (Rule::LockOrderCycle, "lock-order-cycle"),
    (Rule::LockAcrossBlocking, "lock-across-blocking"),
    (Rule::NondetInTurn, "nondet-in-turn"),
    (Rule::UnorderedPersistedState, "unordered-persisted-state"),
    (Rule::AmbientClock, "ambient-clock"),
    (Rule::SchemaDrift, "schema-drift"),
    (Rule::SchemaUnversioned, "schema-unversioned"),
    (Rule::AckBeforeCommit, "ack-before-commit"),
];

impl Rule {
    /// The marker name recognized in `aodb-lint: allow(<name>)`.
    pub fn name(self) -> &'static str {
        RULES[self as usize].1
    }

    /// Inverse of [`Rule::name`], for baseline files.
    pub fn from_name(name: &str) -> Option<Rule> {
        RULES.iter().find(|(_, n)| *n == name).map(|(r, _)| *r)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which discipline was violated.
    pub rule: Rule,
    /// Source file.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: u32,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Human explanation of the specific violation.
    pub detail: String,
    /// Enclosing item (function) name — the stable baseline key, immune
    /// to unrelated edits shifting line numbers.
    pub item: Option<String>,
    /// Lock class (`Owner.field`) for lockcheck rules.
    pub class: Option<String>,
}

impl Finding {
    /// The same finding carrying its lock / unordered-collection class.
    pub fn with_class(mut self, class: Option<String>) -> Finding {
        self.class = class;
        self
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file.display(),
            self.line,
            self.rule,
            self.detail,
            self.excerpt
        )
    }
}

/// The report order of every pass: by file, then line, then rule name.
pub(crate) fn sort_findings(findings: &mut [Finding]) {
    findings
        .sort_by(|a, b| (&a.file, a.line, a.rule.name()).cmp(&(&b.file, b.line, b.rule.name())));
}

/// Runs the three turn-discipline rules over a parsed corpus. Each rule
/// reports a line once, however many requests or primitives it holds.
pub fn turn_findings(corpus: &Corpus) -> Vec<Finding> {
    let mut findings = crate::locks::guard_wait_findings(corpus);
    for file in &corpus.files {
        collector_findings(file, &mut findings);
        std_sync_findings(file, &mut findings);
    }
    sort_findings(&mut findings);
    findings.dedup_by(|a, b| (&a.file, a.line, a.rule) == (&b.file, b.line, b.rule));
    findings
}

/// The blocking-request pattern (`.call(`, `.wait()`, `.wait_for(`) that
/// the method call at token `j` matches, if any.
pub(crate) fn turn_request(toks: &[Tok], j: usize) -> Option<&'static str> {
    if !is_method_call(toks, j) {
        return None;
    }
    let zero_arg = toks.get(j + 2).is_some_and(|t| t.is_punct(')'));
    TURN_BLOCKERS
        .iter()
        .find(|(m, pattern)| toks[j].is_ident(m) && (zero_arg || !pattern.ends_with("()")))
        .map(|(_, pattern)| *pattern)
}

/// A finding of a token-scan rule at token `j`, unless allowed there.
fn scan_finding(model: &FileModel, j: usize, rule: Rule, detail: String) -> Option<Finding> {
    let line = model.toks[j].line;
    let item = model.enclosing_fn(j).map(|f| f.name.clone());
    (!model.allowed(line, rule)).then(|| model.finding(rule, line, item, detail))
}

/// `blocking-in-collector`: blocking requests between the parentheses of
/// a `Collector::new(..)` / `Collector::<T>::new(..)` call.
fn collector_findings(model: &FileModel, out: &mut Vec<Finding>) {
    let toks = &model.toks;
    for i in 0..toks.len().saturating_sub(3) {
        let ctor = toks[i].is_ident("Collector")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && (toks[i + 3].is_ident("new") || toks[i + 3].is_punct('<'));
        if !ctor {
            continue;
        }
        let Some(open) = (i + 3..toks.len()).find(|&k| toks[k].is_punct('(')) else {
            continue;
        };
        for j in open..skip_group(toks, open, toks.len(), '(', ')') {
            let Some(point) = turn_request(toks, j) else {
                continue;
            };
            let detail = format!(
                "`{point}` inside a `Collector` fan-in; completion closures run on \
                 worker threads and must stay non-blocking (post a continuation \
                 message instead)"
            );
            out.extend(scan_finding(model, j, Rule::BlockingInCollector, detail));
        }
    }
}

/// `std-sync-primitive`: `std::sync::{Mutex,RwLock,Condvar,Barrier}`
/// paths, in `use` items and expressions alike.
fn std_sync_findings(model: &FileModel, out: &mut Vec<Finding>) {
    let toks = &model.toks;
    let sep = |i: usize| toks[i].is_punct(':') && toks[i + 1].is_punct(':');
    for i in 0..toks.len().saturating_sub(6) {
        let prim = &toks[i + 6];
        if toks[i].is_ident("std")
            && sep(i + 1)
            && toks[i + 3].is_ident("sync")
            && sep(i + 4)
            && STD_SYNC_PRIMITIVES.iter().any(|p| prim.is_ident(p))
        {
            let detail = format!(
                "`std::sync::{}` used where `parking_lot` is the workspace convention",
                prim.text
            );
            out.extend(scan_finding(model, i + 6, Rule::StdSyncPrimitive, detail));
        }
    }
}

/// Collects `.rs` files under `dir`, skipping `vendor/`, `target/`,
/// dot-dirs, and `fixtures/` trees (fixture files are deliberately dirty
/// inputs for the analysis' own tests, not workspace code).
pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "vendor" || name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `aodb-lint: allow(a, b)` markers on a raw (pre-comment-strip) line.
pub(crate) fn parse_allows(raw: &str) -> Vec<&str> {
    let Some(i) = raw.find("aodb-lint: allow(") else {
        return Vec::new();
    };
    let rest = &raw[i + "aodb-lint: allow(".len()..];
    let Some(end) = rest.find(')') else {
        return Vec::new();
    };
    rest[..end].split(',').map(str::trim).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(text: &str) -> Vec<Finding> {
        turn_findings(&Corpus::from_sources(vec![("test.rs".into(), text.into())]))
    }

    #[test]
    fn guard_across_call_flagged() {
        let findings = lint_str(
            "fn handler() {\n\
             let guard = self.table.lock();\n\
             let x = other.call(Msg)?;\n\
             }\n",
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::GuardAcrossWait);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn guard_dropped_before_call_is_fine() {
        let findings = lint_str(
            "fn handler() {\n\
             {\n\
             let guard = self.table.lock();\n\
             guard.push(1);\n\
             }\n\
             let x = other.call(Msg)?;\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn explicit_drop_ends_liveness() {
        let findings = lint_str(
            "fn handler() {\n\
             let guard = self.table.lock();\n\
             drop(guard);\n\
             let x = other.call(Msg)?;\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn blocking_inside_collector_flagged() {
        let findings = lint_str(
            "fn handler() {\n\
             let c = Collector::new(n, move |replies| {\n\
             let v = other.call(Summarize)?;\n\
             });\n\
             }\n",
        );
        assert!(findings.iter().any(|f| f.rule == Rule::BlockingInCollector));
    }

    #[test]
    fn tell_inside_collector_is_fine() {
        let findings = lint_str(
            "fn handler() {\n\
             let c = Collector::new(n, move |replies| {\n\
             let _ = me.tell(Done { replies });\n\
             });\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn blocking_after_collector_region_is_fine() {
        let findings = lint_str(
            "fn client() {\n\
             let c = Collector::new(n, move |replies| { deliver(replies); });\n\
             promise.wait()\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn std_sync_flagged_and_allow_suppresses() {
        let flagged = lint_str("use std::sync::Mutex;\n");
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].rule, Rule::StdSyncPrimitive);

        let allowed = lint_str(
            "// aodb-lint: allow(std-sync-primitive)\n\
             use std::sync::Mutex;\n",
        );
        assert!(allowed.is_empty(), "{allowed:?}");
    }

    #[test]
    fn rule_table_rows_follow_declaration_order() {
        for (i, (rule, name)) in RULES.iter().enumerate() {
            assert_eq!(*rule as usize, i, "{name}");
            assert_eq!(Rule::from_name(name), Some(*rule));
        }
    }

    #[test]
    fn comment_mentions_are_ignored() {
        let findings = lint_str(
            "// explaining that actors must never .call( while holding\n\
             // a lock() guard, or use std::sync::Mutex\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}

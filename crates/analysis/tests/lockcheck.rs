//! End-to-end tests for the aodb-lockcheck passes: the known-dirty
//! fixtures must fire exactly their seeded rules, the known-clean
//! fixture must stay silent, the lock-order DOT dump must match its
//! golden file, and the `aodb-lint` binary must surface both rules.

use std::path::PathBuf;
use std::process::Command;

use aodb_analysis::{lockcheck_corpus, Corpus, Rule};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

fn fixture_corpus(names: &[&str]) -> Corpus {
    let dir = fixtures_dir();
    Corpus::from_sources(
        names
            .iter()
            .map(|n| {
                let path = dir.join(n);
                let text = std::fs::read_to_string(&path).expect("fixture readable");
                (path, text)
            })
            .collect(),
    )
}

#[test]
fn known_dirty_fixtures_fire_their_seeded_rules() {
    let analysis = lockcheck_corpus(&fixture_corpus(&[
        "lock_clean.rs",
        "lock_cycle.rs",
        "lock_blocking.rs",
    ]));
    let by_rule = |rule: Rule, file: &str| {
        analysis
            .findings
            .iter()
            .filter(|f| f.rule == rule && f.file.to_string_lossy().ends_with(file))
            .count()
    };
    assert_eq!(
        by_rule(Rule::LockOrderCycle, "lock_cycle.rs"),
        1,
        "{:#?}",
        analysis.findings
    );
    assert_eq!(
        by_rule(Rule::LockAcrossBlocking, "lock_blocking.rs"),
        1,
        "{:#?}",
        analysis.findings
    );
    // The clean fixture contributes nothing; no cross-contamination.
    assert_eq!(analysis.findings.len(), 2, "{:#?}", analysis.findings);
}

#[test]
fn dirty_findings_carry_class_and_item_keys() {
    let analysis = lockcheck_corpus(&fixture_corpus(&["lock_blocking.rs"]));
    assert_eq!(analysis.findings.len(), 1, "{:#?}", analysis.findings);
    let f = &analysis.findings[0];
    assert_eq!(f.rule, Rule::LockAcrossBlocking);
    assert_eq!(f.class.as_deref(), Some("Cache.slots"));
    assert_eq!(f.item.as_deref(), Some("refresh"));
    assert!(f.detail.contains("thread sleep"), "{f:#?}");
}

#[test]
fn known_clean_fixture_is_silent_but_witnesses_its_edge() {
    let analysis = lockcheck_corpus(&fixture_corpus(&["lock_clean.rs"]));
    assert!(analysis.findings.is_empty(), "{:#?}", analysis.findings);
    // The consistent entries-then-totals nesting is recorded as an edge
    // without ever becoming a cycle.
    assert_eq!(analysis.graph.edges().len(), 1);
    let e = &analysis.graph.edges()[0];
    assert_eq!(
        (e.from.as_str(), e.to.as_str()),
        ("Ledger.entries", "Ledger.totals")
    );
    assert!(analysis.graph.cycles().is_empty());
}

#[test]
fn guard_handoff_and_in_memory_append_are_not_holds() {
    // `q = ready.wait(q)` hands the guard to the condvar, and `.append`
    // on a receiver that is not `wal` is not the group-commit seam; the
    // classes are still extracted, and nothing nests.
    let analysis = lockcheck_corpus(&fixture_corpus(&["lock_handoff.rs"]));
    assert!(analysis.findings.is_empty(), "{:#?}", analysis.findings);
    assert_eq!(
        analysis.graph.nodes(),
        ["Inbox.queue", "Inbox.ready", "Inbox.tail"]
    );
    assert!(analysis.graph.edges().is_empty());
}

#[test]
fn lock_graph_dot_matches_golden_file() {
    let analysis = lockcheck_corpus(&fixture_corpus(&[
        "lock_clean.rs",
        "lock_cycle.rs",
        "lock_blocking.rs",
    ]));
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lock_graph.dot");
    let golden = std::fs::read_to_string(&golden_path).expect("read golden DOT");
    assert_eq!(
        analysis.graph.to_dot(),
        golden,
        "lock-order graph drifted from tests/golden/lock_graph.dot — if the \
         fixture change is intentional, paste the generated DOT above into \
         the golden file"
    );
}

fn run_lint(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_aodb-lint"))
        .args(args)
        .output()
        .expect("aodb-lint runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn lint_binary_reports_both_lock_rules_on_fixtures() {
    let dir = fixtures_dir();
    let (ok, text) = run_lint(&["--src", dir.to_str().unwrap(), "--pass", "lock"]);
    assert!(!ok, "seeded lock fixtures must fail the lint:\n{text}");
    assert!(text.contains("lock-order-cycle"), "{text}");
    assert!(text.contains("lock-across-blocking"), "{text}");
}

#[test]
fn lint_binary_dumps_the_workspace_lock_graph() {
    // Over the real tree (with its baseline) the run is clean and the
    // DOT dump carries the one canonical nesting: the store's writer
    // lock over its index lock.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let baseline = root.join("analysis-baseline.toml");
    // All passes run: skipping verify would strand the baseline's drift
    // entry as stale and fail the run.
    let (ok, text) = run_lint(&["--baseline", baseline.to_str().unwrap(), "--lock-dot", "-"]);
    assert!(
        ok,
        "workspace lockcheck must be clean under its baseline:\n{text}"
    );
    assert!(text.contains("digraph lock_order"), "{text}");
    assert!(
        text.contains("\"LogStore.writer\" -> \"LogStore.index\""),
        "canonical writer-over-index edge missing:\n{text}"
    );
}

//! End-to-end tests for the aodb-replaycheck pass: the known-dirty
//! fixtures must fire exactly their seeded rules with the right
//! class/item keys, the known-clean fixture must stay silent, the JSON
//! findings dump must match its golden file, and the `aodb-lint` binary
//! must gate on (and be releasable from) the new rules.

use std::path::PathBuf;
use std::process::Command;

use aodb_analysis::{replaycheck_corpus, Corpus, Rule};

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

const REPLAY_FIXTURES: &[&str] = &[
    "replay_clean.rs",
    "replay_nondet.rs",
    "replay_unordered_state.rs",
    "replay_clock.rs",
];

#[test]
fn known_dirty_fixtures_fire_their_seeded_rules() {
    let findings = replaycheck_corpus(&fixture_corpus(REPLAY_FIXTURES));
    let by_rule = |rule: Rule, file: &str| {
        findings
            .iter()
            .filter(|f| f.rule == rule && f.file.to_string_lossy().ends_with(file))
            .count()
    };
    assert_eq!(
        by_rule(Rule::NondetInTurn, "replay_nondet.rs"),
        2,
        "{findings:#?}"
    );
    assert_eq!(
        by_rule(Rule::AmbientClock, "replay_clock.rs"),
        2,
        "{findings:#?}"
    );
    assert_eq!(
        by_rule(Rule::UnorderedPersistedState, "replay_unordered_state.rs"),
        1,
        "{findings:#?}"
    );
    // The clean fixture contributes nothing; no cross-contamination.
    assert_eq!(findings.len(), 5, "{findings:#?}");
}

#[test]
fn nondet_findings_carry_class_and_item_keys() {
    let findings = replaycheck_corpus(&fixture_corpus(&["replay_nondet.rs"]));
    assert_eq!(findings.len(), 2, "{findings:#?}");
    // Iteration-order leak: the class names the unordered collection.
    let iter = &findings[0];
    assert_eq!(iter.rule, Rule::NondetInTurn);
    assert_eq!(iter.item.as_deref(), Some("handle"));
    assert_eq!(iter.class.as_deref(), Some("RFlusher.buffers"));
    assert!(iter.detail.contains("send payload"), "{iter:#?}");
    // RNG into persisted state: no collection class, fn item only.
    let rng = &findings[1];
    assert_eq!(rng.rule, Rule::NondetInTurn);
    assert_eq!(rng.item.as_deref(), Some("handle"));
    assert!(rng.detail.contains("thread_rng"), "{rng:#?}");
    assert!(rng.detail.contains("persisted write"), "{rng:#?}");
}

#[test]
fn clock_findings_reach_one_helper_call_deep() {
    let findings = replaycheck_corpus(&fixture_corpus(&["replay_clock.rs"]));
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert_eq!(findings[0].item.as_deref(), Some("handle"));
    assert!(findings[0].detail.contains("Instant::now"), "{findings:#?}");
    assert_eq!(findings[1].item.as_deref(), Some("stamp"));
    assert!(
        findings[1].detail.contains("SystemTime::now"),
        "{findings:#?}"
    );
}

#[test]
fn unordered_state_finding_names_the_field() {
    let findings = replaycheck_corpus(&fixture_corpus(&["replay_unordered_state.rs"]));
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.rule, Rule::UnorderedPersistedState);
    assert_eq!(f.item.as_deref(), Some("RCacheState.seen"));
    assert!(f.detail.contains("BTreeMap"), "{f:#?}");
}

#[test]
fn known_clean_fixture_is_silent() {
    // Ordered iteration into sends, keyed HashMap access, ordered
    // persisted state, and `ctx.now()` must none of them fire.
    let findings = replaycheck_corpus(&fixture_corpus(&["replay_clean.rs"]));
    assert!(findings.is_empty(), "{findings:#?}");
}

fn run_lint_in(dir: &PathBuf, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_aodb-lint"))
        .current_dir(dir)
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
fn json_findings_dump_matches_golden_file() {
    // Run from the crate root so finding paths are stable relative ones.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let (ok, text) = run_lint_in(
        &manifest,
        &["--src", "tests/fixtures", "--pass", "replay", "--json"],
    );
    assert!(!ok, "seeded replay fixtures must fail the lint:\n{text}");
    let got: Vec<&str> = text.lines().filter(|l| l.starts_with('{')).collect();
    let golden_path = manifest.join("tests/golden/replay_findings.jsonl");
    let golden = std::fs::read_to_string(&golden_path).expect("read golden JSONL");
    let want: Vec<&str> = golden.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(
        got, want,
        "replaycheck JSON drifted from tests/golden/replay_findings.jsonl — \
         if the fixture change is intentional, paste the generated lines \
         above into the golden file"
    );
}

#[test]
fn lint_binary_reports_all_three_replay_rules_on_fixtures() {
    let dir = fixtures_dir();
    let (ok, text) = run_lint_in(&dir, &["--src", ".", "--pass", "replay,schema"]);
    assert!(!ok, "seeded replay fixtures must fail the lint:\n{text}");
    assert!(text.contains("nondet-in-turn"), "{text}");
    assert!(text.contains("ambient-clock"), "{text}");
    assert!(text.contains("unordered-persisted-state"), "{text}");
}

#[test]
fn deselecting_replay_releases_the_gate() {
    // Same dirty tree with no source pass selected: nothing left to
    // fire, so the run is clean.
    let dir = fixtures_dir();
    let (ok, text) = run_lint_in(&dir, &["--src", ".", "--pass", "none"]);
    assert!(ok, "`--pass none` must release the gate:\n{text}");
    assert!(text.contains("aodb-lint: clean"), "{text}");
}

#[test]
fn emit_baseline_prints_paste_ready_skeletons() {
    let dir = fixtures_dir();
    let (ok, text) = run_lint_in(
        &dir,
        &["--src", ".", "--pass", "replay,schema", "--emit-baseline"],
    );
    assert!(!ok, "dirty fixtures still fail even when emitting:\n{text}");
    assert!(text.contains("[[suppress]]"), "{text}");
    assert!(text.contains("reason = \"\""), "{text}");
    assert!(
        text.contains("item = \"RCacheState.seen\""),
        "skeleton must carry the finding's item key:\n{text}"
    );
    // One skeleton per (rule, file, item): the two ambient-clock
    // findings live in different fns, so both survive the dedup.
    assert_eq!(
        text.matches("rule = \"ambient-clock\"").count(),
        2,
        "{text}"
    );
}

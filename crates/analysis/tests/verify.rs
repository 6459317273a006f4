//! End-to-end tests for the aodb-verify passes and the `aodb-lint`
//! binary: seeded-bug fixtures must be caught (nonzero exit), clean
//! fixtures must stay silent, and the baseline must both suppress and
//! go stale correctly.

use std::path::PathBuf;
use std::process::Command;

use aodb_analysis::{verify_corpus, Corpus, Rule};

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
fn seeded_bugs_are_each_detected() {
    let findings = verify_corpus(&Corpus::load(&[fixtures_dir()]).expect("fixtures walkable"));
    let by_rule = |rule: Rule, file: &str| {
        findings
            .iter()
            .filter(|f| f.rule == rule && f.file.to_string_lossy().ends_with(file))
            .count()
    };
    assert_eq!(
        by_rule(Rule::DeclarationDriftMissing, "drift_missing.rs"),
        2,
        "{findings:#?}"
    );
    assert_eq!(
        by_rule(Rule::DeclarationDriftStale, "drift_stale.rs"),
        1,
        "{findings:#?}"
    );
    assert_eq!(
        by_rule(Rule::ReplyLeak, "reply_leak.rs"),
        1,
        "{findings:#?}"
    );
    // The stale fixture's declared send edge is exercised; only the
    // retired call edge fires. The missing fixture's empty declaration
    // list has nothing to go stale. No cross-contamination.
    assert_eq!(findings.len(), 4, "{findings:#?}");
}

#[test]
fn clean_fixtures_are_silent() {
    let corpus = fixture_corpus(&["drift_clean.rs", "reply_clean.rs"]);
    let findings = verify_corpus(&corpus);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn seeded_drift_details_name_the_actors() {
    let corpus = fixture_corpus(&["drift_missing.rs"]);
    let findings = verify_corpus(&corpus);
    assert_eq!(findings.len(), 2);
    assert!(findings[0].detail.contains("fix.producer"));
    assert!(findings[1].detail.contains("fix.broadcaster"));
    // The loop over minted references resolves to their type, not to a
    // dynamic recipient.
    assert!(findings.iter().all(|f| f.detail.contains("fix.sink")));
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
fn lint_binary_fails_on_seeded_fixtures() {
    let dir = fixtures_dir();
    let (ok, text) = run_lint(&["--src", dir.to_str().unwrap()]);
    assert!(!ok, "seeded fixtures must fail the lint:\n{text}");
    for rule in [
        "declaration-drift-missing",
        "declaration-drift-stale",
        "reply-leak",
        "lock-order-cycle",
        "lock-across-blocking",
        "nondet-in-turn",
        "unordered-persisted-state",
        "ambient-clock",
        "ack-before-commit",
        "schema-unversioned",
        "guard-across-wait",
        "blocking-in-collector",
        "std-sync-primitive",
    ] {
        assert!(text.contains(rule), "missing {rule} in:\n{text}");
    }
}

#[test]
fn lint_binary_baseline_suppresses_and_goes_stale() {
    let dir = fixtures_dir();
    let tmp = std::env::temp_dir().join(format!("aodb-baseline-{}.toml", std::process::id()));

    // A baseline covering every seeded finding makes the run pass.
    std::fs::write(
        &tmp,
        "[[suppress]]\n\
         rule = \"declaration-drift-missing\"\n\
         reason = \"seeded fixture\"\n\
         file = \"drift_missing.rs\"\n\
         [[suppress]]\n\
         rule = \"declaration-drift-stale\"\n\
         reason = \"seeded fixture\"\n\
         file = \"drift_stale.rs\"\n\
         [[suppress]]\n\
         rule = \"reply-leak\"\n\
         reason = \"seeded fixture\"\n\
         [[suppress]]\n\
         rule = \"lock-order-cycle\"\n\
         reason = \"seeded fixture\"\n\
         file = \"lock_cycle.rs\"\n\
         [[suppress]]\n\
         rule = \"lock-across-blocking\"\n\
         reason = \"seeded fixture\"\n\
         file = \"lock_blocking.rs\"\n\
         item = \"refresh\"\n\
         [[suppress]]\n\
         rule = \"nondet-in-turn\"\n\
         reason = \"seeded fixture\"\n\
         file = \"replay_nondet.rs\"\n\
         [[suppress]]\n\
         rule = \"unordered-persisted-state\"\n\
         reason = \"seeded fixture\"\n\
         file = \"replay_unordered_state.rs\"\n\
         [[suppress]]\n\
         rule = \"ambient-clock\"\n\
         reason = \"seeded fixture\"\n\
         file = \"replay_clock.rs\"\n\
         [[suppress]]\n\
         rule = \"ack-before-commit\"\n\
         reason = \"seeded fixture\"\n\
         file = \"durability_dirty.rs\"\n\
         [[suppress]]\n\
         rule = \"schema-unversioned\"\n\
         reason = \"seeded fixture\"\n\
         file = \"schema_unversioned.rs\"\n\
         [[suppress]]\n\
         rule = \"guard-across-wait\"\n\
         reason = \"seeded fixture\"\n\
         file = \"turn_dirty.rs\"\n\
         [[suppress]]\n\
         rule = \"blocking-in-collector\"\n\
         reason = \"seeded fixture\"\n\
         file = \"turn_dirty.rs\"\n\
         item = \"fan_in\"\n\
         [[suppress]]\n\
         rule = \"std-sync-primitive\"\n\
         reason = \"seeded fixture\"\n\
         file = \"turn_dirty.rs\"\n",
    )
    .unwrap();
    let (ok, text) = run_lint(&[
        "--src",
        dir.to_str().unwrap(),
        "--baseline",
        tmp.to_str().unwrap(),
    ]);
    assert!(ok, "fully-baselined fixtures must pass:\n{text}");
    assert!(text.contains("13 suppressed"), "{text}");

    // An entry that matches nothing is stale and fails the run even
    // when every finding is suppressed.
    std::fs::write(
        &tmp,
        "[[suppress]]\n\
         rule = \"declaration-drift-missing\"\n\
         reason = \"seeded fixture\"\n\
         [[suppress]]\n\
         rule = \"declaration-drift-stale\"\n\
         reason = \"seeded fixture\"\n\
         [[suppress]]\n\
         rule = \"reply-leak\"\n\
         reason = \"seeded fixture\"\n\
         [[suppress]]\n\
         rule = \"guard-across-wait\"\n\
         reason = \"this never fires and must be reported stale\"\n\
         file = \"turn_clean.rs\"\n",
    )
    .unwrap();
    let (ok, text) = run_lint(&[
        "--src",
        dir.to_str().unwrap(),
        "--baseline",
        tmp.to_str().unwrap(),
    ]);
    assert!(!ok, "stale baseline entry must fail the lint:\n{text}");
    assert!(text.contains("stale baseline entry"), "{text}");

    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn workspace_passes_with_the_checked_in_baseline() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let baseline = root.join("analysis-baseline.toml");
    let (ok, text) = run_lint(&[
        "--src",
        root.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    assert!(ok, "workspace must be clean under its baseline:\n{text}");
}

#[test]
fn malformed_baseline_is_a_hard_error() {
    let dir = fixtures_dir();
    let tmp = std::env::temp_dir().join(format!("aodb-badbase-{}.toml", std::process::id()));
    std::fs::write(&tmp, "[[suppress]]\nrule = \"reply-leak\"\n").unwrap();
    let (ok, text) = run_lint(&[
        "--src",
        dir.to_str().unwrap(),
        "--baseline",
        tmp.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(text.contains("reason"), "{text}");
    let _ = std::fs::remove_file(&tmp);
}

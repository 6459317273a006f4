//! End-to-end tests for the aodb-schemacheck passes and their `aodb-lint`
//! wiring: drift against a committed lockfile, stale lock entries,
//! unversioned formats, the ack-before-commit dataflow, the golden
//! lockfile round-trip, and the `--write-schema-lock` workflow.

use std::path::PathBuf;
use std::process::Command;

use aodb_analysis::{durability, schema, schemacheck_corpus, Corpus, Rule, SchemaLock};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

fn golden_lock_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("schema.lock.golden")
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
fn clean_fixtures_are_silent_without_a_lock() {
    let corpus = fixture_corpus(&["schema_clean.rs", "durability_clean.rs"]);
    let findings = schemacheck_corpus(&corpus, None);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn dirty_fixtures_fire_their_rules() {
    let corpus = fixture_corpus(&["schema_unversioned.rs", "durability_dirty.rs"]);
    let findings = schemacheck_corpus(&corpus, None);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule.name()).collect();
    assert_eq!(
        rules,
        ["ack-before-commit", "schema-unversioned"],
        "{findings:#?}"
    );
}

#[test]
fn drift_fires_against_the_golden_lock() {
    // The golden lock pins DriftState at its previous layout and still
    // lists GoneState, which no fixture defines any more.
    let lock = SchemaLock::load(&golden_lock_path()).expect("golden lock parses");
    // Every fixture the golden lock covers, so only the seeded drift
    // (DriftState) and the seeded stale entry (GoneState) fire.
    let corpus = fixture_corpus(&[
        "schema_clean.rs",
        "schema_drift.rs",
        "schema_unversioned.rs",
        "replay_clean.rs",
        "replay_unordered_state.rs",
    ]);
    let findings = schema::schema_findings(&corpus, Some(&lock));
    let drift: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::SchemaDrift)
        .collect();
    assert_eq!(drift.len(), 2, "{findings:#?}");
    let changed = drift
        .iter()
        .find(|f| f.item.as_deref() == Some("DriftState"))
        .expect("DriftState drift");
    assert!(changed.detail.contains("changed without a lockfile update"));
    let stale = drift
        .iter()
        .find(|f| f.item.as_deref() == Some("GoneState"))
        .expect("GoneState stale entry");
    assert!(stale.detail.contains("stale lockfile entry"));
    // MeterState matches its pinned fingerprint: no finding for it.
    assert!(!drift
        .iter()
        .any(|f| f.item.as_deref() == Some("MeterState")));
}

#[test]
fn golden_lock_roundtrips_byte_identically() {
    let path = golden_lock_path();
    let text = std::fs::read_to_string(&path).expect("golden readable");
    let lock = SchemaLock::load(&path).expect("golden parses");
    assert_eq!(
        lock.render(),
        text,
        "golden lockfile must be in render form"
    );
}

#[test]
fn ack_findings_pin_the_commit_line() {
    let corpus = fixture_corpus(&["durability_dirty.rs"]);
    let findings = durability::ack_findings(&corpus.files[0]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, Rule::AckBeforeCommit);
    // The finding anchors at the mutate, and names the deliver line.
    assert!(findings[0].excerpt.contains("mutate"), "{findings:#?}");
    assert!(findings[0].detail.contains("delivers its reply on line"));
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
fn lint_binary_fails_on_stale_or_drifted_lock() {
    let dir = fixtures_dir();
    let (ok, text) = run_lint(&[
        "--src",
        dir.to_str().unwrap(),
        "--schema-lock",
        golden_lock_path().to_str().unwrap(),
        "--pass",
        "schema",
    ]);
    assert!(!ok, "drifted lock must fail the lint:\n{text}");
    assert!(text.contains("schema-drift"), "{text}");
    assert!(text.contains("DriftState"), "{text}");
    assert!(text.contains("stale lockfile entry"), "{text}");
    assert!(text.contains("GoneState"), "{text}");
}

#[test]
fn write_schema_lock_then_check_is_drift_free() {
    let dir = fixtures_dir();
    let tmp = std::env::temp_dir().join(format!("aodb-schemalock-{}.lock", std::process::id()));
    let (_, text) = run_lint(&[
        "--src",
        dir.to_str().unwrap(),
        "--write-schema-lock",
        tmp.to_str().unwrap(),
        "--pass",
        "schema",
    ]);
    // The freshly written lock is used for the same run's check: the
    // seeded unversioned/ack findings still fire, but nothing drifts.
    assert!(text.contains("wrote"), "{text}");
    assert!(!text.contains("schema-drift"), "{text}");
    let written = std::fs::read_to_string(&tmp).expect("lock written");
    let lock = SchemaLock::parse(&written).expect("written lock parses");
    assert!(lock
        .entries
        .iter()
        .any(|e| e.name == "MeterState" && e.file == "schema_clean.rs"));
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn missing_lock_file_is_a_hard_error() {
    let dir = fixtures_dir();
    let (ok, text) = run_lint(&[
        "--src",
        dir.to_str().unwrap(),
        "--schema-lock",
        "/nonexistent/schema.lock",
        "--pass",
        "schema",
    ]);
    assert!(!ok);
    assert!(text.contains("cannot read"), "{text}");
}

#[test]
fn deselecting_schema_gates_the_passes_off() {
    let dir = fixtures_dir();
    let (_, text) = run_lint(&["--src", dir.to_str().unwrap(), "--pass", "none"]);
    assert!(!text.contains("aodb-schemacheck:"), "{text}");
    assert!(!text.contains("ack-before-commit"), "{text}");
    assert!(!text.contains("schema-unversioned"), "{text}");
}

#[test]
fn workspace_lock_is_up_to_date() {
    // The committed schema.lock must match the current corpus — the
    // same assertion CI makes. A failure here means a persisted layout
    // changed without `--write-schema-lock schema.lock`.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let committed = std::fs::read_to_string(root.join("schema.lock")).expect("schema.lock exists");
    let roots: Vec<PathBuf> = ["shm", "cattle", "core", "store"]
        .iter()
        .map(|k| root.join("crates").join(k).join("src"))
        .collect();
    let corpus = Corpus::load(&roots).expect("workspace corpus loads");
    assert_eq!(
        schema::compute_lock(&corpus).render(),
        committed,
        "schema.lock is stale — regenerate with --write-schema-lock schema.lock \
         and review the migration story"
    );
}

//! End-to-end tests of the `aodb-lint` binary: the real workspace must be
//! clean, and a fixture with a deliberate synchronous-call cycle must be
//! rejected with the cycle path named.

use std::path::Path;
use std::process::Command;

fn lint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aodb-lint"))
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .display()
        .to_string()
}

#[test]
fn workspace_is_clean() {
    // Clean under the checked-in baseline (which carries the one
    // deliberate drift in tests/enforcement.rs); without a baseline that
    // finding fires, which `verify.rs` covers separately.
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../analysis-baseline.toml")
        .display()
        .to_string();
    let out = lint()
        .args(["--baseline", &baseline])
        .output()
        .expect("spawn aodb-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "aodb-lint failed on the workspace:\n{stdout}\n{stderr}"
    );
    assert!(stdout.contains("no synchronous-call cycles"), "{stdout}");
    assert!(stdout.contains("aodb-lint: clean"), "{stdout}");
}

#[test]
fn sync_cycle_fixture_is_rejected_with_path() {
    let out = lint()
        .args(["--graph", &fixture("sync_cycle.edges"), "--pass", "none"])
        .output()
        .expect("spawn aodb-lint");
    assert!(
        !out.status.success(),
        "aodb-lint accepted a topology with a synchronous-call cycle"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("synchronous call cycle"), "{stderr}");
    // The full cycle path is named, with every member present.
    for actor in ["shm.organization", "shm.channel", "shm.aggregator"] {
        assert!(
            stderr.contains(actor),
            "cycle member {actor} missing:\n{stderr}"
        );
    }
    // The bystander edge is not part of any report.
    assert!(!stderr.contains("ingest-gateway"), "{stderr}");
}

#[test]
fn acyclic_fixture_passes() {
    let out = lint()
        .args(["--graph", &fixture("acyclic.edges"), "--pass", "none"])
        .output()
        .expect("spawn aodb-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("aodb-lint: clean"), "{stdout}");
}

/// The string value of `"key":"..."` in one `--json` record.
fn json_field<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line.find(&format!("\"{key}\":\"")).expect("key present") + key.len() + 4;
    &line[start..start + line[start..].find('"').expect("closing quote")]
}

#[test]
fn turn_rules_fire_on_the_dirty_fixture_and_nowhere_else() {
    // Run from the crate root so finding paths are stable relative ones.
    let out = lint()
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["--src", "tests/fixtures", "--pass", "turn", "--json"])
        .output()
        .expect("spawn aodb-lint");
    assert!(!out.status.success(), "seeded turn fixture must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let got: Vec<(&str, &str, &str)> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| {
            (
                json_field(l, "file"),
                json_field(l, "rule"),
                json_field(l, "class"),
            )
        })
        .collect();
    // Every seeded rule with its enclosing item as the baseline key. The
    // clean fixture is silent: scoped and dropped guards, a `tell` in a
    // fan-in, `allow` markers on the line and on the line above, and
    // `.call(` / `std::sync::` text inside a raw string and a nested
    // block comment (which only a lexer gets right) all stay quiet.
    let dirty = "tests/fixtures/turn_dirty.rs";
    assert_eq!(
        got,
        [
            (dirty, "std-sync-primitive", ""),
            (dirty, "guard-across-wait", "lookup_under_guard"),
            (dirty, "guard-across-wait", "await_under_guard"),
            (dirty, "blocking-in-collector", "fan_in"),
        ],
        "{stdout}"
    );
}

#[test]
fn dot_output_matches_golden_file() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/call_graph.dot");
    let golden = std::fs::read_to_string(&golden_path).expect("read golden DOT");
    let generated = aodb_analysis::workspace_graph().to_dot();
    assert_eq!(
        generated, golden,
        "workspace call graph drifted from tests/golden/call_graph.dot — \
         if the topology change is intentional, regenerate with \
         `cargo run -p aodb-analysis --bin aodb-lint -- --dot \
         crates/analysis/tests/golden/call_graph.dot --pass none` and update \
         the DESIGN.md embedding"
    );
}

//! End-to-end tests of the `aodb-lint` binary: the real workspace must be
//! clean, and a fixture with a deliberate synchronous-call cycle must be
//! rejected with the cycle path named.

use std::path::Path;
use std::process::Command;

use aodb_analysis::{CallGraph, Corpus, ACTOR_CRATES};

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

/// Two actors whose handlers call each other, each call declared.
const PING_PONG: &str = r#"
struct Ping;
struct Pong;
struct Hit;

impl Actor for Ping {
    const TYPE_NAME: &'static str = "cycle.ping";
    fn declared_calls() -> &'static [CallDecl] {
        const CALLS: &[CallDecl] = &[CallDecl::call("cycle.pong")];
        CALLS
    }
}

impl Actor for Pong {
    const TYPE_NAME: &'static str = "cycle.pong";
    fn declared_calls() -> &'static [CallDecl] {
        const CALLS: &[CallDecl] = &[CallDecl::call("cycle.ping")];
        CALLS
    }
}

impl Handler<Hit> for Ping {
    fn handle(&mut self, msg: Hit, ctx: &mut ActorContext<'_>) -> u32 {
        ctx.actor_ref::<Pong>("pong").call(msg).unwrap_or(0)
    }
}

impl Handler<Hit> for Pong {
    fn handle(&mut self, msg: Hit, ctx: &mut ActorContext<'_>) -> u32 {
        ctx.actor_ref::<Ping>("ping").call(msg).unwrap_or(0)
    }
}
"#;

#[test]
fn source_declared_sync_cycle_is_rejected_under_src() {
    // A tree of its own, so no fixture-tree run reads it.
    let dir = std::env::temp_dir().join(format!("aodb-ping-pong-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp tree");
    std::fs::write(dir.join("ping_pong.rs"), PING_PONG).expect("write actors");
    let run = |pass: &str| {
        lint()
            .args(["--src", dir.to_str().unwrap(), "--pass", pass])
            .output()
            .expect("spawn aodb-lint")
    };
    let (graph, verify) = (run("none"), run("verify"));
    let _ = std::fs::remove_dir_all(&dir);

    let stderr = String::from_utf8_lossy(&graph.stderr);
    assert_eq!(graph.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("reentrancy deadlock"), "{stderr}");
    assert!(stderr.contains("cycle.ping") && stderr.contains("cycle.pong"));
    // The declarations match the call sites: the cycle is the only
    // finding, not drift.
    let text = String::from_utf8_lossy(&verify.stderr);
    assert!(!text.contains("declaration-drift"), "{text}");
    assert!(text.contains("1 violation(s)"), "{text}");
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
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let corpus = Corpus::load(&[root]).expect("read the workspace");
    let generated = CallGraph::from_corpus(&corpus.scope(ACTOR_CRATES)).to_dot();
    assert_eq!(
        generated, golden,
        "workspace call graph drifted from tests/golden/call_graph.dot — \
         if the topology change is intentional, regenerate with \
         `cargo run -p aodb-analysis --bin aodb-lint -- --dot \
         crates/analysis/tests/golden/call_graph.dot --pass none` and update \
         the DESIGN.md embedding"
    );
}

//! `aodb-lint` — static checks for the actor workspace.
//!
//! ```text
//! aodb-lint [--graph <edge-list>] [--dot <path>] [--src <dir>]
//!           [--baseline <file>] [--json] [--lock-dot <path>]
//!           [--pass <name>[,<name>...]] [--emit-baseline]
//!           [--schema-lock <file>] [--write-schema-lock <path>]
//! ```
//!
//! With no arguments: builds the whole-workspace call graph from the
//! crates' declared topologies, rejects synchronous-call cycles, then
//! reads and parses the workspace tree once — `src/`, `tests/`,
//! `examples/` and `benches/` alike — and runs the five source passes
//! of [`PASSES`] over it, each on the crates it audits. Exits nonzero
//! on any violation.
//!
//! * `--graph <file>` — analyze a fixture edge list (`FROM call|send TO`
//!   per line) instead of the compiled-in workspace topology.
//! * `--dot <path>` — write the graph as Graphviz DOT (`-` for stdout).
//! * `--src <dir>` — root for the source passes (default: the workspace
//!   root, so crate `tests/` and `examples/` are covered; may be
//!   repeated).
//! * `--baseline <file>` — suppression file (`[[suppress]]` entries with
//!   mandatory `rule`/`reason`); non-matching findings still fail, and a
//!   baseline entry that matches nothing fails as *stale*.
//! * `--json` — emit findings as JSON lines on stdout; every rule emits
//!   the same `{rule, file, line, class, message}` record shape.
//! * `--lock-dot <path>` — write the lock-order graph as DOT (`-` for
//!   stdout).
//! * `--pass <name>[,<name>...]` — run only the named source passes
//!   (`turn`, `verify`, `lock`, `replay`, `schema`; default: all; `none`
//!   runs the call-graph check alone).
//! * `--schema-lock <file>` — lockfile for the schema-drift check
//!   (default: `schema.lock` at the workspace root, when present; with
//!   no lockfile the drift check is skipped and only the unversioned
//!   and ack rules run).
//! * `--write-schema-lock <path>` — the `schema` pass first regenerates
//!   the lockfile from the current corpus (the layout-change workflow),
//!   then checks against it.
//! * `--emit-baseline` — after the summary, print ready-to-paste
//!   `[[suppress]]` TOML skeletons (with empty `reason = ""`) for every
//!   active finding, so accepting a finding into the baseline is a
//!   paste-plus-justify edit instead of hand transcription.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use aodb_analysis::{
    lockcheck_corpus, replaycheck_corpus, schema, schemacheck_corpus, turn_findings, verify_corpus,
    workspace_graph, Baseline, CallGraph, Corpus, Finding, SchemaLock,
};

struct Options {
    graph_file: Option<PathBuf>,
    dot: Option<PathBuf>,
    lock_dot: Option<PathBuf>,
    /// Roots of the source passes (the workspace root when no `--src`).
    src: Vec<PathBuf>,
    baseline: Option<PathBuf>,
    json: bool,
    /// Names of the source passes to run, in [`PASSES`] order.
    passes: Vec<&'static str>,
    schema_lock: Option<PathBuf>,
    write_schema_lock: Option<PathBuf>,
    emit_baseline: bool,
}

/// A pass's findings, or a usage/IO failure (exit 2).
type PassResult = Result<Vec<Finding>, String>;

/// One source pass: what it is called on the command line, which crates'
/// `src/` trees of a workspace root it audits (empty = the whole root),
/// and how to run it over that scope of the corpus. A pass prints its
/// own summary line.
struct Pass {
    name: &'static str,
    scope: &'static [&'static str],
    run: fn(&Corpus, &Options) -> PassResult,
}

/// The source passes, in run (and report) order. The scopes are part of
/// each pass's meaning — name resolution is corpus-relative:
///
/// * `turn`, `verify` — turn discipline and declaration drift / reply
///   obligations hold everywhere, test and example code included;
/// * `lock` — lock order and guards across blocking work are a
///   discipline of the runtime substrate (application handlers and test
///   code follow different ones);
/// * `replay` — turn determinism is an actor-code discipline (bench and
///   test harnesses may freely read clocks and RNG);
/// * `schema` — the crates that define persisted state or on-disk
///   formats: the actors plus the store engine.
const PASSES: &[Pass] = &[
    Pass {
        name: "turn",
        scope: &[],
        run: |corpus, _| Ok(turn_findings(corpus)),
    },
    Pass {
        name: "verify",
        scope: &[],
        run: |corpus, _| {
            let f = verify_corpus(corpus);
            println!("aodb-verify: {} raw finding(s) across the corpus", f.len());
            Ok(f)
        },
    },
    Pass {
        name: "lock",
        scope: &["runtime", "store", "chaos"],
        run: run_lock,
    },
    Pass {
        name: "replay",
        scope: &["shm", "cattle", "core"],
        run: |corpus, _| {
            let f = replaycheck_corpus(corpus);
            println!(
                "aodb-replaycheck: {} raw finding(s) across the actor crates",
                f.len()
            );
            Ok(f)
        },
    },
    Pass {
        name: "schema",
        scope: &["shm", "cattle", "core", "store"],
        run: run_schema,
    },
];

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        graph_file: None,
        dot: None,
        lock_dot: None,
        src: Vec::new(),
        baseline: None,
        json: false,
        passes: PASSES.iter().map(|p| p.name).collect(),
        schema_lock: None,
        write_schema_lock: None,
        emit_baseline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // The path (or list) operand of the flag being parsed.
        let mut value = || args.next().ok_or(format!("{arg} needs an argument"));
        match arg.as_str() {
            "--graph" => opts.graph_file = Some(value()?.into()),
            "--dot" => opts.dot = Some(value()?.into()),
            "--lock-dot" => opts.lock_dot = Some(value()?.into()),
            "--src" => opts.src.push(value()?.into()),
            "--baseline" => opts.baseline = Some(value()?.into()),
            "--schema-lock" => opts.schema_lock = Some(value()?.into()),
            "--write-schema-lock" => opts.write_schema_lock = Some(value()?.into()),
            "--json" => opts.json = true,
            "--pass" => {
                opts.passes.clear();
                for name in value()?.split(',').filter(|n| *n != "none") {
                    let pass = PASSES.iter().find(|p| p.name == name).ok_or_else(|| {
                        let known: Vec<_> = PASSES.iter().map(|p| p.name).collect();
                        format!("unknown pass `{name}` (known: {}, none)", known.join(", "))
                    })?;
                    opts.passes.push(pass.name);
                }
            }
            "--emit-baseline" => opts.emit_baseline = true,
            "--help" | "-h" => {
                println!(
                    "aodb-lint [--graph <edge-list>] [--dot <path>] [--src <dir>] \
                     [--baseline <file>] [--json] [--lock-dot <path>] \
                     [--pass <name>[,<name>...]] [--emit-baseline] \
                     [--schema-lock <file>] [--write-schema-lock <path>]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.src.is_empty() {
        let root = default_src_root().ok_or("cannot locate the workspace root (pass --src)")?;
        opts.src.push(root);
    }
    if opts.write_schema_lock.is_some() && !opts.passes.contains(&"schema") {
        return Err("--write-schema-lock needs the `schema` pass".into());
    }
    Ok(opts)
}

/// Writes a DOT dump to `path` (`-` for stdout).
fn write_dot(path: &Path, dot: String) -> Result<(), String> {
    if path.as_os_str() == "-" {
        print!("{dot}");
        Ok(())
    } else {
        std::fs::write(path, dot).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

fn run_lock(corpus: &Corpus, opts: &Options) -> PassResult {
    let analysis = lockcheck_corpus(corpus);
    println!(
        "aodb-lockcheck: {} lock class(es), {} held-while-acquiring edge(s), \
         {} raw finding(s)",
        analysis.graph.nodes().len(),
        analysis.graph.edges().len(),
        analysis.findings.len()
    );
    if let Some(path) = &opts.lock_dot {
        write_dot(path, analysis.graph.to_dot())?;
    }
    Ok(analysis.findings)
}

fn run_schema(corpus: &Corpus, opts: &Options) -> PassResult {
    if let Some(path) = &opts.write_schema_lock {
        let lock = schema::compute_lock(corpus);
        std::fs::write(path, lock.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "aodb-schemacheck: wrote {} layout fingerprint(s) to {}",
            lock.entries.len(),
            path.display()
        );
    }
    // Lock resolution: explicit flag, else the file just written, else
    // `schema.lock` at a source root when one exists. With no lockfile
    // the drift check is skipped (fixture trees); the unversioned and
    // ack rules always run.
    let lock_path = opts
        .schema_lock
        .clone()
        .or_else(|| opts.write_schema_lock.clone())
        .or_else(|| {
            opts.src.iter().find_map(|r| {
                let p = r.join("schema.lock");
                p.is_file().then_some(p)
            })
        });
    let lock = match &lock_path {
        Some(path) => Some(SchemaLock::load(path).map_err(|e| e.to_string())?),
        None => {
            println!("aodb-schemacheck: no schema.lock found — drift check skipped");
            None
        }
    };
    let f = schemacheck_corpus(corpus, lock.as_ref());
    println!(
        "aodb-schemacheck: {} layout(s) fingerprinted, {} raw finding(s)",
        schema::extract_entries(corpus).len(),
        f.len()
    );
    Ok(f)
}

/// The workspace root, resolved relative to this crate's build-time
/// location so the binary works from any working directory. The root
/// (not `crates/`) is the default so top-level `examples/`, integration
/// `tests/`, and bench code are linted too.
fn default_src_root() -> Option<PathBuf> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent()?.parent()?.to_path_buf();
    root.is_dir().then_some(root)
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn emit(findings: &[Finding], json: bool) {
    for f in findings {
        if json {
            // Uniform record across every rule: lockcheck rules carry
            // their lock class, the others their enclosing item.
            let class = f.class.as_deref().or(f.item.as_deref()).unwrap_or("");
            println!(
                "{{\"rule\":{},\"file\":{},\"line\":{},\"class\":{},\"message\":{}}}",
                json_str(f.rule.name()),
                json_str(&f.file.to_string_lossy()),
                f.line,
                json_str(class),
                json_str(&f.detail),
            );
        } else {
            eprintln!("{f}");
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("aodb-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let graph = match &opts.graph_file {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("aodb-lint: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match CallGraph::parse_edge_list(&text) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("aodb-lint: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        None => workspace_graph(),
    };

    if let Some(dot_path) = &opts.dot {
        if let Err(e) = write_dot(dot_path, graph.to_dot()) {
            eprintln!("aodb-lint: {e}");
            return ExitCode::from(2);
        }
    }

    let baseline = match &opts.baseline {
        Some(path) => match Baseline::load(path) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("aodb-lint: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let mut violations = 0usize;

    println!(
        "call graph: {} actor types, {} declared edges",
        graph.nodes().len(),
        graph.edges().len()
    );
    let cycles = graph.call_cycles();
    if cycles.is_empty() {
        println!("reentrancy: no synchronous-call cycles — topology is deadlock-free");
    } else {
        for cycle in &cycles {
            violations += 1;
            eprintln!(
                "reentrancy deadlock: synchronous call cycle: {} -> {}",
                cycle.join(" -> "),
                cycle[0]
            );
        }
    }

    // One read + lex + parse of the tree; every pass takes its scope of
    // it. Findings are collected across passes and the baseline applied
    // once, so one file can suppress any pass's finding.
    let mut findings: Vec<Finding> = Vec::new();
    if !opts.passes.is_empty() {
        let corpus = match Corpus::load(&opts.src) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("aodb-lint: cannot read the source tree: {e}");
                return ExitCode::from(2);
            }
        };
        for pass in PASSES.iter().filter(|p| opts.passes.contains(&p.name)) {
            match (pass.run)(&corpus.scope(pass.scope), &opts) {
                Ok(f) => findings.extend(f),
                Err(e) => {
                    eprintln!("aodb-lint: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    let (active, stale): (Vec<Finding>, Vec<_>) = match &baseline {
        Some(b) => {
            let (remaining, stale) = b.apply(&findings);
            (remaining, stale)
        }
        None => (findings, Vec::new()),
    };

    emit(&active, opts.json);
    violations += active.len();

    for entry in &stale {
        violations += 1;
        eprintln!(
            "{}:{}: stale baseline entry [{}] (\"{}\") matches no finding — remove it",
            baseline
                .as_ref()
                .map(|b| b.path.display().to_string())
                .unwrap_or_default(),
            entry.defined_at,
            entry.rule,
            entry.reason
        );
    }

    println!(
        "source passes: {} active finding(s), {} suppressed, {} stale baseline entr(ies)",
        active.len(),
        baseline
            .as_ref()
            .map(|b| b.entries.len() - stale.len())
            .unwrap_or(0),
        stale.len()
    );

    if opts.emit_baseline && !active.is_empty() {
        // One skeleton per (rule, file, item) — the baseline's own match
        // key — so repeated findings in one function collapse.
        let mut seen: Vec<(String, String, String)> = Vec::new();
        println!("# ready-to-paste baseline skeletons — fill in every `reason`:");
        for f in &active {
            let file = f.file.to_string_lossy().to_string();
            let item = f.item.clone().unwrap_or_default();
            let key = (f.rule.name().to_string(), file.clone(), item.clone());
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            println!();
            println!("[[suppress]]");
            println!("rule = \"{}\"", f.rule.name());
            println!("file = \"{file}\"");
            if !item.is_empty() {
                println!("item = \"{item}\"");
            }
            println!("reason = \"\"");
        }
    }

    if violations > 0 {
        eprintln!("aodb-lint: {violations} violation(s)");
        ExitCode::FAILURE
    } else {
        println!("aodb-lint: clean");
        ExitCode::SUCCESS
    }
}

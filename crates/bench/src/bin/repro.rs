//! `repro` — regenerates the paper's evaluation figures and the ablation
//! studies.
//!
//! ```text
//! repro [EXPERIMENTS...] [--quick] [--json DIR] [--label NAME] [--bench-out PATH]
//!
//! EXPERIMENTS: all (default) | fig6 | fig7 | fig8 | fig9 | fig89
//!            | dispatch | ingest | placement | granularity | constraints
//! --quick           shorter sweeps and durations (CI-friendly)
//! --json DIR        additionally write each experiment's raw results as JSON
//! --label NAME      record the dispatch and ingest benches under this key
//!                   in their trajectory files (default: "after")
//! --bench-out PATH  dispatch trajectory file (default: BENCH_dispatch.json);
//!                   the ingest experiment always writes BENCH_ingest.json
//! ```

use std::path::PathBuf;

use aodb_bench::experiments::{ablations, dispatch, fig6, fig7, fig89, ingest};

fn write_json<T: serde::Serialize>(dir: &Option<PathBuf>, name: &str, value: &T) {
    let Some(dir) = dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(body) => {
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("  → wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// Merges one benchmark record into a trajectory file at the repo root,
/// keyed by `label` so the before/after perf history accumulates across
/// runs.
fn record_bench_entry<T: serde::Serialize>(path: &str, label: &str, result: &T) {
    let mut root = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
        .and_then(|v| match v {
            serde_json::Value::Object(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default();
    let entry = serde_json::json!({
        "machine": {
            "cpus": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            "os": std::env::consts::OS,
            "arch": std::env::consts::ARCH,
        },
        "recorded_unix": std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        "result": result,
    });
    root.insert(label.to_string(), entry);
    match serde_json::to_string_pretty(&serde_json::Value::Object(root)) {
        Ok(body) => {
            if let Err(e) = std::fs::write(path, body + "\n") {
                eprintln!("warning: cannot write {path}: {e}");
            } else {
                println!("  → recorded bench entry \"{label}\" in {path}");
            }
        }
        Err(e) => eprintln!("warning: cannot serialize bench record: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let json_dir = flag_value("--json").map(PathBuf::from);
    let label = flag_value("--label").unwrap_or_else(|| "after".to_string());
    let bench_out = flag_value("--bench-out").unwrap_or_else(|| "BENCH_dispatch.json".to_string());
    // Positions holding a flag's value, to keep them out of the
    // experiment selection.
    let value_slots: Vec<usize> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a.as_str(), "--json" | "--label" | "--bench-out"))
        .map(|(i, _)| i + 1)
        .collect();
    let mut selected: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !value_slots.contains(i))
        .map(|(_, a)| a.clone())
        .collect();
    if selected.is_empty() {
        selected.push("all".to_string());
    }
    let wants = |name: &str| {
        selected.iter().any(|s| s == name || s == "all")
            || (name == "fig89" && selected.iter().any(|s| s == "fig8" || s == "fig9"))
    };

    println!(
        "IoT-AODB reproduction harness — EDBT 2019 \"Modeling and Building IoT Data \
         Platforms with Actor-Oriented Databases\"{}",
        if quick { " (quick mode)" } else { "" }
    );

    if wants("fig6") {
        let points = fig6::run(quick);
        write_json(&json_dir, "fig6", &points);
    }
    if wants("fig7") {
        let points = fig7::run(quick);
        write_json(&json_dir, "fig7", &points);
    }
    if wants("fig89") {
        let points = fig89::run(quick);
        write_json(&json_dir, "fig89", &points);
    }
    if wants("dispatch") {
        let result = dispatch::run(quick);
        write_json(&json_dir, "dispatch", &result);
        record_bench_entry(&bench_out, &label, &result);
    }
    if wants("ingest") {
        let result = ingest::run(quick);
        write_json(&json_dir, "ingest", &result);
        record_bench_entry("BENCH_ingest.json", &label, &result);
    }
    if wants("placement") {
        let points = ablations::run_placement(quick);
        write_json(&json_dir, "placement", &points);
    }
    if wants("granularity") {
        let points = ablations::run_granularity(quick);
        write_json(&json_dir, "granularity", &points);
    }
    if wants("constraints") {
        let points = ablations::run_constraints(quick);
        write_json(&json_dir, "constraints", &points);
    }
    println!("\ndone.");
}

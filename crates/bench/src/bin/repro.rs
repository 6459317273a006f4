//! `repro` — regenerates the paper's evaluation figures and the ablation
//! studies.
//!
//! ```text
//! repro [EXPERIMENTS...] [--quick] [--json DIR]
//!
//! EXPERIMENTS: all (default) | fig6 | fig7 | fig8 | fig9 | fig89
//!            | placement | granularity | constraints
//! --quick           shorter sweeps and durations (CI-friendly)
//! --json DIR        additionally write each experiment's raw results as JSON
//! ```
//!
//! An unknown experiment name or flag exits with code 2 before anything
//! runs.

use std::path::PathBuf;

use aodb_bench::experiments::{ablations, fig6, fig7, fig89};

/// Every name `EXPERIMENTS` accepts.
const EXPERIMENTS: [&str; 9] = [
    "all",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig89",
    "placement",
    "granularity",
    "constraints",
];

fn usage_error(what: &str) -> ! {
    eprintln!(
        "repro: {what}\nusage: repro [EXPERIMENTS...] [--quick] [--json DIR]\n\
         EXPERIMENTS: {}",
        EXPERIMENTS.join(" | ")
    );
    std::process::exit(2);
}

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

fn main() {
    let mut quick = false;
    let mut json_dir = None;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => match args.next() {
                Some(dir) => json_dir = Some(PathBuf::from(dir)),
                None => usage_error("--json needs a directory"),
            },
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag {flag}")),
            name if EXPERIMENTS.contains(&name) => selected.push(arg),
            name => usage_error(&format!("unknown experiment {name}")),
        }
    }
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

//! The `repro` command line refuses what it does not know: a misspelt or
//! retired experiment name exits with code 2 and the list of known names,
//! before any experiment runs.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

fn assert_rejected(out: &Output, name: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(2),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stderr.contains(name), "error names the input: {stderr}");
    for known in [
        "all",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig89",
        "placement",
        "granularity",
        "constraints",
    ] {
        assert!(stderr.contains(known), "{known} missing from: {stderr}");
    }
    assert!(!stdout.contains("done."), "nothing may run: {stdout}");
}

#[test]
fn misspelt_experiment_is_rejected() {
    assert_rejected(&repro(&["fgi6", "--quick"]), "fgi6");
}

#[test]
fn retired_experiments_are_rejected() {
    for name in ["dispatch", "ingest"] {
        assert_rejected(&repro(&[name, "--quick"]), name);
    }
}

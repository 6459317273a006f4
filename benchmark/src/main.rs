//! The repository's benchmark: the unsimulated SHM stack under four
//! seeded workloads, every output checked, end-to-end metrics from an
//! untraced run and a per-layer ledger from a traced one.
//!
//! ```text
//! aodb-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Prints every metric as `name value unit`, and as the last line of
//! standard output one JSON object per workload with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero when an output
//! check fails. See `README.md` beside this package for the definitions.

mod gen;
mod layers;
mod signal;
mod stats;
mod system;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Metric, RunOptions, RunResult, Workload, WORKLOADS};

/// Phase length of `--quick` (seconds).
const QUICK_SECONDS: f64 = 2.0;
/// Where result files, trace files and data directories go, relative to
/// the checkout root the benchmark is run from.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workloads: Vec<&'static Workload>,
    opts: RunOptions,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: aodb-benchmark [--workload <{}|all>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = "all".to_string();
    let mut seed = 1u64;
    let mut seconds = 12.0f64;
    let mut trace = false;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => workload = value("--workload")?,
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => quick = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if quick {
        seconds = QUICK_SECONDS;
    }
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    let workloads = if workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        vec![workloads::by_name(&workload)
            .ok_or_else(|| format!("unknown workload `{workload}`\n{}", usage()))?]
    };
    Ok(Args {
        workloads,
        opts: RunOptions {
            seed,
            seconds,
            trace,
            out_dir: PathBuf::from(OUT_DIR),
        },
    })
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON: every digit measured, and never `NaN` or `inf`
/// (neither is JSON).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// One metric as a JSON member; the result file also carries the sample
/// count behind a timing, the contract's result line only value and unit.
fn metric_json(m: &Metric, with_samples: bool) -> String {
    let samples = m
        .samples
        .filter(|_| with_samples)
        .map_or(String::new(), |n| format!(", \"samples\": {n}"));
    format!(
        "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
        json_string(m.name),
        json_number(m.value),
        json_string(m.unit)
    )
}

/// The one-line result the contract asks for.
fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r.metrics.iter().map(|m| metric_json(m, false)).collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// The result file: the result line's content plus what makes two files
/// comparable — workload, options, host fingerprint, device probe and the
/// sample count behind each timing.
fn result_file(w: &Workload, opts: &RunOptions, r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| format!("    {}", metric_json(m, true)))
        .collect();
    let failures: Vec<String> = r.check_failures.iter().map(|f| json_string(f)).collect();
    let f = &r.fingerprint;
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"host\": {{\"cpus\": {}, \"rustc\": {}, \"commit\": {}, \"data_fs\": {}, \"wal.fsync_us\": {}}},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"check_failures\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        json_string(w.name),
        opts.seed,
        json_number(opts.seconds),
        opts.trace,
        f.cpus,
        json_string(&f.rustc),
        json_string(&f.commit),
        json_string(&f.data_fs),
        json_number(r.fsync_us),
        r.correct,
        r.attempted,
        r.failed,
        failures.join(", "),
        metrics.join(",\n")
    )
}

fn report(w: &Workload, opts: &RunOptions, r: &RunResult) -> Result<(), String> {
    let f = &r.fingerprint;
    println!(
        "# {} seed {} seconds {} trace {} — {} cpus, {}, commit {}, data on {}, fsync {:.0} us",
        w.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        f.cpus,
        f.rustc,
        f.commit,
        f.data_fs,
        r.fsync_us
    );
    println!("# {}", w.why);
    for m in &r.metrics {
        match m.samples {
            Some(n) => println!("{} {} {} (n={n})", m.name, json_number(m.value), m.unit),
            None => println!("{} {} {}", m.name, json_number(m.value), m.unit),
        }
    }
    if let Some(ledger) = &r.ledger {
        print!("{}", ledger.render(w.name));
    }
    for failure in &r.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    let path = opts.out_dir.join(format!(
        "{}.seed{}.trace{}.json",
        w.name,
        opts.seed,
        u8::from(opts.trace)
    ));
    std::fs::write(&path, result_file(w, opts, r))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{}", result_line(r));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.opts.out_dir) {
        eprintln!("create {}: {e}", args.opts.out_dir.display());
        return ExitCode::from(2);
    }
    let mut all_correct = true;
    for w in args.workloads {
        match workloads::run(w, &args.opts).and_then(|r| report(w, &args.opts, &r).map(|()| r)) {
            Ok(r) => all_correct &= r.correct,
            Err(message) => {
                eprintln!("{}: {message}", w.name);
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = args(&[
            "--workload",
            "mixed-closed",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "mixed-closed");
        assert_eq!(
            (a.opts.seed, a.opts.seconds, a.opts.trace),
            (42, 10.0, true)
        );
        assert_eq!(args(&[]).expect("defaults").workloads.len(), 4);
        assert_eq!(
            args(&["--quick"]).expect("quick").opts.seconds,
            QUICK_SECONDS
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    #[test]
    fn json_escapes_and_never_emits_nan() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(1.25), "1.25");
    }
}

#!/usr/bin/env bash
# Repeatability check: two sets of N runs (default 5) of the same build,
# interleaved so that host drift lands on both, each run with another
# seed. Writes medians, quartiles and spreads per metric x workload to
# benchmark/out/repeat.json and fails if a spread or the gap between the
# two sets' medians exceeds the metric's bound in BENCHMARK.json.
#
# The bounds in BENCHMARK.json are set from this file's output: 0.10
# where three times the spread and twice the gap both fit, otherwise the
# smallest of 0.15, 0.20, 0.25 that fits them.
#
#   benchmark/repeat.sh [N] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/aodb-benchmark"
mkdir -p benchmark/out

python3 - "$bin" "${1:-5}" "${2:-}" <<'PY'
import json, statistics, subprocess, sys

binary, n, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3]
if n < 5:
    sys.exit("repeat.sh: N must be at least 5")
spec = json.load(open("BENCHMARK.json"))
seconds = seconds or str(spec["run_seconds"])
bounds = {m["name"]: m for m in spec["end_to_end"]}

def run(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"repeat.sh: {workload} seed {seed} exited {out.returncode}\n{out.stdout}{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"repeat.sh: {workload} seed {seed}: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}

def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}

report, failures = {"seconds": float(seconds), "runs_per_set": n, "workloads": {}}, []
for w in (w["name"] for w in spec["workloads"]):
    sets = ({}, {})
    for i in range(n):
        # a b / b a / a b ...: neither set always runs first.
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            for name, value in run(w, 1 + i + s * n).items():
                sets[s].setdefault(name, []).append(value)
    rows = {}
    for name, bound in bounds.items():
        a, b = summary(sets[0][name]), summary(sets[1][name])
        worse = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
        if bound["better"] == "higher":
            worse = -worse
        rows[name] = {"unit": bound["unit"], "bound": bound["bound"], "set_a": a, "set_b": b,
                      "gap_worse": worse}
        spread = max(a["spread"], b["spread"])
        flag = ""
        if name != "setup_s" and spread > bound["bound"]:
            failures.append(f"{w} {name}: spread {spread:.3f} > bound {bound['bound']}")
            flag = "  <-- spread"
        if abs(worse) > bound["bound"]:
            failures.append(f"{w} {name}: sets differ by {worse:+.3f} > bound {bound['bound']}")
            flag += "  <-- gap"
        print(f"{w:16s} {name:16s} a {a['median']:12.5g}  b {b['median']:12.5g}  "
              f"spread {100*a['spread']:5.1f}% / {100*b['spread']:5.1f}%  gap {100*worse:+6.1f}%  "
              f"bound {100*bound['bound']:.0f}%{flag}")
    report["workloads"][w] = rows

json.dump(report, open("benchmark/out/repeat.json", "w"), indent=1)
print("wrote benchmark/out/repeat.json")
if failures:
    sys.exit("repeat.sh: the two sets disagree beyond the bounds:\n  " + "\n  ".join(failures))
print("repeat: ok")
PY

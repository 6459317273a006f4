#!/usr/bin/env bash
# Smoke check for CI: the benchmark's unit tests, then every workload once
# untraced and once traced with 2 s phases (`--quick`). Any failed output
# check, failed operation or crash makes this exit non-zero. The numbers a
# quick run prints are not measurements.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo test --release --offline --quiet --manifest-path "$manifest"
for trace in 0 1; do
    cargo run --release --offline --quiet --manifest-path "$manifest" -- \
        --workload all --seed "${SEED:-1}" --trace "$trace" --quick
done
echo "smoke: ok"

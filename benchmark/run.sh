#!/usr/bin/env bash
# Builds `dpopt` and `dpbench` from source, then runs the benchmark.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]        every workload
#   benchmark/run.sh --trace 1 [...]                            the traced run
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
#
# Build output goes to stderr; stdout carries only the benchmark's report.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet -p dp-cli >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
dpopt="${CARGO_TARGET_DIR:-target}/release/dpopt"
dpbench="${CARGO_TARGET_DIR:-benchmark/target}/release/dpbench"
exec "$dpbench" --dpopt "$dpopt" --out benchmark/out "$@"

#!/usr/bin/env bash
# Build gapbench (release, offline) and run it.
#
#   benchmark/run.sh                         every workload; writes benchmark/out/results.json
#   benchmark/run.sh run --seed 7 --quick    smoke run, never for claims
#   benchmark/run.sh --workload tcp_sat --seed 1 --seconds 10 --trace 0
#   benchmark/run.sh check-repeat a.json b.json
#
# Run from anywhere; paths are taken from the repository root, which is the
# parent of this script's directory. CARGO_TARGET_DIR is honoured.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to stderr: stdout carries the results alone.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" 1>&2
exec "$target/release/gapbench" "$@"

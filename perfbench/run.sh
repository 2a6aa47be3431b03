#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it.
#
#   bash perfbench/run.sh --workload <sessions|fleet|ingest> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. CARGO_TARGET_DIR defaults to .bench_build at the root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/mvqoe-perfbench" "$@"

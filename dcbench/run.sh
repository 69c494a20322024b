#!/usr/bin/env bash
# Build the benchmark (release) and run it; every argument goes to dcbench:
#   bash dcbench/run.sh --workload <name|all> --seed N --seconds S --trace 0|1
# Run from the repository root. Cargo's output goes to stderr, so the last
# line on stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-dcbench/target}"
cargo build --release --offline --quiet --manifest-path dcbench/Cargo.toml --bins 1>&2
exec "$target/release/dcbench" "$@"

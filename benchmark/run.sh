#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--quick]
#   benchmark/run.sh --aa [N]
#
# Without --workload, all four workloads run, one process each. The last
# line a workload prints is its result as one JSON object. Everything is
# read and written under this directory, except the cargo target directory
# when CARGO_TARGET_DIR names another place.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo resolves a relative CARGO_TARGET_DIR against the caller's directory;
# do the same, and never `cd`.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export SUPERSIM_BENCH_DIR="$here"
exec "$target/release/supersim-benchmark" "$@"

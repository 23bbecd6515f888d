#!/usr/bin/env bash
# The benchmark's one command:
#
#   bash benchmarks/perf/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
#
# Builds the package (offline, release) into CARGO_TARGET_DIR — the root
# target/ unless the caller set one — and runs it. Everything the run
# writes goes under $CARGO_TARGET_DIR/perf-scratch and is removed on exit,
# except trace-<workload>.json from a traced run.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../../target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/sem-perf" --scratch "$target/perf-scratch" "$@"

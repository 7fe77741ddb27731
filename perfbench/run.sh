#!/usr/bin/env bash
# Builds the `hcl` binary and the benchmark from source, then runs one
# benchmark invocation:
#
#   bash perfbench/run.sh --workload ba --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default perfbench/target); the
# benchmark's scratch files and traces go under the same directory.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-perfbench/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p hcl-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/hcl-perfbench" \
  --hcl "$target/release/hcl" \
  --work-dir "$target/perfbench-work" \
  "$@"

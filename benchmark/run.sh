#!/usr/bin/env bash
# Builds the microscope CLI and the benchmark driver in release mode, then
# runs the driver. With no arguments: every workload, every metric, results
# in benchmark/out/. The harness of BENCHMARK.json appends
#   --workload W --seed N --seconds S --trace 0|1
# and reads the last line of stdout. See README.md.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

# One target directory for both builds: the caller's, else benchmark/target.
target=${CARGO_TARGET_DIR:-$here/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target

# Build chatter goes to stderr: stdout belongs to the results.
cargo build --release --offline --manifest-path "$root/Cargo.toml" -p microscope-cli >&2
cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/msc-benchmark" run \
    --microscope "$target/release/microscope" --out "$here/out" "$@"

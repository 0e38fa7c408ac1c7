#!/usr/bin/env bash
# The repo benchmark in one command: build the package, then run it.
#
#   benchmark/run.sh                      every workload: end-to-end pass, traced pass, summary
#   benchmark/run.sh --smoke              the same with 1 rep and 1/20 of the work (plumbing check)
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one workload, one pass; last line is the result object
#   benchmark/run.sh agree [A.json B.json]  two end-to-end passes agree within the bounds
#   benchmark/run.sh manifest             print BENCHMARK.json from the metric catalogue
#
# See benchmark/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# Build output stays out of git: under the root target/ (already ignored)
# unless the caller chose a directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/noc-benchmark" "$@"

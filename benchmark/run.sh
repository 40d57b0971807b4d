#!/usr/bin/env bash
# Build and run the benchmark from the repository root:
#
#   bash benchmark/run.sh --workload <name|all> --seed <u64> --seconds <n> --trace <0|1>
#
# `--trace 0` runs the end-to-end binary; `--trace 1` builds and runs the
# traced binary instead, which lives behind the `trace` feature so that
# the end-to-end build never compiles the tracing code. The last line of
# standard output is the run's JSON result.
set -euo pipefail

manifest="$(dirname "$0")/Cargo.toml"
bin=dagsched-perf
features=()
prev=
for arg in "$@"; do
    if [[ $prev == --trace && $arg == 1 ]]; then
        bin=dagsched-perf-trace
        features=(--features trace)
    fi
    prev=$arg
done

exec cargo run --quiet --release --offline --manifest-path "$manifest" \
    ${features[@]+"${features[@]}"} --bin "$bin" -- "$@"

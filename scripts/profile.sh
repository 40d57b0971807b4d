#!/usr/bin/env bash
# Sampling profile of one run with gprofng.
#
#   bash scripts/profile.sh <binary> [args...]
#
# Runs `gprofng collect app -p lo` on <binary> [args...], then prints the
# top 30 functions by exclusive CPU time and, when $PROFILE_FUNC names a
# function, its exclusive and inclusive time with its callers and callees.
# Name the function as the first table prints it, with its full path (e.g.
# `dagsched_dag::unfold::UnfoldState::reset_from`); inlined functions such
# as `simulate` have no samples of their own. A generic function can have
# several instances under one name; if gprofng says the item "had no
# recorded metrics", append the instance number (`PROFILE_FUNC='<name> 2'`).
# The experiment directory goes to $PROFILE_DIR, by default a new directory
# under ${TMPDIR:-/tmp}; it is kept, so `gprofng display text` can be run on
# it again with other views.
#
# Sampling rate: `-p lo` samples about 10 times per second. `-p on` and
# `-p hi` ask for more, but on a host without high-resolution profiling
# timers gprofng falls back to the same rate ("timer period was changed
# (997 -> 0)"). So profile runs of at least 60 s, e.g.
#
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml --bin dagsched-perf
#   PROFILE_FUNC='dagsched_engine::lifecycle::Lifecycle::admit_arrivals 2' \
#       bash scripts/profile.sh \
#       benchmark/target/release/dagsched-perf --workload parked-dense --seconds 60 --seed 1
#
# Run the benchmark binary from the repository root, and compare shares of
# the total, not raw seconds, between runs.
#
# Threads: on some hosts gprofng records no samples from threads the
# program spawns, only from its main thread. The script warns when the
# sampled total is under half the wall time. `dagsched sweep --threads 1`
# and the `sweep-steady` benchmark op run on the calling thread. The
# experiment pipeline (`run_all`, the `all` binary, the `tables-full`
# workload) sizes its worker pool from the CPUs it may run on, so pin it
# to one CPU to keep its work on the main thread:
#
#   taskset -c 0 bash scripts/profile.sh \
#       benchmark/target/release/dagsched-perf --workload tables-full --seconds 60
#
# Scheduler S's hooks are too short for 10 samples a second to resolve.
# `examples/hook_times.rs` times them directly on the seed's parked
# instance and prints the best of N runs per hook, in ms. It first prints
# the best of N wall times of each of the `parked-dense` op's four
# simulations (EDF on the parked single-node and chain instances, S, and
# S-profit on the slot-plan instance) and their sum: the engine and
# scheduler half of the op, without the benchmark's set-up and checks, so
# an engine change can be sized per simulation. Pin it to one CPU and
# alternate with a build of the parent:
#
#   taskset -c 0 cargo run --release --offline -q --example hook_times -- 200 1
set -euo pipefail

if [[ $# -lt 1 ]]; then
    echo "usage: $0 <binary> [args...]" >&2
    exit 2
fi
if ! command -v gprofng >/dev/null; then
    echo "$0: gprofng not found (it ships with binutils)" >&2
    exit 2
fi

read -r -a func <<<"${PROFILE_FUNC:-}"
dir=${PROFILE_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/profile.XXXXXX")}
mkdir -p "$dir"
exp=$dir/run.er
rm -rf "$exp"

start=$(date +%s.%N)
gprofng collect app -p lo -O "$exp" "$@" >"$dir/stdout.txt"
wall=$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.1f", b - a }')
echo "experiment $exp; program output in $dir/stdout.txt"

echo
echo "== top 30 functions by exclusive time =="
gprofng display text -limit 30 -functions "$exp" | tee "$dir/functions.txt"

# The <Total> row's first column is the sampled CPU time in seconds.
sampled=$(awk '$NF == "<Total>" { print $1; exit }' "$dir/functions.txt")
if [[ -n $sampled ]] && awk -v s="$sampled" -v w="$wall" 'BEGIN { exit !(s < w / 2) }'; then
    echo
    echo "warning: sampled ${sampled} s of ${wall} s wall time; spawned threads" \
        "are probably unsampled (see the header: taskset -c 0)" >&2
fi

if ((${#func[@]})); then
    echo
    echo "== ${func[*]}: time, callers and callees =="
    gprofng display text -fsingle "${func[@]}" -csingle "${func[@]}" "$exp"
fi

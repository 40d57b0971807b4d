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

gprofng collect app -p lo -O "$exp" "$@" >"$dir/stdout.txt"
echo "experiment $exp; program output in $dir/stdout.txt"

echo
echo "== top 30 functions by exclusive time =="
gprofng display text -limit 30 -functions "$exp"

if ((${#func[@]})); then
    echo
    echo "== ${func[*]}: time, callers and callees =="
    gprofng display text -fsingle "${func[@]}" -csingle "${func[@]}" "$exp"
fi

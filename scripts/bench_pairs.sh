#!/usr/bin/env bash
# Alternating parent/change runs of the end-to-end benchmark.
#
#   bash scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [seconds] [seed]
#
# Builds `dagsched-perf` twice: once for <parent-rev>, exported with
# `git archive` into a scratch directory, and once for the current checkout
# (HEAD plus any uncommitted edits). Then runs <pairs> pairs of
# `--workload <workload> --seconds <seconds> --seed <seed>` (defaults: 10 s,
# seed 1), alternating which side runs first, and prints every run's gated
# metrics and failed-op count. At the end it prints, per gated metric, each
# side's median and quartiles, how many pairs the change won (ties count
# for neither side) and a verdict, reading each metric's direction and
# bound from BENCHMARK.json:
#
#   gain        the change wins at least nine tenths of the pairs and the
#               medians differ, in its favour, by more than the parent's
#               interquartile range;
#   worse       the change's median is worse than the parent's by more
#               than the metric's bound (a fraction of the parent's);
#   unresolved  anything else.
#
# Run at least ten pairs for a gain, and confirm it on a seed not used
# while writing the change.
#
# Build trees and outputs go to $BENCH_PAIRS_DIR, by default a new
# directory under ${TMPDIR:-/tmp}; it is kept so that a rerun with the same
# directory reuses both builds.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 5 ]]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> [seconds] [seed]" >&2
    exit 2
fi
parent_rev=$1
workload=$2
pairs=$3
seconds=${4:-10}
seed=${5:-1}

repo=$(git rev-parse --show-toplevel)
parent_sha=$(git -C "$repo" rev-parse --verify "$parent_rev^{commit}")
work=${BENCH_PAIRS_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")}
mkdir -p "$work"
echo "parent $parent_sha, change = working tree of $repo; outputs in $work"

# Build one side: <source root> <target dir>. Prints the binary's path.
build() {
    CARGO_TARGET_DIR=$2 cargo build --quiet --release --offline \
        --manifest-path "$1/benchmark/Cargo.toml" --bin dagsched-perf >&2
    echo "$2/release/dagsched-perf"
}

parent_src=$work/parent-$parent_sha
if [[ ! -d $parent_src ]]; then
    mkdir -p "$parent_src.tmp"
    git -C "$repo" archive "$parent_sha" | tar -x -C "$parent_src.tmp"
    mv "$parent_src.tmp" "$parent_src"
fi
parent_bin=$(build "$parent_src" "$work/target-parent")
change_bin=$(build "$repo" "$work/target-change")

metrics=(setup_s op_ms_p10_refhost items_per_s_refhost peak_rss_mb)

# The value of metric <name> in the JSON result line <line>.
value() {
    sed -E "s/.*\"$1\": \{\"value\": ([^,}]+).*/\1/" <<<"$2"
}

# Run one side: <side> <binary> <source root> <pair>. Appends the result
# line to $work/<side>.jsonl and prints the run's gated metrics.
run() {
    local out line row
    out=$(cd "$3" && "$2" --workload "$workload" --seconds "$seconds" --seed "$seed")
    line=$(tail -n 1 <<<"$out")
    echo "$line" >>"$work/$1.jsonl"
    row=$(printf 'pair %2d  %-6s' "$4" "$1")
    for m in "${metrics[@]}"; do
        row+=$(printf '  %s=%s' "$m" "$(value "$m" "$line")")
    done
    row+=$(sed -E 's/.*"attempted": ([0-9]+), "failed": ([0-9]+).*/  failed=\2\/\1/' <<<"$line")
    grep -q '"correct": true' <<<"$line" || row+="  NOT CORRECT"
    echo "$row"
}

rm -f "$work/parent.jsonl" "$work/change.jsonl"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$parent_bin" "$parent_src" "$i"
        run change "$change_bin" "$repo" "$i"
    else
        run change "$change_bin" "$repo" "$i"
        run parent "$parent_bin" "$parent_src" "$i"
    fi
done

# First quartile, median and third quartile (linear interpolation) of the
# numbers on stdin, on one line.
quartiles() {
    sort -g | awk '
        { v[NR] = $1 }
        function q(p,   h, lo) {
            h = (NR - 1) * p + 1; lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.10g %.10g %.10g\n", q(0.25), q(0.5), q(0.75) }'
}

echo
printf '%-20s %-36s %-36s %-28s %s\n' metric "parent median (q1-q3)" "change median (q1-q3)" \
    "change wins" verdict
for m in "${metrics[@]}"; do
    mapfile -t p < <(while read -r l; do value "$m" "$l"; done <"$work/parent.jsonl")
    mapfile -t c < <(while read -r l; do value "$m" "$l"; done <"$work/change.jsonl")
    read -r pq1 pmed pq3 < <(printf '%s\n' "${p[@]}" | quartiles)
    read -r cq1 cmed cq3 < <(printf '%s\n' "${c[@]}" | quartiles)
    # The metric's direction and bound, as BENCHMARK.json declares them.
    read -r better bound < <(sed -nE \
        "s/.*\"name\": \"$m\",.*\"better\": \"([a-z]+)\", \"bound\": ([0-9.]+).*/\1 \2/p" \
        "$repo/BENCHMARK.json")
    wins=$(paste -d ' ' <(printf '%s\n' "${p[@]}") <(printf '%s\n' "${c[@]}") |
        awk -v b="$better" '(b == "lower" && $2 < $1) || (b == "higher" && $2 > $1) { n++ } END { print n + 0 }')
    verdict=$(awk -v b="$better" -v bound="$bound" -v w="$wins" -v n="$pairs" \
        -v pm="$pmed" -v q1="$pq1" -v q3="$pq3" -v cm="$cmed" '
        BEGIN {
            gap = b == "lower" ? pm - cm : cm - pm
            if (10 * w >= 9 * n && gap > q3 - q1) print "gain"
            else if (b == "lower" ? cm > pm * (1 + bound) : cm < pm * (1 - bound)) print "worse"
            else print "unresolved"
        }')
    printf '%-20s %-36s %-36s %-28s %s\n' "$m" \
        "$(printf '%.4f (%.4f-%.4f)' "$pmed" "$pq1" "$pq3")" \
        "$(printf '%.4f (%.4f-%.4f)' "$cmed" "$cq1" "$cq3")" \
        "$wins/$pairs ($better is better)" "$verdict"
done

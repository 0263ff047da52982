#!/usr/bin/env bash
# Alternating parent/change pairs of the repository benchmark (`just pairs`).
#
#   scripts/pairs.sh <parent-ref> <workload> [n=10] [seed=1]
#
# Builds `benchmark/` at <parent-ref> (a `git archive` copy under
# target/pairs/, so nothing in the checkout or in .git changes) and in the
# working tree, runs n pairs of BENCHMARK.json's run length each on workload
# seed <seed>, alternating which side goes first, and prints for every
# end-to-end metric the two medians, the parent's inter-quartile distance and
# how many pairs the change won: the rule for claiming a gain is at least nine
# wins in ten and a median difference larger than that distance, and the
# claim must also hold on a seed not used while writing the change.
#
# The archive copy is for the build only: both binaries run from the working
# tree. `peak_rss_mib` and `recover_events_per_s` follow the directory a run
# starts in by a few percent (identical binaries, different cwd), so two
# sides in two trees compare directories. A gain claim may not touch
# `benchmark/`, so the `benchmark/golden` the binaries read is the same file
# set on both sides anyway.
set -euo pipefail

usage="usage: pairs.sh <parent-ref> <workload> [n=10] [seed=1]"
parent_ref=${1:?$usage}
workload=${2:?$usage}
n=${3:-10}
seed=${4:-1}
root=$(git rev-parse --show-toplevel)
cd "$root"
seconds=$(grep -o '"run_seconds": [0-9]*' BENCHMARK.json | grep -o '[0-9]*$')
work=$root/target/pairs

rm -rf "$work/parent"
mkdir -p "$work/parent"
git archive "$parent_ref" | tar -x -C "$work/parent"
for side in parent change; do
    src=$root
    [ "$side" = parent ] && src=$work/parent
    (cd "$src" && cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml --target-dir "$work/$side-target")
    cp "$work/$side-target/release/pgc-benchmark" "$work/bench-$side"
    : >"$work/$side.jsonl"
done

# The binary reads ./benchmark/golden and writes ./benchmark/out under the
# working tree's root (the cwd since the `cd` above). Its last stdout line is
# the JSON result.
run() {
    "$work/bench-$1" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1 >>"$work/$1.jsonl"
}
for ((pair = 1; pair <= n; pair++)); do
    if ((pair % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do run "$side"; done
    echo "pair $pair/$n done" >&2
done

value() { # <side> <metric>: one value per run, in pair order
    grep -o "\"$2\": {\"value\": [^,]*" "$work/$1.jsonl" | awk '{print $NF}'
}
failed() { grep -o '"failed": [0-9]*' "$work/$1.jsonl" | awk '{s += $NF} END {print s + 0}'; }
quartiles() { # <side> <metric>: q1 median q3, linearly interpolated
    value "$1" "$2" | sort -g | awk '
        function q(p,    pos, lo) {
            pos = (NR - 1) * p; lo = int(pos)
            return lo + 1 < NR ? v[lo + 1] + (pos - lo) * (v[lo + 2] - v[lo + 1]) : v[NR]
        }
        { v[NR] = $1 }
        END { print q(0.25), q(0.5), q(0.75) }'
}

echo "$workload seed $seed: $n alternating pairs of ${seconds}s, parent $parent_ref; failed parent $(failed parent) change $(failed change)"
printf '%-22s %14s %14s %8s %14s %6s\n' metric parent_median change_median change parent_iqd wins
grep -o '"name": "[a-z_]*", "unit": "[^"]*", "better": "[a-z]*", "bound"' BENCHMARK.json |
    awk -F'"' '{print $4, $12}' | while read -r metric better; do
    read -r pq1 pm pq3 < <(quartiles parent "$metric")
    read -r _ cm _ < <(quartiles change "$metric")
    wins=$(paste <(value parent "$metric") <(value change "$metric") | awk -v better="$better" '
        (better == "higher" && $2 > $1) || (better == "lower" && $2 < $1) { wins++ }
        END { print wins + 0 }')
    awk -v m="$metric" -v pm="$pm" -v cm="$cm" -v q1="$pq1" -v q3="$pq3" -v w="$wins" -v n="$n" 'BEGIN {
        printf "%-22s %14.6g %14.6g %+7.1f%% %14.6g %3d/%d\n", m, pm, cm, pm ? (cm - pm) / pm * 100 : 0, q3 - q1, w, n
    }'
done

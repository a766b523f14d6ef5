#!/usr/bin/env bash
# The benchmark's one command.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload; the last line of standard output is the
#       result as JSON. This is the form /BENCHMARK.json names.
#
#   run.sh [--workload W] [--seed N] [--seconds S] [--quick]
#       The suite: every workload (or just W), each in two fresh
#       processes — untraced for the end-to-end metrics, then traced for
#       the per-layer ones — printing every metric by name with its unit.
#       --quick is a smoke run (1 s windows, one set-up, short accuracy
#       pass): same code paths, numbers not comparable with anything.
#
#   run.sh --repeat N [--workload W] [--seed N] [--seconds S]
#       Two sets of N untraced runs per workload (seeds seed .. seed+N-1,
#       the sets alternating), then `compare` on the two: shows whether two
#       sets of runs of the same code agree within the bounds, and the
#       spread the bounds have to cover.
#
# Builds first (release, offline); honours CARGO_TARGET_DIR.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin_dir="${CARGO_TARGET_DIR:-$here/target}/release"
bench="$bin_dir/sparseinfer-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--trace" ]; then
        exec "$bench" "$@"
    fi
done

seed=1
seconds=25
repeat=0
quick=()
workloads=(solo_decode long_prompt shared_prefix_chat open_mixed)
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --workload) workloads=("$2"); shift 2 ;;
        --repeat) repeat="$2"; shift 2 ;;
        --quick) quick=(--quick); seconds=1; shift ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

out="$here/out"
mkdir -p "$out"
status=0

if [ "$repeat" -gt 0 ]; then
    rm -f "$out/set_a.jsonl" "$out/set_b.jsonl"
    for workload in "${workloads[@]}"; do
        for ((i = 0; i < repeat; i++)); do
            for set in a b; do
                echo "== $workload seed $((seed + i)) set $set" >&2
                "$bench" --workload "$workload" --seed $((seed + i)) --seconds "$seconds" \
                    --trace 0 --out "$out/set_$set.jsonl" >/dev/null || status=1
            done
        done
    done
    "$bin_dir/compare" "$out/set_a.jsonl" "$out/set_b.jsonl" || status=1
    exit $status
fi

rm -f "$out/results.jsonl"
for workload in "${workloads[@]}"; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        "$bench" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --out "$out/results.jsonl" "${quick[@]}" || status=1
    done
done
exit $status

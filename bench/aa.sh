#!/usr/bin/env bash
# A/A check: two sequential sets of full runs of the same checkout must agree
# within the benchmark's own bounds. Each run is every workload, untraced
# then traced; run i of both sets uses the same seed, so exact counts must
# match run for run. Prints, per workload x end-to-end metric, both medians,
# their gap, each set's spread and the bound; then the spread and gap of the
# raw wall-clock twins beside the calibrated ones, so that the calibration's
# benefit is measured again rather than assumed; then any exact layer count
# that moved. Exits non-zero on any breach.
#
# usage: bench/aa.sh [runs-per-set (default 5)] [seconds-per-pass (default: run_seconds)] [workload...]
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
runs="${1:-5}"
seconds="${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}"
out="bench/out/aa"
shift $(($# < 2 ? $# : 2))
workloads="${*:-paper_tables wire_migration fleet_storm serve_session}"

rm -rf "$out"
for set in A B; do
  mkdir -p "$out/$set"
  for i in $(seq 1 "$runs"); do
    seed=$((1000 + i))
    for w in $workloads; do
      echo "aa: set $set run $i/$runs $w (seed $seed)" >&2
      bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/last.txt"
      tail -n 1 "$out/last.txt" >>"$out/$set/$w.e2e.jsonl"
      sed -n 's/^#diag //p' "$out/last.txt" >>"$out/$set/$w.diag.jsonl"
      bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 --out "$out/$set" >"$out/last.txt"
      tail -n 1 "$out/last.txt" >>"$out/$set/$w.layers.jsonl"
    done
  done
done
exec .bench_build/pvmbench -compare "$out/A" "$out/B"

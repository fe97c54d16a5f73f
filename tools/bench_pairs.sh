#!/usr/bin/env bash
# Paired benchmark runs of a base revision against this working tree.
#
#   bash tools/bench_pairs.sh BASE WORKLOAD PAIRS [FIRST_SEED]
#   make bench-pairs BASE=<rev> WORKLOAD=<name> PAIRS=<n> [SEED=<n>]
#
# BASE is exported (git archive) into _build/bench-pairs/base-<sha>.
# Each pair runs `bash benchmark/run.sh --workload W --seed S --trace 0`
# once on each tree with a fresh seed (FIRST_SEED, FIRST_SEED+1, ...;
# random when not given), alternating which side runs first.  The
# final JSON line of every run is kept next to its full report.  For
# each end-to-end metric in BENCHMARK.json the summary prints both
# sides' quartiles (exclusive method, as the benchmark's own --repeat
# uses) and the pairs the change wins; ties count for neither side.
# Reads benchmark/ and BENCHMARK.json, never writes them.
set -eu
if [ $# -lt 3 ]; then
  echo "usage: $0 BASE WORKLOAD PAIRS [FIRST_SEED]" >&2
  exit 2
fi
base_rev=$1 workload=$2 pairs=$3
seed0=${4:-$((RANDOM + 10000))}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

sha=$(git rev-parse --verify "$base_rev^{commit}")
base_dir=$root/_build/bench-pairs/base-$sha
if [ ! -f "$base_dir/benchmark/run.sh" ]; then
  rm -rf "$base_dir"
  mkdir -p "$base_dir"
  git archive "$sha" | tar -x -C "$base_dir"
fi
out=$root/_build/bench-pairs/$workload-$(date +%Y%m%d-%H%M%S)
mkdir -p "$out"
echo "base $sha vs working tree, $workload, $pairs pairs from seed $seed0; runs in $out" >&2

run() {  # side tree seed
  local log=$out/$1-$3.log
  bash "$2/benchmark/run.sh" --workload "$workload" --seed "$3" --trace 0 >"$log" \
    || echo "$1 seed $3 exited $?" >&2
  tail -n 1 "$log" >"$out/$1-$3.json"
  jq -e .metrics "$out/$1-$3.json" >/dev/null \
    || { echo "$1 seed $3 printed no result line (see $log)" >&2; exit 1; }
}

for i in $(seq 0 $((pairs - 1))); do
  seed=$((seed0 + i))
  if [ $((i % 2)) -eq 0 ]; then
    run base "$base_dir" "$seed"
    run change "$root" "$seed"
  else
    run change "$root" "$seed"
    run base "$base_dir" "$seed"
  fi
  jq -c -n --arg seed "$seed" --slurpfile b "$out/base-$seed.json" \
    --slurpfile c "$out/change-$seed.json" '{seed: $seed, base: $b[0], change: $c[0]}' \
    >>"$out/pairs.jsonl"
  echo "pair $((i + 1))/$pairs (seed $seed) done" >&2
done

jq -r -s --slurpfile bench BENCHMARK.json '
  def quartiles:
    sort as $a | ($a | length) as $n
    | if $n == 1 then [$a[0], $a[0], $a[0]]
      else [1, 2, 3] | map(
        (. * ($n + 1)) as $im
        | ([1, ([$n - 1, (($im / 4) | floor)] | min)] | max) as $j
        | ($im - $j * 4) as $d
        | ($a[$j - 1] * (4 - $d) + $a[$j] * $d) / 4)
      end;
  def fmt: if . >= 100 then (. | round | tostring) else ((. * 1000 | round) / 1000 | tostring) end;
  . as $pairs
  | ($pairs | length) as $n
  | "\($n) pairs, seeds \($pairs | map(.seed) | join(" "))",
    "failed ops: base \($pairs | map(.base.failed) | add), change \($pairs | map(.change.failed) | add)",
    (["metric", "better", "base q1 / median / q3", "change q1 / median / q3", "median", "wins"]
     | @tsv),
    ($bench[0].end_to_end[] as $m
     | ($pairs | map(.base.metrics[$m.name].value)) as $b
     | ($pairs | map(.change.metrics[$m.name].value)) as $c
     | ($b | quartiles) as $bq | ($c | quartiles) as $cq
     | ([range(0; $n)] | map(select(
          if $m.better == "lower" then $c[.] < $b[.] else $c[.] > $b[.] end)) | length) as $wins
     | [ "\($m.name) (\($m.unit))", $m.better,
         ($bq | map(fmt) | join(" / ")), ($cq | map(fmt) | join(" / ")),
         (if $bq[1] == 0 then "n/a"
          else "\((($cq[1] - $bq[1]) / $bq[1] * 1000 | round) / 10)%" end),
         "\($wins)/\($n)" ]
     | @tsv)
' "$out/pairs.jsonl" \
  | awk -F '\t' 'NF < 6 { print; next }
      { printf "%-20s %-7s %-28s %-28s %-8s %s\n", $1, $2, $3, $4, $5, $6 }'

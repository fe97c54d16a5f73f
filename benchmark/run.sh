#!/usr/bin/env bash
# Builds the benchmark binary from this source tree, then runs it with
# the arguments given (see benchmark/README.md), e.g.
#   bash benchmark/run.sh --workload browse --seed 1 --seconds 25 --trace 0
# Build output goes to stderr, so stdout carries only the benchmark's
# report, whose last line is the JSON result.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchmark/run.sh: $root is not a Cactis source tree (no dune-project or lib/)" >&2
  exit 2
fi
# Keep every build artefact inside the tree: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"

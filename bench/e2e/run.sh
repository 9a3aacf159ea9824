#!/usr/bin/env bash
# Build the benchmark and the switch daemon from source, then run one
# benchmark invocation with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload signalling --seed 1 --seconds 10 --trace 0
#
# Run it from the root of an RCBR checkout: the build, the daemon's
# socket and the span traces all stay inside that checkout (_build/).
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -d bin ]]; then
  echo "run.sh: run from the root of an RCBR checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi

# The shared dune cache lives outside the checkout; build without it.
export DUNE_CACHE=disabled
dune build --root . bench/e2e/rcbr_bench.exe bin/rcbr_switchd.exe >&2
exec ./_build/default/bench/e2e/rcbr_bench.exe "$@"

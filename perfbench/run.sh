#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root:
#
#   bash perfbench/run.sh --workload cold|churn|traffic|lossy --seed N \
#     --seconds S --trace 0|1
#
# The last line of standard output is the JSON result (see main.ml).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and perfbench/ needed)" >&2
  exit 2
fi

# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"

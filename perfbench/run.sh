#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments
# (see perfbench.ml for them).  Run from the root of the repository:
#
#   bash perfbench/run.sh --workload fabric-64b --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
# The shared dune cache lives outside the tree; keep everything inside it.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"

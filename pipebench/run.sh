#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run one workload:
#
#   bash pipebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# keep dune's shared cache out of the picture: the build reads and
# writes only this checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./pipebench/main.exe >&2
exec ./_build/default/pipebench/main.exe "$@"

#!/usr/bin/env bash
# Build e23 from source and run one workload; all arguments go to e23.exe:
#
#   bash bench/e23/run.sh --workload ecp-steady --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root.  The build uses that directory as the
# dune root and keeps dune's shared cache off, so nothing is written
# outside it.  Build output goes to stderr; stdout carries only e23's
# METRIC lines and its closing JSON summary.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . ./bench/e23/e23.exe >&2
exec ./_build/default/bench/e23/e23.exe "$@"

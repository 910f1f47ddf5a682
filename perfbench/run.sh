#!/usr/bin/env bash
# Build the benchmark from the sources in this checkout, then run it:
#   bash perfbench/run.sh --workload game|fleet|service --seed N --seconds S --trace 0|1
# Run from the root of the repository. Build output goes to stderr, so
# the last line of stdout stays the benchmark's JSON result.
set -euo pipefail
if [[ ! -f dune-project || ! -d lib ]]; then
  echo "perfbench: run from the root of a full AVM source tree (dune-project and lib/ not found)" >&2
  exit 1
fi
if ! command -v dune >/dev/null && command -v opam >/dev/null; then
  eval "$(opam env)"
fi
# The dune cache would write outside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/avm_perfbench.exe 1>&2
exec ./_build/default/perfbench/avm_perfbench.exe "$@"

#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run one workload:
#
#   bash bench/e2e/run.sh --workload cold_iwls --seed 1 --seconds 12 --trace 0
#
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the result object (see bench/e2e/README.md).
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -d bin ]]; then
  echo "run.sh: run from the root of a hash_retiming checkout" >&2
  exit 2
fi

# the shared dune cache lives outside the checkout
export DUNE_CACHE=disabled
dune build --root . bin/serve.exe bench/e2e/e2e.exe 1>&2
exec _build/default/bench/e2e/e2e.exe "$@"

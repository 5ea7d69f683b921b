#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build output goes to standard error; standard output is the
# benchmark's own, whose last line is the result object.
set -u
cd "$(dirname "$0")/.." || exit 3
# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
if ! dune build --root . --display quiet ./perfbench/perfbench.exe >&2; then
  echo "perfbench: the build failed" >&2
  exit 3
fi
exec ./_build/default/perfbench/perfbench.exe "$@"

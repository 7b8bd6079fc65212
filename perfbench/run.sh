#!/usr/bin/env bash
# Builds the attack-pipeline benchmark from the source checkout it is run
# in, then runs it.  From the root of the checkout:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --workload NAME --seed N --self-check
#
# The build goes to .bench_build/ and traces to .bench_out/; build output
# goes to stderr, so the last line of stdout is the result JSON.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a source checkout (dune-project, lib/, perfbench/)" >&2
  exit 2
fi

# Outside an opam-initialised shell, take the toolchain from opam's
# default switch.
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune not found on PATH" >&2
  exit 2
fi

DUNE_CACHE=disabled dune build --root . --build-dir .bench_build --profile release \
  ./perfbench/perfbench.exe 1>&2
exec .bench_build/default/perfbench/perfbench.exe "$@"

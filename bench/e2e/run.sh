#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# root of a distsketch checkout; every argument goes to e2e.exe, e.g.
#
#   bash bench/e2e/run.sh --workload tz-zipf-mmap --seed 1 --seconds 5 --trace 0
#
# See bench/e2e/README.md for the workloads, metrics and modes.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f bench/e2e/dune ]]; then
  echo "run.sh: not the root of a distsketch checkout (need dune-project, lib/ and bench/e2e/)" >&2
  exit 2
fi

# Build output goes to stderr so the result stays the last stdout line;
# the shared dune cache is off so nothing is written outside _build.
dune build --root . --cache=disabled ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"

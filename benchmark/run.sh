#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# from the repository root.  Arguments go to `main.exe run`; the build
# goes to .bench_build/ and the dune cache is not used, so nothing is
# written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build ./benchmark/main.exe 1>&2
exec .bench_build/default/benchmark/main.exe run "$@"

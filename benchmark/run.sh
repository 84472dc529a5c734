#!/usr/bin/env bash
# Build dbsp_bench (and the dbsp_serve daemon it drives) from source, then
# run it with the given flags. Run from the repository root:
#
#   bash benchmark/run.sh --workload hmm-sim --seed 1 --seconds 10 --trace 0
#
# The build tree is $CARGO_TARGET_DIR when set, else .bench_build; build
# output goes to stderr so the last line of stdout stays the result.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
if [ ! -f CMakeLists.txt ] || [ ! -d src ]; then
  echo "run.sh: the project sources are missing; run from the repository root" >&2
  exit 1
fi
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target dbsp_bench -j 4 >&2
exec "$build/dbsp_bench" --out "$build/out" "$@"

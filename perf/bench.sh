#!/usr/bin/env bash
# Builds flower_perf from this checkout (perf/build, Release, the root's
# own flags) and runs one benchmark measurement:
#
#   bash perf/bench.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the JSON result.
# Fails (non-zero, no result) when the repository sources are missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

{
  if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target flower_perf -j "$jobs"
} >&2

exec "$build/flower_perf" bench "$@"

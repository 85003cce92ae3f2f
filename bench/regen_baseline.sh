#!/usr/bin/env bash
# Regenerate bench/baseline.json, the perf-gate reference for the CI
# `perf` job. Run this deliberately when compiler/simulator/kernel
# behavior changes move the deterministic fields (cycles, fingerprints),
# and commit the result together with the change that moved them.
#
# Wall-clock and RSS fields are machine-dependent: numbers produced here
# come from *this* machine, and so do the `host` fields. If the CI
# runner class is slower, either leave generous headroom by hand (the
# checked-in baseline pads the `*wall_ms` and `*rss_mb` fields for
# exactly this reason — see bench/NOTES.md) or set EFFACT_PERF_THRESHOLD
# on the repository for the noisy-runner case. A re-baseline that should
# move only the deterministic fields keeps the committed wall/RSS and
# host values: restore those lines before committing.
#
# Every re-baseline is audited: the script runs
#   python3 bench/check_regression.py --moved <old baseline> bench/baseline.json
# which lists each exact field (cycles, fingerprints, counts) that moved,
# grouped by field, with the old -> new fingerprint table, and fails
# unless both files have the same fields and rows and that map is
# one-to-one. One cause per re-baseline: record the audit's output and
# the reason in bench/NOTES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

OLD_BASELINE=$(mktemp)
trap 'rm -f "$OLD_BASELINE"' EXIT
cp bench/baseline.json "$OLD_BASELINE"

BUILD_DIR=${BUILD_DIR:-build-perf}
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DEFFACT_BUILD_TESTS=OFF \
  -DEFFACT_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j --target bench_perf_lane
"$BUILD_DIR"/bench/bench_perf_lane bench/baseline.json
python3 bench/check_regression.py bench/baseline.json bench/baseline.json
python3 bench/check_regression.py --moved "$OLD_BASELINE" bench/baseline.json
echo "wrote bench/baseline.json — review wall_ms/rss_mb headroom before" \
  "committing"

#!/usr/bin/env bash
# Regenerate bench/baseline.json and bench/baseline_kernels.json, the
# perf-gate references for the CI `perf` job. Run this deliberately
# when compiler/simulator/kernel behavior changes move the deterministic
# fields (cycles, fingerprints), and commit the results together with
# the change that moved them.
#
# Wall-clock fields are machine-dependent: numbers produced here come
# from *this* machine. If the CI runner class is slower, either leave
# generous headroom by hand (the checked-in baseline pads wall_ms for
# exactly this reason — see bench/NOTES.md) or set
# EFFACT_PERF_THRESHOLD on the repository for the noisy-runner case.
# A re-baseline that should move only the deterministic fields keeps
# the committed wall/RSS values: restore those lines before committing.
#
# Every re-baseline is audited: the script runs
#   python3 bench/check_regression.py --moved <old baseline> bench/baseline.json
# which lists each exact field (cycles, fingerprints, counts) that moved,
# grouped by field, with the old -> new fingerprint table, and fails
# unless that map is one-to-one; bench/baseline_kernels.json gets the
# same audit. One cause per re-baseline: record the audit's output and
# the reason in bench/NOTES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

OLD_BASELINE=$(mktemp)
OLD_KERNELS=$(mktemp)
trap 'rm -f "$OLD_BASELINE" "$OLD_KERNELS"' EXIT
cp bench/baseline.json "$OLD_BASELINE"
cp bench/baseline_kernels.json "$OLD_KERNELS"

BUILD_DIR=${BUILD_DIR:-build-perf}
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DEFFACT_BUILD_TESTS=OFF \
  -DEFFACT_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j \
  --target bench_perf_lane bench_kernels
"$BUILD_DIR"/bench/bench_perf_lane bench/baseline.json
python3 bench/check_regression.py bench/baseline.json bench/baseline.json
python3 bench/check_regression.py --moved "$OLD_BASELINE" bench/baseline.json
"$BUILD_DIR"/bench/bench_kernels bench/baseline_kernels.json
python3 bench/check_regression.py bench/baseline_kernels.json \
  bench/baseline_kernels.json
python3 bench/check_regression.py --moved "$OLD_KERNELS" \
  bench/baseline_kernels.json
echo "wrote bench/baseline.json + bench/baseline_kernels.json —" \
  "review wall_ms headroom before committing"

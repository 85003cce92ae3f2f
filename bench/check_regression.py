#!/usr/bin/env python3
"""Gate a perf-lane JSON against its checked-in baseline.

Understands two schemas, dispatched on the "schema" field (current
and baseline must agree):

- effact-bench-sweep-v1 (bench_perf_lane -> BENCH_sweep.json vs
  bench/baseline.json): simulator throughput + the fig11 preset x SRAM
  grid + the per-optimization win matrix (opt_wins), including per-job
  cycles/fingerprint matching.

- effact-bench-kernels-v1 (bench_kernels -> BENCH_kernels.json vs
  bench/baseline_kernels.json): the SIMD kernel-tier microbench. The
  binary itself aborts if any vector tier's outputs differ from the
  scalar oracle; the exact `kernels.fingerprint` field additionally
  pins the oracle's semantics across commits and machines.

Two classes of comparison:

- Deterministic fields (simulated cycles, machine-code fingerprints,
  job/cache counts): the simulator and compiler are bit-deterministic,
  so these must match the baseline *exactly* on any machine. A mismatch
  means compiler or simulator behavior changed — if intended, regenerate
  the baseline deliberately with bench/regen_baseline.sh and commit it
  with the change that moved the numbers.

- Wall-clock fields (`*_wall_ms` / `wall_ms`): machine-dependent and
  noisy. The gate fails only on a regression beyond the threshold
  (default 25%; override with EFFACT_PERF_THRESHOLD=<fraction> or
  --threshold for noisy runners). Improvements are reported, never
  failed, so the recorded trajectory can drift downward freely.

Exit status: 0 clean, 1 regression/mismatch, 2 usage or schema error.

Usage: check_regression.py <current.json> <baseline.json> [--threshold F]

Stdlib only — runs anywhere CI has a python3.
"""

import argparse
import json
import os
import sys


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def get(tree, dotted):
    node = tree
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(dotted)
        node = node[part]
    return node


# Per-schema key lists: deterministic scalars compared exactly,
# wall-clock scalars gated by the threshold, and whether the schema
# carries the fig11 per-job results array.
SCHEMAS = {
    "effact-bench-sweep-v1": {
        "exact": [
            "sim_speed.instructions",
            "sim_speed.cycles",
            "fig11_grid.jobs",
            "fig11_grid.cache.lookups",
            "fig11_grid.cache.middle_end_runs",
            "fig11_grid.cache.hits",
            "opt_wins.jobs",
        ],
        "wall": [
            "sim_speed.sim_wall_ms",
            "sim_speed.compile_wall_ms",
            "fig11_grid.wall_ms",
        ],
        "grid": True,
        "wins": True,
    },
    # The kernel bench gates the scalar-vs-vector microbench walls and
    # the cross-tier output fingerprint. `tiers_exercised` and the
    # per-family speedup ratios are recorded but not gated: they
    # describe the runner (which vector tiers its CPU has), not the
    # code.
    "effact-bench-kernels-v1": {
        "exact": [
            "kernels.fingerprint",
            "kernels.degree",
        ],
        "wall": [
            "kernels.ntt_forward.scalar_wall_ms",
            "kernels.ntt_forward.vector_wall_ms",
            "kernels.ntt_inverse.scalar_wall_ms",
            "kernels.ntt_inverse.vector_wall_ms",
            "kernels.pointwise_mul.scalar_wall_ms",
            "kernels.pointwise_mul.vector_wall_ms",
            "kernels.bconv.scalar_wall_ms",
            "kernels.bconv.vector_wall_ms",
            "kernels.bconv_montgomery.scalar_wall_ms",
            "kernels.bconv_montgomery.vector_wall_ms",
        ],
        "grid": False,
    },
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument(
        "--threshold",
        type=float,
        # `or "0.25"` also covers the env var exported as an empty
        # string (CI does that when the repo variable is unset).
        default=float(os.environ.get("EFFACT_PERF_THRESHOLD") or "0.25"),
        help="max tolerated wall-clock regression as a fraction "
        "(default 0.25 = 25%%; env: EFFACT_PERF_THRESHOLD)",
    )
    args = parser.parse_args()

    try:
        with open(args.current) as f:
            current = json.load(f)
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"ERROR: {exc}")
        return 2

    for tree, name in ((current, args.current), (baseline, args.baseline)):
        if tree.get("schema") not in SCHEMAS:
            print(f"ERROR: {name}: unknown schema {tree.get('schema')!r}")
            return 2
    if current.get("schema") != baseline.get("schema"):
        print(
            f"ERROR: schema mismatch: {current.get('schema')!r} vs "
            f"baseline {baseline.get('schema')!r}"
        )
        return 2
    schema = SCHEMAS[current["schema"]]

    status = 0

    for key in schema["exact"]:
        try:
            cur, base = get(current, key), get(baseline, key)
        except KeyError:
            status |= fail(f"{key}: missing")
            continue
        if cur != base:
            status |= fail(
                f"{key}: {cur} != baseline {base} (deterministic field "
                "changed; regenerate the baseline if intended)"
            )
        else:
            print(f"ok   {key}: {cur}")

    if schema["grid"]:
        # Per-job deterministic results, matched by (name, sram_mb).
        def job_map(tree, name):
            jobs = {}
            for job in get(tree, "fig11_grid.results"):
                jobs[(job["name"], job["sram_mb"])] = job
            return jobs

        cur_jobs, base_jobs = job_map(current, "current"), job_map(
            baseline, "baseline"
        )
        if set(cur_jobs) != set(base_jobs):
            status |= fail(
                f"grid shape changed: "
                f"{sorted(set(cur_jobs) ^ set(base_jobs))}"
            )
        for key in sorted(set(cur_jobs) & set(base_jobs)):
            cur, base = cur_jobs[key], base_jobs[key]
            for field in ("cycles", "fingerprint"):
                if cur.get(field) != base.get(field):
                    status |= fail(
                        f"{key[0]}/sram{key[1]}.{field}: "
                        f"{cur.get(field)} != baseline {base.get(field)}"
                    )
        if not status:
            print(
                f"ok   {len(cur_jobs)} grid jobs: cycles + fingerprints "
                "match"
            )

    if schema.get("wins"):
        # Per-optimization win rows, matched by (workload, opt, sram_mb).
        # The binary already asserts each optimization strictly improves
        # somewhere; this re-checks the measured numbers are the ones the
        # baseline commit recorded.
        def win_map(tree):
            rows = {}
            for row in get(tree, "opt_wins.results"):
                rows[(row["workload"], row["opt"], row["sram_mb"])] = row
            return rows

        cur_rows, base_rows = win_map(current), win_map(baseline)
        if set(cur_rows) != set(base_rows):
            status |= fail(
                f"opt_wins shape changed: "
                f"{sorted(set(cur_rows) ^ set(base_rows))}"
            )
        for key in sorted(set(cur_rows) & set(base_rows)):
            cur, base = cur_rows[key], base_rows[key]
            for field in ("cycles", "fingerprint"):
                if cur.get(field) != base.get(field):
                    status |= fail(
                        f"{key[0]}/{key[1]}/sram{key[2]}.{field}: "
                        f"{cur.get(field)} != baseline {base.get(field)}"
                    )
        if not status:
            print(
                f"ok   {len(cur_rows)} opt-win rows: cycles + "
                "fingerprints match"
            )

    for key in schema["wall"]:
        try:
            cur, base = get(current, key), get(baseline, key)
        except KeyError:
            status |= fail(f"{key}: missing")
            continue
        ratio = cur / base if base > 0 else float("inf")
        if ratio > 1.0 + args.threshold:
            status |= fail(
                f"{key}: {cur:.1f} ms vs baseline {base:.1f} ms "
                f"(+{(ratio - 1) * 100:.1f}% > {args.threshold * 100:.0f}% "
                "budget; EFFACT_PERF_THRESHOLD overrides on noisy runners)"
            )
        else:
            print(
                f"ok   {key}: {cur:.1f} ms vs baseline {base:.1f} ms "
                f"({(ratio - 1) * 100:+.1f}%)"
            )

    print("perf gate:", "FAILED" if status else "clean")
    return status


if __name__ == "__main__":
    sys.exit(main())

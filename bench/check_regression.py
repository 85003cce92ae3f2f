#!/usr/bin/env python3
"""Gate a perf-lane JSON against its checked-in baseline.

Understands two schemas, dispatched on the "schema" field (current
and baseline must agree):

- effact-bench-sweep-v1 (bench_perf_lane -> BENCH_sweep.json vs
  bench/baseline.json): simulator throughput and peak RSS, the fig11
  preset x SRAM grid, the per-optimization win matrix (opt_wins) and
  the paper grid (every paper workload x preset x SRAM point), with
  per-row cycles/fingerprint matching.

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

- Lower-is-better host fields (`*_wall_ms` / `wall_ms`, and
  `peak_rss_mb`): machine-dependent and noisy. The gate fails only on a
  regression beyond the threshold (default 25%; override with
  EFFACT_PERF_THRESHOLD=<fraction> or --threshold for noisy runners).
  Improvements are reported, never failed, so the recorded trajectory
  can drift downward freely.

Exit status: 0 clean, 1 regression/mismatch, 2 usage or schema error.

Usage: check_regression.py <current.json> <baseline.json> [--threshold F]
       check_regression.py --moved <old.json> <new.json>

--moved audits a re-baseline instead of gating a run: it lists every
exact field (the scalars above, and cycles/fingerprint per row) whose
value differs between two baselines of one schema, grouped by field
name, then prints the old -> new fingerprint table. It exits 1 unless
that map is one-to-one (distinct programs must keep distinct
fingerprints) and every row is present in both files.

Stdlib only — runs anywhere CI has a python3.
"""

import argparse
import collections
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
# lower-is-better host scalars gated by the threshold, and the per-job
# result sections, each a (section, key fields) pair whose rows are
# matched by key and compared exactly on cycles + fingerprint.
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
            "paper_grid.jobs",
        ],
        "threshold": [
            "sim_speed.sim_wall_ms",
            "sim_speed.compile_wall_ms",
            "sim_speed.middle_wall_ms",
            "sim_speed.backend_wall_ms",
            "sim_speed.peak_rss_mb",
            "fig11_grid.wall_ms",
        ],
        "rows": [
            ("fig11_grid", ("name", "sram_mb")),
            # The binary already asserts each optimization strictly
            # improves somewhere; this re-checks the measured numbers
            # are the ones the baseline commit recorded.
            ("opt_wins", ("workload", "opt", "sram_mb")),
            ("paper_grid", ("workload", "preset", "sram_mb")),
        ],
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
        "threshold": [
            "kernels.ntt_forward.scalar_wall_ms",
            "kernels.ntt_forward.vector_wall_ms",
            "kernels.ntt_inverse.scalar_wall_ms",
            "kernels.ntt_inverse.vector_wall_ms",
            "kernels.pointwise_mul.scalar_wall_ms",
            "kernels.pointwise_mul.vector_wall_ms",
            "kernels.bconv.scalar_wall_ms",
            "kernels.bconv.vector_wall_ms",
        ],
        "rows": [],
    },
}


# The per-row fields compared exactly, in every `rows` section.
ROW_EXACT = ("cycles", "fingerprint")


def row_map(tree, section, key_fields):
    """The section's result rows keyed by their key fields."""
    return {
        tuple(row[k] for k in key_fields): row
        for row in get(tree, f"{section}.results")
    }


def check_rows(current, baseline, section, key_fields):
    """Matches the section's result rows by key; cycles and fingerprint
    must equal the baseline's exactly. Returns 0 clean, 1 mismatch."""
    try:
        cur_rows = row_map(current, section, key_fields)
        base_rows = row_map(baseline, section, key_fields)
    except KeyError:
        return fail(f"{section}.results: missing")
    status = 0
    if set(cur_rows) != set(base_rows):
        status |= fail(
            f"{section} shape changed: "
            f"{sorted(set(cur_rows) ^ set(base_rows))}"
        )
    for key in sorted(set(cur_rows) & set(base_rows)):
        cur, base = cur_rows[key], base_rows[key]
        for field in ROW_EXACT:
            if cur.get(field) != base.get(field):
                status |= fail(
                    f"{section} {'/'.join(map(str, key))}.{field}: "
                    f"{cur.get(field)} != baseline {base.get(field)}"
                )
    if not status:
        print(
            f"ok   {len(cur_rows)} {section} rows: cycles + fingerprints "
            "match"
        )
    return status


def moved(old, new, schema):
    """Re-baseline audit (--moved): prints every exact field that differs
    between `old` and `new`, grouped by field name, and the old -> new
    fingerprint table. Returns 0 when every row is in both files and the
    fingerprint map is one-to-one, else 1."""
    changes = {}  # field name -> [(where, old value, new value)]
    status = 0
    for key in schema["exact"]:
        try:
            a, b = get(old, key), get(new, key)
        except KeyError:
            status |= fail(f"{key}: missing")
            continue
        if a != b:
            changes.setdefault(key, []).append((key, a, b))

    fp_rows = {}  # old fingerprint -> {new fingerprint: [row ids]}
    for section, key_fields in schema["rows"]:
        try:
            old_rows = row_map(old, section, key_fields)
            new_rows = row_map(new, section, key_fields)
        except KeyError:
            status |= fail(f"{section}.results: missing")
            continue
        if set(old_rows) != set(new_rows):
            status |= fail(
                f"{section} shape changed: "
                f"{sorted(set(old_rows) ^ set(new_rows))}"
            )
        for key in sorted(set(old_rows) & set(new_rows)):
            where = "/".join([section, *map(str, key)])
            a, b = old_rows[key], new_rows[key]
            for field in ROW_EXACT:
                if a.get(field) != b.get(field):
                    changes.setdefault(field, []).append(
                        (where, a.get(field), b.get(field))
                    )
            if "fingerprint" in a:
                fp_rows.setdefault(a["fingerprint"], {}).setdefault(
                    b["fingerprint"], []
                ).append(where)

    if not changes:
        print("moved: nothing (every exact field is unchanged)")
    for field, rows in changes.items():
        print(f"moved: {field} ({len(rows)} rows)")
        if field != "fingerprint":
            for where, a, b in rows:
                print(f"  {where}: {a} -> {b}")

    if fp_rows:
        news = collections.Counter(
            b for targets in fp_rows.values() for b in targets
        )
        split = [a for a, targets in fp_rows.items() if len(targets) > 1]
        merged = sorted(b for b, count in news.items() if count > 1)
        print(
            f"fingerprint map: {len(fp_rows)} distinct old -> "
            f"{len(news)} distinct new"
        )
        for a, targets in fp_rows.items():
            for b, where in targets.items():
                if a != b:
                    print(f"  {a} -> {b}  {', '.join(where)}")
        for a in split:
            status |= fail(f"old fingerprint {a} maps to several new ones")
        for b in merged:
            status |= fail(f"new fingerprint {b} has several old ones")
        if not split and not merged:
            print("fingerprint map: one-to-one")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "current", help="perf-lane output (with --moved: the old baseline)"
    )
    parser.add_argument(
        "baseline",
        help="checked-in baseline (with --moved: the new baseline)",
    )
    parser.add_argument(
        "--moved",
        action="store_true",
        help="audit a re-baseline: list the exact fields that differ "
        "between the two files and check the fingerprint map is "
        "one-to-one",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        # `or "0.25"` also covers the env var exported as an empty
        # string (CI does that when the repo variable is unset).
        default=float(os.environ.get("EFFACT_PERF_THRESHOLD") or "0.25"),
        help="max tolerated wall-clock/RSS regression as a fraction "
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
    if args.moved:
        return moved(current, baseline, schema)

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

    for section, key_fields in schema["rows"]:
        status |= check_rows(current, baseline, section, key_fields)

    for key in schema["threshold"]:
        try:
            cur, base = get(current, key), get(baseline, key)
        except KeyError:
            status |= fail(f"{key}: missing")
            continue
        unit = "MB" if key.endswith("_mb") else "ms"
        ratio = cur / base if base > 0 else float("inf")
        if ratio > 1.0 + args.threshold:
            status |= fail(
                f"{key}: {cur:.1f} {unit} vs baseline {base:.1f} {unit} "
                f"(+{(ratio - 1) * 100:.1f}% > {args.threshold * 100:.0f}% "
                "budget; EFFACT_PERF_THRESHOLD overrides on noisy runners)"
            )
        else:
            print(
                f"ok   {key}: {cur:.1f} {unit} vs baseline {base:.1f} "
                f"{unit} ({(ratio - 1) * 100:+.1f}%)"
            )

    print("perf gate:", "FAILED" if status else "clean")
    return status


if __name__ == "__main__":
    sys.exit(main())

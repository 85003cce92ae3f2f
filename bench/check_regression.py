#!/usr/bin/env python3
"""Gate a perf-lane JSON against its checked-in baseline.

bench_perf_lane writes BENCH_sweep.json in one schema
(effact-bench-sweep-v2); bench/baseline.json is the same file, recorded
deliberately. Both are flattened to leaves: object keys join with ".",
and a list's rows are matched by their "name" field, so row
"full/sram27" of fig11_grid.results is the path
`fig11_grid.results[full/sram27]`. Each leaf is gated by one rule read
from its path:

- a leaf under the top-level "host" object (worker count, SIMD tiers
  exercised) describes the runner, not the code: recorded, not gated;

- a leaf whose name ends in "wall_ms" or "rss_mb" is a host
  measurement, lower-is-better and noisy: it fails only on a regression
  beyond the threshold (default 25%; override with
  EFFACT_PERF_THRESHOLD=<fraction> or --threshold for noisy runners).
  Improvements are reported, never failed, so the recorded trajectory
  can drift downward freely;

- every other leaf (simulated cycles, machine-code and kernel
  fingerprints, job and cache counts) is deterministic and must match
  the baseline exactly on any machine. A mismatch means compiler,
  simulator or kernel behavior changed: if intended, regenerate the
  baseline with bench/regen_baseline.sh and commit it with the change.

A field the lane adds is gated by the same rule with no edit here. A
leaf or row present in only one of the two files fails the gate.

Exit status: 0 clean, 1 regression/mismatch, 2 usage or schema error.

Usage: check_regression.py <current.json> <baseline.json> [--threshold F]
       check_regression.py --moved <old.json> <new.json>

--moved audits a re-baseline instead of gating a run: it lists every
exact leaf whose value differs between two baselines, grouped by leaf
name, then prints the old -> new table of the leaves named
"fingerprint". It exits 1 unless both files have the same leaves and
rows and that map is one-to-one (distinct programs must keep distinct
fingerprints).

Stdlib only — runs anywhere CI has a python3.
"""

import argparse
import collections
import json
import os
import sys

SCHEMA = "effact-bench-sweep-v2"


class SchemaError(Exception):
    pass


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def flatten(node, path="", out=None):
    """The leaves of a JSON tree as an ordered {path: value} map."""
    if out is None:
        out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        names = set()
        for row in node:
            name = row.get("name") if isinstance(row, dict) else None
            if not isinstance(name, str) or name in names:
                raise SchemaError(f"{path}: each row needs a unique name")
            names.add(name)
            flatten(row, f"{path}[{name}]", out)
    else:
        out[path] = node
    return out


def rule(path):
    """"host", "threshold" or "exact": the gate a leaf gets."""
    if path.split(".")[0] == "host":
        return "host"
    if path.endswith(("wall_ms", "rss_mb")):
        return "threshold"
    return "exact"


def load(path):
    with open(path) as f:
        tree = json.load(f)
    if not isinstance(tree, dict) or tree.get("schema") != SCHEMA:
        schema = tree.get("schema") if isinstance(tree, dict) else None
        raise SchemaError(f"{path}: schema {schema!r}, expected {SCHEMA!r}")
    return flatten(tree)


def check_shape(a, b, a_name, b_name):
    """Fails every leaf present in only one of the two files."""
    status = 0
    for path in sorted(a.keys() - b.keys()):
        status |= fail(f"{path}: in {a_name} only")
    for path in sorted(b.keys() - a.keys()):
        status |= fail(f"{path}: in {b_name} only")
    return status


def gate(current, baseline, threshold):
    status = check_shape(current, baseline, "current", "baseline")
    exact = 0
    for path, base in baseline.items():
        if path not in current:
            continue
        cur = current[path]
        kind = rule(path)
        if kind == "host":
            print(f"host {path}: {cur} (baseline {base}; not gated)")
        elif kind == "threshold":
            unit = "MB" if path.endswith("_mb") else "ms"
            ratio = cur / base if base > 0 else float("inf")
            if ratio > 1.0 + threshold:
                status |= fail(
                    f"{path}: {cur:.1f} {unit} vs baseline {base:.1f} "
                    f"{unit} (+{(ratio - 1) * 100:.1f}% > "
                    f"{threshold * 100:.0f}% budget; EFFACT_PERF_THRESHOLD "
                    "overrides on noisy runners)"
                )
            else:
                print(
                    f"ok   {path}: {cur:.1f} {unit} vs baseline {base:.1f} "
                    f"{unit} ({(ratio - 1) * 100:+.1f}%)"
                )
        elif cur != base:
            status |= fail(
                f"{path}: {cur} != baseline {base} (deterministic field "
                "changed; regenerate the baseline if intended)"
            )
        else:
            exact += 1
    print(f"ok   {exact} exact leaves match")
    print("perf gate:", "FAILED" if status else "clean")
    return status


def moved(old, new):
    """Re-baseline audit: prints every exact leaf that differs between
    `old` and `new`, grouped by leaf name, and the old -> new fingerprint
    table. Returns 0 when both files have the same leaves and the
    fingerprint map is one-to-one, else 1."""
    status = check_shape(old, new, "old", "new")
    changes = {}  # leaf name -> [(where, old value, new value)]
    fp_rows = {}  # old fingerprint -> {new fingerprint: [where]}
    for path, a in old.items():
        if path not in new or rule(path) != "exact":
            continue
        b = new[path]
        where, _, field = path.rpartition(".")
        if a != b:
            changes.setdefault(field, []).append((path, a, b))
        if field == "fingerprint":
            fp_rows.setdefault(a, {}).setdefault(b, []).append(where)

    if not changes:
        print("moved: nothing (every exact field is unchanged)")
    for field, rows in changes.items():
        print(f"moved: {field} ({len(rows)} leaves)")
        if field != "fingerprint":
            for path, a, b in rows:
                print(f"  {path}: {a} -> {b}")

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
        current = load(args.current)
        baseline = load(args.baseline)
    except (OSError, json.JSONDecodeError, SchemaError) as exc:
        print(f"ERROR: {exc}")
        return 2
    if args.moved:
        return moved(current, baseline)
    return gate(current, baseline, args.threshold)


if __name__ == "__main__":
    sys.exit(main())

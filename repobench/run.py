#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see repobench/README.md).

Run from the repository root:

    python3 repobench/run.py --workload paper-job --seed 1 --seconds 25 --trace 0

The first run configures and builds libeffact and the benchmark in
.bench_build/ (Release); later runs only rebuild what changed. The last
line of standard output is one JSON object: correct, attempted, failed
and metrics — the end-to-end metrics of BENCHMARK.json, or with
--trace 1 its per-layer metrics (the binary reports an explicit 0 for
each layer the workload does not run). A traced run also writes a
Chrome trace-event file under .bench_build/traces/ that Perfetto opens.
Determinism records live under .bench_build/determinism/<binary hash>/,
so each build of the benchmark is compared only with itself.

Exit status: 0 when every output check passed, 1 when one failed, 2
when nothing could be measured (no source tree, build failure, a
forbidden EFFACT_* variable in the environment).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY_DIR = BUILD / "repobench"
BUILD_TIMEOUT_S = 800
# The longest run, `dse-service --seconds 25 --trace 1`, took 62 s on a
# 4-vCPU x86-64 host (paper-job and ckks-boot traced: 52 s each); the
# limit leaves headroom for a host three times slower.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no libeffact source tree at {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BINARY_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "repobench"), "-B",
                      str(BINARY_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BINARY_DIR), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def binary_hash(path):
    """Short content hash of the built binary: the build's identity."""
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def reconcile(result, trace):
    """Checks the binary's metrics against BENCHMARK.json; returns the
    problems found."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    problems = [f"undeclared metric {name}" for name in metrics
                if name not in {m["name"] for m in declared}]
    ordered = {}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']} is not "
                            f"the declared {m['unit']}")
        ordered[m["name"]] = got
    result["metrics"] = ordered
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-job", "dse-service", "ckks-boot"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    binary = BINARY_DIR / "repobench"
    state_dir = f".bench_build/determinism/{binary_hash(binary)}"
    for sub in ("run", "traces", state_dir[len(".bench_build/"):]):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    trace_file = f".bench_build/traces/{args.workload}-{args.seed}.json"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-file", trace_file,
           "--state-dir", state_dir,
           "--run-dir", ".bench_build/run", "--commit", git_commit()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with status {done.returncode} "
             "without a result", done.returncode or 1)

    result = json.loads(lines[-1])
    problems = reconcile(result, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    for problem in problems:
        print(f"error: {problem}")
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()

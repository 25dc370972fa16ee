#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 campaign_bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Builds the benchmark (engine sources included) on first use, runs one
workload for S seconds and prints two JSON lines on stdout:

1. the detail record: workload, seed, host (nproc, build type, compiler),
   per-campaign digests and counts, and every metric the run measured;
2. the result: exactly {"correct", "attempted", "failed", "metrics"}, where
   metrics holds the end-to-end metrics of BENCHMARK.json (--trace 0) or its
   per-layer metrics (--trace 1).

Exits non-zero without a result when the engine sources are missing, the
build fails, or a check fails. See campaign_bench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper-24h", "aged-faults-ckpt", "geo-10k")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"campaign_bench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "campaign_bench"


def build(out):
    """Configures and builds the benchmark; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")
    binary = out / "campaign_bench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def check_detail(detail):
    """Output checks on top of the benchmark binary's own (digests, fidelity)."""
    problems = []
    if detail["attempted"] < 1:
        problems.append("no campaign attempted")
    for c in detail["campaigns"]:
        if c["testcases"] < 1 or c["total_ops"] < c["testcases"]:
            problems.append(f"{c['flavor']} seed {c['seed']}: implausible counts")
        if c["branch_coverage"] < 1:
            problems.append(f"{c['flavor']} seed {c['seed']}: no coverage")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: tiny virtual budgets, one seed")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    scratch = out / f"run-{os.getpid()}"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", str(scratch)]
    if args.tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {done.returncode})", 1)
    detail = json.loads(lines[-1])

    problems = check_detail(detail)
    metrics = {}
    for spec in declared_metrics(args.trace):
        name = spec["name"]
        got = detail["metrics"].get(name)
        if got is None or got["value"] is None:
            problems.append(f"metric {name} missing")
        elif got["unit"] != spec["unit"]:
            problems.append(f"metric {name} in {got['unit']}, declared {spec['unit']}")
        else:
            metrics[name] = got
    if problems:
        for problem in problems:
            print(f"campaign_bench: {problem}", file=sys.stderr)
        fail("output checks failed", 1)

    correct = bool(detail["correct"]) and done.returncode == 0
    print(json.dumps(detail, separators=(",", ":")))
    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the campaign benchmark.

    python3 campaign_bench/selftest.py

Runs every workload at a tiny virtual budget (--tiny), traced and untraced,
with the same seed, and asserts that

- BENCHMARK.json is well formed and every metric name it declares matches
  [A-Za-z0-9_.-]+ and carries a unit;
- every metric the benchmark prints does too, and the result line holds
  exactly the declared metrics of its mode;
- the traced run reproduces the untraced test cases, ops, candidates and
  coverage of every campaign;
- campaign digests repeat within a run and across the two processes;
- without the engine sources, run.py exits non-zero and prints no result.

Exits 0 when every check holds.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 7
failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}")


def run(workload, trace, cwd=ROOT, env=None):
    command = [sys.executable, str(Path(cwd) / "campaign_bench" / "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=900)


def check_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    names = []
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            names.append(metric["name"])
            check(NAME.fullmatch(metric["name"]) is not None, f"bad name {metric['name']}")
            check(UNIT.fullmatch(metric.get("unit", "")) is not None,
                  f"{metric['name']}: bad unit")
            check(metric.get("better") in ("higher", "lower"), f"{metric['name']}: better")
            if group == "end_to_end":
                check(0 < metric["bound"] <= 0.25, f"{metric['name']}: bound")
    check(len(names) == len(set(names)), "metric names repeat")
    check({"name": "setup_s", "unit": "s", "better": "lower"}.items()
          <= next((m for m in spec["end_to_end"] if m["name"] == "setup_s"), {}).items(),
          "setup_s must be an end-to-end metric in s, lower is better")
    return spec


def check_output(done, workload, trace, spec):
    label = f"{workload} trace={trace}"
    check(done.returncode == 0, f"{label}: exit {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        check(False, f"{label}: expected a detail line and a result line")
        return None
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{label}: not correct")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    check(set(result["metrics"]) == set(declared), f"{label}: result metrics != declared")
    for name, metric in list(detail["metrics"].items()) + list(result["metrics"].items()):
        check(NAME.fullmatch(name) is not None, f"{label}: bad metric name {name}")
        check(UNIT.fullmatch(metric.get("unit", "")) is not None, f"{label}: {name} unit")
        check(isinstance(metric.get("value"), (int, float)), f"{label}: {name} value")
    host = detail["host"]
    check(host["nproc"] >= 1 and host["build_type"] and host["compiler"], f"{label}: host")
    return detail


def main():
    spec = check_spec()
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload}")
        traced = check_output(run(workload, 1), workload, 1, spec)
        untraced = check_output(run(workload, 0), workload, 0, spec)
        if traced is None or untraced is None:
            continue
        check(traced["passes"]["traced"] >= 1, f"{workload}: no traced pass")
        keys = ("testcases", "total_ops", "candidates", "branch_coverage", "digest")
        for plain, timed in zip(traced["campaigns"], traced["traced_campaigns"]):
            for key in keys:
                check(plain[key] == timed[key], f"{workload}: traced {key} differs")
        check([c["digest"] for c in traced["campaigns"]]
              == [c["digest"] for c in untraced["campaigns"]],
              f"{workload}: digests differ between processes")
        check(untraced["passes"]["untraced"] >= 2, f"{workload}: digests not repeated")

    print("== without engine sources")
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "campaign_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
    done = run(spec["workloads"][0]["name"], 0, cwd=bare, env=env)
    check(done.returncode != 0, "bare directory: run.py succeeded")
    check(not done.stdout.strip(), "bare directory: run.py printed a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

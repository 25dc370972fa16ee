#!/usr/bin/env python3
"""Compare two campaign benchmark result files, workload by workload.

    python3 campaign_bench/diff.py BEFORE AFTER

A result file is the stdout of one or more campaign_bench/run.py runs,
appended together, e.g.

    for s in 1 2 3 4 5; do
      python3 campaign_bench/run.py --workload paper-24h --seed $s --seconds 35 --trace 1
    done >> before.jsonl

Only the detail records (the lines carrying "workload") are read. For each
workload and metric the tool takes the median over the file's runs and prints
every metric whose median moved beyond its limit: the bound BENCHMARK.json
gives an end-to-end metric, or 10% for every other metric. The
direction ("better") comes from BENCHMARK.json; time metrics it does not list
count as lower-is-better, anything else as a plain move. Exits 1 if an
end-to-end metric got worse beyond its bound, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

TIME_UNITS = {"ns", "us", "ms", "s"}
LAYER_THRESHOLD = 0.10  # relative move reported for metrics without a bound


def load_runs(path):
    """workload -> metric -> list of values (one per run)."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "workload" not in record:
            continue
        per_metric = runs.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            if metric["value"] is not None:
                per_metric.setdefault(name, []).append((metric["value"], metric["unit"]))
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args()

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    direction = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    before, after = load_runs(args.before), load_runs(args.after)
    regressed = False
    for workload in sorted(set(before) & set(after)):
        rows = []
        for name in sorted(set(before[workload]) & set(after[workload])):
            a_values, b_values = before[workload][name], after[workload][name]
            unit = a_values[0][1]
            a = statistics.median(v for v, _ in a_values)
            b = statistics.median(v for v, _ in b_values)
            if a == b:
                continue
            change = (b - a) / abs(a) if a else float("inf")
            limit = end_to_end[name]["bound"] if name in end_to_end else LAYER_THRESHOLD
            if abs(change) <= limit:
                continue
            better = direction.get(name, "lower" if unit in TIME_UNITS else None)
            if better is None:
                verdict = "moved"
            else:
                worse = change > 0 if better == "lower" else change < 0
                verdict = "WORSE" if worse else "better"
                if worse and name in end_to_end:
                    regressed = True
            kind = "e2e" if name in end_to_end else "layer"
            rows.append(f"  {kind:5s} {name:48s} {a:14.6g} -> {b:14.6g} {unit:6s} "
                        f"{change:+8.1%} (limit {limit:.0%}) {verdict}")
        runs = f"{len(next(iter(before[workload].values())))} vs " \
               f"{len(next(iter(after[workload].values())))} runs"
        print(f"{workload} ({runs}):")
        print("\n".join(rows) if rows else "  no metric moved beyond its limit")
    for workload in sorted(set(before) ^ set(after)):
        print(f"{workload}: only in {'before' if workload in before else 'after'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""CI gate for the GeoFS node-count sweep (the scale-smoke job).

Reads a bench_throughput summary JSON and checks that campaign throughput
still scales: the 1000-node campaign must retain at least MIN_RATIO of the
100-node campaign's ops/sec, and the 10000-node campaign at least
MIN_RATIO_10K of the 1000-node one. Absolute ops/sec floors are
deliberately not enforced — CI runners vary too much across machine
generations — but the ratios are hardware-independent: if one collapses, a
fleet-sized scan crept back into a per-op path (the exact regression the
ordered load index exists to prevent).

Usage: check_scale_smoke.py <bench_summary.json>
"""

import json
import sys

# Comfortably between the healthy ratio (~0.70 on a quiet machine) and the
# ~0.28 this repo measured when recovery scheduling still sorted the whole
# brick fleet per pass.
MIN_RATIO = 0.40

# Well below the 10000:1000 ratios of five runs on a shared 4-core host,
# Release build (0.64-1.00, median 0.78), the same margin MIN_RATIO keeps.
MIN_RATIO_10K = 0.40

PREFIX = "scale.GeoFS."


def main(argv):
    if len(argv) != 2:
        print(f"usage: {argv[0]} <bench_summary.json>", file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        gauges = json.load(f)["gauges"]

    rows = {}  # node count -> {"ops": float, "campaign": float}
    for key, value in gauges.items():
        if not key.startswith(PREFIX):
            continue
        node_part, _, series = key[len(PREFIX):].partition(".")
        if not node_part.startswith("n"):
            continue
        row = rows.setdefault(int(node_part[1:]), {})
        if series == "ops_per_sec":
            row["ops"] = value
        elif series == "campaign_ops_per_sec":
            row["campaign"] = value

    if not rows:
        print(f"no {PREFIX}* gauges in {argv[1]} — sweep did not run")
        return 1

    print(f"{'nodes':>8}  {'ops/sec':>12}  {'campaign ops/sec':>18}")
    for nodes in sorted(rows):
        row = rows[nodes]
        campaign = row.get("campaign")
        campaign_cell = ("(missing)".rjust(18) if campaign is None
                         else format(campaign, "18.0f"))
        print(f"{nodes:>8}  {row.get('ops', 0):>12.0f}  {campaign_cell}")

    for nodes in (100, 1000, 10000):
        if rows.get(nodes, {}).get("campaign") is None:
            print(f"missing {PREFIX}n{nodes}.campaign_ops_per_sec")
            return 1

    print()
    failed = False
    for big, small, minimum in ((1000, 100, MIN_RATIO), (10000, 1000, MIN_RATIO_10K)):
        ratio = rows[big]["campaign"] / rows[small]["campaign"]
        print(f"{big}:{small} campaign throughput ratio: {ratio:.2f} "
              f"(minimum {minimum:.2f})")
        failed = failed or ratio < minimum
    if failed:
        print("FAIL: per-op cost is growing with fleet size")
        return 1
    print("scale smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env bash
# CI fleet-smoke: run a 2-worker fleet with the worker-0 crash hook armed,
# require the supervisor to restart the crashed worker and finish every job,
# then replay the fleet directory with check_fleet_invariants.py (exactly-once
# done records, no lost corpus seeds, monotone heartbeats, >= 1 restart).
#
# Usage: scripts/fleet_smoke.sh [path/to/themis_cli]
set -euo pipefail

CLI="${1:-./build/examples/themis_cli}"
if [[ ! -x "$CLI" ]]; then
  echo "fleet-smoke: $CLI not found or not executable" >&2
  exit 1
fi
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
FLEET="$WORK/fleet"

# 2 workers x 4 jobs, 2 virtual hours each: seconds of wall time, several
# checkpoints per job so the crash hook halts mid-job, not at a boundary.
echo "fleet-smoke: 2-worker fleet, worker 0 crashes after its first checkpoint"
OUT="$("$CLI" fleet run gluster --dir="$FLEET" --workers 2 \
    --hours 2 --seed 20260808 --seeds 4 \
    --checkpoint-every-ops 500 --import-every 16 --heartbeat-every 1 \
    --crash-worker0-after-checkpoints 1 | tee /dev/stderr)"

RESTARTS="$(sed -n 's/.* \([0-9][0-9]*\) worker restarts.*/\1/p' <<<"$OUT")"
if [[ -z "$RESTARTS" || "$RESTARTS" -lt 1 ]]; then
  echo "fleet-smoke: FAIL — expected >= 1 worker restart, got '${RESTARTS:-none}'" >&2
  exit 1
fi
echo "fleet-smoke: supervisor restarted a worker $RESTARTS time(s)"

echo "fleet-smoke: fleet status after completion"
"$CLI" fleet status --dir="$FLEET"

echo "fleet-smoke: replaying invariants"
python3 "$SCRIPT_DIR/check_fleet_invariants.py" "$FLEET" \
    --expect-jobs 4 --expect-restarts 1

# The merged artifacts the supervisor promises CI.
for artifact in fleet_summary.json fleet_metrics.json fleet_telemetry.jsonl; do
  if [[ ! -s "$FLEET/$artifact" ]]; then
    echo "fleet-smoke: FAIL — missing merged artifact $artifact" >&2
    exit 1
  fi
done
python3 -c "import json,sys; json.load(open(sys.argv[1])); json.load(open(sys.argv[2]))" \
    "$FLEET/fleet_summary.json" "$FLEET/fleet_metrics.json"

# The event stream is rendered once from the done records: event lines in
# ascending job order, then exactly one job_summary per done record.
python3 - "$FLEET" <<'PY'
import json, os, re, sys
fleet = sys.argv[1]
done = sorted(int(m.group(1)) for m in
              (re.fullmatch(r"job-(\d+)\.res", n)
               for n in os.listdir(os.path.join(fleet, "done"))) if m)
events, summaries = [], []
with open(os.path.join(fleet, "fleet_telemetry.jsonl")) as stream:
    for line in stream:
        record = json.loads(line)
        if record["event"] == "job_summary":
            summaries.append(record["job"])
        else:
            events.append(record["job"])
if events != sorted(events):
    sys.exit("fleet-smoke: FAIL — event lines are not in ascending job order")
if sorted(summaries) != done:
    sys.exit(f"fleet-smoke: FAIL — job_summary jobs {sorted(summaries)} "
             f"!= done records {done}")
print(f"fleet-smoke: {len(events)} event lines in job order, "
      f"{len(summaries)} job summaries for {len(done)} done records")
PY

echo "fleet-smoke: PASS — crash survived, invariants hold, artifacts merged"

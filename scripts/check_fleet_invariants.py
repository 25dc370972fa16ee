#!/usr/bin/env python3
"""Replay a finished fleet directory and assert its correctness invariants.

Fleet mode trades digest determinism for throughput (worker interleaving is
timing-dependent), so CI validates it by invariants instead of byte-equality:

  completeness   queue/ and claimed/ are empty; done/ holds exactly one
                 well-framed record per job index, contiguous from 0
  no lost seeds  every fingerprint a worker logged to its publog exists in
                 the corpus directory as a well-framed seed file whose name,
                 payload fingerprint, and checksum all agree
  monotonicity   per worker heartbeat file, seq is strictly increasing
                 within each pid incarnation, and ops/testcases/coverage/
                 transitions never decrease within a (pid, job) run
  restart proof  with --expect-restarts N, at least one worker's heartbeat
                 stream shows > N distinct pids (the supervisor respawned it)

This is an independent re-implementation of the frame format
(src/common/snapshot_io.h's WriteFramedFile: 8-byte magic, u32 LE version,
u64 LE payload size, u64 LE FNV-1a64 payload checksum, then the payload) so
a framing bug in the C++ reader/writer pair cannot self-certify. The
versions are src/fleet/corpus.h's kCorpusSeedFormatVersion and
src/fleet/work_queue.h's kFleetFileFormatVersion.

Usage: check_fleet_invariants.py FLEET_DIR [--corpus-dir DIR]
           [--expect-jobs N] [--expect-restarts N]
"""

import argparse
import json
import os
import re
import struct
import sys

SEED_MAGIC = b"THMSEED1"
RESULT_MAGIC = b"THMSRES1"
FRAME_HEADER = 28
SEED_VERSION = 1
RESULT_VERSION = 2

_errors = []


def fail(message):
    _errors.append(message)
    print(f"FAIL: {message}")


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def read_framed(path, magic, version):
    """Returns the validated payload bytes, or None after recording a FAIL."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < FRAME_HEADER:
        fail(f"{path}: truncated header ({len(blob)} bytes)")
        return None
    got_magic = blob[:8]
    got_version, size, checksum = struct.unpack_from("<IQQ", blob, 8)
    if got_magic != magic:
        fail(f"{path}: magic {got_magic!r}, want {magic!r}")
        return None
    if got_version != version:
        fail(f"{path}: format version {got_version}, want {version}")
        return None
    payload = blob[FRAME_HEADER:]
    if len(payload) != size:
        fail(f"{path}: payload is {len(payload)} bytes, header claims {size}")
        return None
    if fnv1a64(payload) != checksum:
        fail(f"{path}: payload checksum mismatch")
        return None
    return payload


def check_queue_drained(fleet_dir, expect_jobs):
    queued = sorted(os.listdir(os.path.join(fleet_dir, "queue")))
    claimed = sorted(os.listdir(os.path.join(fleet_dir, "claimed")))
    if queued:
        fail(f"queue/ still holds {len(queued)} job(s): {queued[:5]}")
    if claimed:
        fail(f"claimed/ still holds {len(claimed)} orphan claim(s): "
             f"{claimed[:5]}")

    done_dir = os.path.join(fleet_dir, "done")
    indices = []
    for name in sorted(os.listdir(done_dir)):
        match = re.fullmatch(r"job-(\d{6})\.res", name)
        if not match:
            fail(f"done/{name}: foreign file in the done directory")
            continue
        if read_framed(os.path.join(done_dir, name), RESULT_MAGIC,
                       RESULT_VERSION) is not None:
            indices.append(int(match.group(1)))
    dupes = sorted({i for i in indices if indices.count(i) > 1})
    if dupes:
        fail(f"done records duplicated for job indices {dupes}")
    if sorted(indices) != list(range(len(indices))):
        fail(f"done record indices not contiguous from 0: {sorted(indices)}")
    if expect_jobs is not None and len(indices) != expect_jobs:
        fail(f"{len(indices)} done records, expected {expect_jobs}")
    print(f"  done records: {len(indices)} (exactly-once, contiguous)")
    return len(indices)


def check_corpus(corpus_dir):
    """Returns the set of fingerprints backed by a valid seed file."""
    valid = set()
    files = 0
    for name in sorted(os.listdir(corpus_dir)):
        match = re.fullmatch(r"seed-([0-9a-f]{16})\.seed", name)
        if not match:
            if name.endswith(".tmp"):
                continue  # an in-flight publication that never renamed
            fail(f"corpus/{name}: foreign file in the corpus directory")
            continue
        files += 1
        name_fingerprint = int(match.group(1), 16)
        payload = read_framed(os.path.join(corpus_dir, name), SEED_MAGIC,
                              SEED_VERSION)
        if payload is None:
            continue
        if len(payload) < 8:
            fail(f"corpus/{name}: payload too short for a fingerprint")
            continue
        payload_fingerprint = struct.unpack_from("<Q", payload, 0)[0]
        if payload_fingerprint != name_fingerprint:
            fail(f"corpus/{name}: payload fingerprint "
                 f"{payload_fingerprint:016x} disagrees with the file name")
            continue
        valid.add(name_fingerprint)
    print(f"  corpus: {len(valid)}/{files} seed files valid")
    return valid


def check_no_lost_seeds(fleet_dir, corpus_fingerprints):
    hb_dir = os.path.join(fleet_dir, "hb")
    logged = set()
    lines = 0
    for name in sorted(os.listdir(hb_dir)):
        if not name.endswith(".publog"):
            continue
        with open(os.path.join(hb_dir, name)) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                lines += 1
                if not re.fullmatch(r"[0-9a-f]{16}", line):
                    fail(f"hb/{name}: malformed publog line {line!r}")
                    continue
                logged.add(int(line, 16))
    lost = logged - corpus_fingerprints
    if lost:
        fail(f"{len(lost)} published seed(s) missing from the corpus: "
             f"{[f'{x:016x}' for x in sorted(lost)[:5]]}")
    # Line count can exceed the distinct-fingerprint count: two workers
    # racing the same fingerprint both log their publication but share one
    # corpus file — the invariant is set inclusion, not count equality.
    print(f"  publog: {lines} publication(s), {len(logged)} distinct, "
          f"all present in corpus" if not lost else
          f"  publog: {lines} publication(s), {len(logged)} distinct")


def check_heartbeats(fleet_dir):
    """Returns {worker_id: [distinct pids in first-seen order]}."""
    hb_dir = os.path.join(fleet_dir, "hb")
    pids_by_worker = {}
    for name in sorted(os.listdir(hb_dir)):
        match = re.fullmatch(r"worker-(\d+)\.hb\.jsonl", name)
        if not match:
            continue
        worker_id = int(match.group(1))
        pids = []
        last_seq = {}       # pid -> last seq
        last_progress = {}  # (pid, job) -> (ops, testcases, coverage, transitions)
        path = os.path.join(hb_dir, name)
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    hb = json.loads(line)
                except json.JSONDecodeError:
                    fail(f"hb/{name}:{lineno}: unparsable heartbeat line")
                    continue
                if hb.get("worker") != worker_id:
                    fail(f"hb/{name}:{lineno}: worker id {hb.get('worker')} "
                         f"in worker {worker_id}'s file")
                pid = hb["pid"]
                if pid not in last_seq:
                    pids.append(pid)
                elif hb["seq"] <= last_seq[pid]:
                    fail(f"hb/{name}:{lineno}: seq {hb['seq']} not above "
                         f"{last_seq[pid]} for pid {pid}")
                last_seq[pid] = hb["seq"]
                # Only "run" heartbeats carry cumulative per-job progress;
                # job_done/idle/exit lines report a fresh (zeroed) state.
                if hb.get("phase") != "run":
                    continue
                key = (pid, hb["job"])
                progress = (hb["ops"], hb["testcases"], hb["coverage"],
                            hb["transitions"])
                if key in last_progress:
                    prev = last_progress[key]
                    for field, before, now in zip(
                            ("ops", "testcases", "coverage", "transitions"),
                            prev, progress):
                        if now < before:
                            fail(f"hb/{name}:{lineno}: {field} regressed "
                                 f"{before} -> {now} within pid {pid} "
                                 f"job {hb['job']}")
                last_progress[key] = progress
        pids_by_worker[worker_id] = pids
        print(f"  heartbeats: worker {worker_id}: {len(last_seq)} "
              f"incarnation(s) (pids {pids}), monotone")
    if not pids_by_worker:
        fail("no worker heartbeat files found under hb/")
    return pids_by_worker


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("fleet_dir")
    parser.add_argument("--corpus-dir", default=None,
                        help="shared corpus directory (default: "
                             "FLEET_DIR/corpus)")
    parser.add_argument("--expect-jobs", type=int, default=None,
                        help="require exactly N done records")
    parser.add_argument("--expect-restarts", type=int, default=0,
                        help="require some worker to show more than N+0 "
                             "incarnations (default 0 = any)")
    args = parser.parse_args()

    fleet_dir = args.fleet_dir
    for sub in ("queue", "claimed", "done", "hb"):
        if not os.path.isdir(os.path.join(fleet_dir, sub)):
            print(f"error: {fleet_dir} has no {sub}/ — not a fleet directory")
            return 2
    corpus_dir = args.corpus_dir or os.path.join(fleet_dir, "corpus")
    if not os.path.isdir(corpus_dir):
        print(f"error: corpus directory {corpus_dir} does not exist")
        return 2

    print(f"checking fleet directory {fleet_dir}")
    check_queue_drained(fleet_dir, args.expect_jobs)
    corpus_fingerprints = check_corpus(corpus_dir)
    check_no_lost_seeds(fleet_dir, corpus_fingerprints)
    pids_by_worker = check_heartbeats(fleet_dir)

    if args.expect_restarts > 0:
        restarts = sum(max(0, len(p) - 1) for p in pids_by_worker.values())
        if restarts < args.expect_restarts:
            fail(f"observed {restarts} worker restart(s) across heartbeat "
                 f"streams, expected >= {args.expect_restarts}")
        else:
            print(f"  restarts: {restarts} observed (>= "
                  f"{args.expect_restarts} required)")

    if _errors:
        print(f"\nfleet invariants FAILED ({len(_errors)} violation(s))")
        return 1
    print("\nfleet invariants OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

// The fleet supervisor (DESIGN.md §17): stages the campaign matrix into the
// shared work queue, fork/execs N worker processes, and babysits them —
// liveness via waitpid plus heartbeat-file staleness, crash restarts capped
// per worker (each restart resumes orphaned claims from their newest valid
// checkpoint). When every worker has settled it renders the outputs under
// <dir> from what the workers left: the done records become
// fleet_summary.json and the fleet_telemetry.jsonl event stream (ascending
// job order, as the plain runner's --telemetry-out), and the per-worker
// metrics records sum into the fleet BENCH document fleet_metrics.json.
//
// Fleet mode trades bit-identity for throughput: instead of digests it is
// validated by invariants — no lost seeds (publish logs ⊆ corpus), monotone
// per-incarnation coverage (heartbeat history), and exactly-once job
// accounting (done records) — which scripts/check_fleet_invariants.py
// replays from the fleet directory after a run.

#ifndef SRC_FLEET_SUPERVISOR_H_
#define SRC_FLEET_SUPERVISOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/fleet/work_queue.h"
#include "src/harness/runner.h"

namespace themis {

struct FleetConfig {
  std::string dir;         // fleet root; created if missing
  std::string corpus_dir;  // defaults to <dir>/corpus (set under /dev/shm
                           // for an shm-backed corpus)
  int workers = 2;
  CampaignMatrix matrix;
  uint64_t checkpoint_every_ops = 2000;  // worker migration granularity
  int import_every = 64;
  int heartbeat_every = 32;
  // A worker whose heartbeat file goes this stale while its process lives
  // is presumed hung: SIGKILLed and restarted. <= 0 disables the check
  // (campaigns that legitimately pause longer than any sane timeout).
  double heartbeat_timeout_s = 0.0;
  int max_restarts_per_worker = 8;
  // argv prefix for spawning one worker, e.g. {"/proc/self/exe", "fleet",
  // "worker"}; the supervisor appends --dir/--worker/--corpus-dir/cadence
  // flags per worker.
  std::vector<std::string> worker_command;
  // Crash-test hook (fleet-smoke CI): worker 0's FIRST incarnation gets
  // --halt-after-checkpoints=<n>, so it deterministically dies mid-job and
  // exercises the restart-from-checkpoint path.
  int crash_worker0_after_checkpoints = 0;
};

struct FleetOutcome {
  int jobs_total = 0;
  int jobs_done = 0;
  int jobs_failed = 0;   // done records carrying a job failure
  int worker_restarts = 0;
  int workers_failed = 0;  // gave up after max_restarts_per_worker
  uint64_t total_ops = 0;
  int64_t testcases = 0;
  int distinct_failures = 0;
  size_t corpus_seeds = 0;
  size_t fleet_transitions = 0;  // union of per-job transition pairs
  double wall_seconds = 0.0;
};

// Writes job specs for every expanded matrix job that has no done record
// yet (so re-running a supervisor over an existing fleet dir resumes it).
// Exposed for the in-process fleet tests.
Status StageFleetJobs(const FleetPaths& paths, const CampaignMatrix& matrix,
                      uint64_t checkpoint_every_ops);

Result<FleetOutcome> RunFleetSupervisor(const FleetConfig& config);

// --fleet-status: a point-in-time snapshot assembled from the queue counts,
// corpus size, and each worker's newest heartbeat.
struct FleetWorkerStatus {
  int worker_id = 0;
  long pid = 0;
  std::string phase;
  uint64_t job_index = 0;
  uint64_t total_ops = 0;
  uint64_t transitions = 0;
  uint64_t published = 0;
  uint64_t imported = 0;
  double heartbeat_age_s = -1.0;  // since last heartbeat write; -1 unknown
};

struct FleetStatusSnapshot {
  QueueCounts queue;
  size_t corpus_seeds = 0;
  std::vector<FleetWorkerStatus> workers;
};

Result<FleetStatusSnapshot> CollectFleetStatus(const std::string& dir);
std::string RenderFleetStatus(const FleetStatusSnapshot& snapshot);

}  // namespace themis

#endif  // SRC_FLEET_SUPERVISOR_H_

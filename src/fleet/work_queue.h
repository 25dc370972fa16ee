// The fleet's shared work queue: matrix jobs as files, claims as renames
// (DESIGN.md §17).
//
// Directory layout under the fleet root:
//
//   queue/job-<index>.job          unclaimed job specs (framed "THMSJOB1")
//   claimed/job-<index>.w<k>.job   specs claimed by worker k
//   done/job-<index>.res           done records (framed "THMSRES1")
//   corpus/                        shared seed corpus (corpus.h)
//   ckpt/                          campaign snapshots, job-<index>-*.ckpt
//   hb/                            per-worker heartbeat JSONL
//   telemetry/worker-<k>.metrics   worker k's counters and gauges at exit
//                                  (framed "THMSMET1")
//
// Claiming is a rename(2) from queue/ into claimed/: atomic on one
// filesystem, so exactly one worker wins each job with no lock file or
// server. A crashed worker leaves its spec in claimed/; its restarted
// incarnation (same worker id) re-adopts those orphans first and resumes
// each from the newest valid checkpoint in ckpt/. A job is counted exactly
// once — when its done record lands in done/ — so supervisor totals never
// double-count test cases across crash/restart cycles.

#ifndef SRC_FLEET_WORK_QUEUE_H_
#define SRC_FLEET_WORK_QUEUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/harness/runner.h"
#include "src/telemetry/metrics.h"

namespace themis {

inline constexpr std::string_view kJobSpecMagic = "THMSJOB1";
inline constexpr std::string_view kDoneRecordMagic = "THMSRES1";
inline constexpr std::string_view kWorkerMetricsMagic = "THMSMET1";
// v2: a done record stores a failed job's status code and message apart.
inline constexpr uint32_t kFleetFileFormatVersion = 2;

struct FleetPaths {
  std::string root;
  std::string queue;
  std::string claimed;
  std::string done;
  std::string corpus;
  std::string ckpt;
  std::string hb;
  std::string telemetry;

  static FleetPaths At(const std::string& root);
  Status EnsureDirs() const;
};

std::string QueueJobFileName(size_t job_index);
std::string ClaimedJobFileName(size_t job_index, int worker_id);
std::string DoneRecordFileName(size_t job_index);

// A job spec carries the job's identity and its full CampaignConfig, every
// field including checkpoint plumbing; reading it validates the config.
Status WriteJobSpecFile(const std::string& path, const CampaignJob& job);
Result<CampaignJob> ReadJobSpecFile(const std::string& path);

// A worker's completed job: its identity plus the campaign result (or the
// per-job failure status for jobs that validated but could not run).
struct FleetDoneRecord {
  CampaignJob job;
  Status job_status = Status::Ok();
  CampaignResult result;  // meaningful only when job_status.ok()
  int worker_id = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

Status WriteDoneRecordFile(const std::string& path,
                           const FleetDoneRecord& record);
Result<FleetDoneRecord> ReadDoneRecordFile(const std::string& path);

// A worker process's counters and gauges at exit; the supervisor sums them
// into fleet_metrics.json. Histograms stay out: the fleet document carries
// none.
std::string WorkerMetricsFileName(int worker_id);
Status WriteWorkerMetricsFile(const std::string& path,
                              const MetricsSnapshot& metrics);
Result<MetricsSnapshot> ReadWorkerMetricsFile(const std::string& path);

struct ClaimedJob {
  CampaignJob job;
  std::string claim_path;
};

// The next job for `worker_id`: first any orphaned claim already owned by
// this worker id (ascending job index — a restart resumes where the dead
// incarnation stopped), then the lowest-index unclaimed queue entry it can
// win. std::nullopt when the queue is drained.
Result<std::optional<ClaimedJob>> NextJob(const FleetPaths& paths,
                                          int worker_id);

// Moves a claim to its done record: writes done/job-<index>.res (atomic),
// then removes the claim file.
Status MarkJobDone(const FleetPaths& paths, const ClaimedJob& claimed,
                   const FleetDoneRecord& record);

// All done records in `paths.done`, ascending job index.
Result<std::vector<FleetDoneRecord>> ReadAllDoneRecords(
    const FleetPaths& paths);

// Counts of queue/claimed/done entries, for --fleet-status.
struct QueueCounts {
  size_t queued = 0;
  size_t claimed = 0;
  size_t done = 0;
};
QueueCounts CountQueueEntries(const FleetPaths& paths);

}  // namespace themis

#endif  // SRC_FLEET_WORK_QUEUE_H_

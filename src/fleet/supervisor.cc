#include "src/fleet/supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "src/common/log.h"
#include "src/common/snapshot_io.h"
#include "src/common/strings.h"
#include "src/dfs/types.h"
#include "src/fleet/corpus.h"
#include "src/fleet/heartbeat.h"
#include "src/harness/telemetry_export.h"
#include "src/telemetry/metrics.h"

namespace themis {

namespace fs = std::filesystem;

Status StageFleetJobs(const FleetPaths& paths, const CampaignMatrix& matrix,
                      uint64_t checkpoint_every_ops) {
  if (Status s = paths.EnsureDirs(); !s.ok()) {
    return s;
  }
  std::vector<CampaignJob> jobs = CampaignRunner::Expand(matrix);
  for (CampaignJob& job : jobs) {
    const std::string done_path =
        (fs::path(paths.done) / DoneRecordFileName(job.index)).string();
    std::error_code ec;
    if (fs::exists(done_path, ec)) {
      continue;  // already finished in a previous supervisor run
    }
    job.config.job_index = job.index;
    job.config.checkpoint_dir = paths.ckpt;
    job.config.checkpoint_every_ops = checkpoint_every_ops;
    job.config.resume = true;
    job.config.collect_telemetry = true;
    const std::string queue_path =
        (fs::path(paths.queue) / QueueJobFileName(job.index)).string();
    // Claimed-but-unfinished jobs keep their claim file; re-staging them in
    // queue/ would let a second worker run the same campaign.
    bool claimed_somewhere = false;
    for (fs::directory_iterator it(paths.claimed, ec);
         !ec && it != fs::directory_iterator(); ++it) {
      std::string name = it->path().filename().string();
      if (name.rfind(Sprintf("job-%06zu.w", job.index), 0) == 0) {
        claimed_somewhere = true;
        break;
      }
    }
    if (claimed_somewhere) {
      continue;
    }
    if (Status s = WriteJobSpecFile(queue_path, job); !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

namespace {

// How often the supervisor polls worker liveness.
constexpr std::chrono::milliseconds kPollInterval{50};

struct WorkerProc {
  int worker_id = 0;
  pid_t pid = -1;
  int restarts = 0;
  int incarnation = 0;
  bool done = false;    // exited 0
  bool failed = false;  // exhausted restarts
};

// fork/execv one worker. The child never returns.
Result<pid_t> SpawnWorker(const FleetConfig& config,
                          const std::string& corpus_dir, int worker_id,
                          bool with_crash_hook) {
  std::vector<std::string> argv_storage = config.worker_command;
  argv_storage.push_back("--dir=" + config.dir);
  argv_storage.push_back(Sprintf("--worker=%d", worker_id));
  argv_storage.push_back("--corpus-dir=" + corpus_dir);
  argv_storage.push_back(Sprintf("--import-every=%d", config.import_every));
  argv_storage.push_back(
      Sprintf("--heartbeat-every=%d", config.heartbeat_every));
  if (with_crash_hook) {
    argv_storage.push_back(Sprintf("--halt-after-checkpoints=%d",
                                   config.crash_worker0_after_checkpoints));
  }
  std::vector<char*> argv;
  argv.reserve(argv_storage.size() + 1);
  for (std::string& arg : argv_storage) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) {
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    // execv only returns on failure; die loudly so waitpid sees it.
    _exit(127);
  }
  return pid;
}

double FileAgeSeconds(const std::string& path) {
  std::error_code ec;
  auto mtime = fs::last_write_time(path, ec);
  if (ec) {
    return -1.0;
  }
  auto age = fs::file_time_type::clock::now() - mtime;
  return std::chrono::duration<double>(age).count();
}

}  // namespace

Result<FleetOutcome> RunFleetSupervisor(const FleetConfig& config) {
  if (config.dir.empty()) {
    return Status::InvalidArgument("fleet supervisor needs a directory");
  }
  if (config.workers < 1) {
    return Status::InvalidArgument("fleet needs at least one worker");
  }
  if (config.worker_command.empty()) {
    return Status::InvalidArgument("fleet needs a worker command");
  }
  FleetPaths paths = FleetPaths::At(config.dir);
  const std::string corpus_dir =
      config.corpus_dir.empty() ? paths.corpus : config.corpus_dir;
  if (Status s = StageFleetJobs(paths, config.matrix,
                                config.checkpoint_every_ops);
      !s.ok()) {
    return s;
  }
  {
    std::error_code ec;
    fs::create_directories(corpus_dir, ec);
  }
  const std::string stream_path =
      (fs::path(config.dir) / "fleet_telemetry.jsonl").string();
  const std::string summary_path =
      (fs::path(config.dir) / "fleet_summary.json").string();
  const std::string bench_path =
      (fs::path(config.dir) / "fleet_metrics.json").string();

  auto start = std::chrono::steady_clock::now();
  std::vector<WorkerProc> procs(static_cast<size_t>(config.workers));
  for (int k = 0; k < config.workers; ++k) {
    procs[k].worker_id = k;
    bool crash_hook = k == 0 && config.crash_worker0_after_checkpoints > 0;
    Result<pid_t> pid = SpawnWorker(config, corpus_dir, k, crash_hook);
    if (!pid.ok()) {
      return pid.status();
    }
    procs[k].pid = pid.value();
    procs[k].incarnation = 1;
    THEMIS_COUNTER_INC("fleet.workers_spawned", 1);
  }

  FleetOutcome outcome;

  while (true) {
    bool all_settled = true;
    for (WorkerProc& proc : procs) {
      if (proc.done || proc.failed) {
        continue;
      }
      all_settled = false;
      int wait_status = 0;
      pid_t waited = ::waitpid(proc.pid, &wait_status, WNOHANG);
      bool needs_restart = false;
      if (waited == proc.pid) {
        if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0) {
          proc.done = true;
          continue;
        }
        THEMIS_LOG(kWarn, "fleet worker %d (pid %ld) died (status %d)",
                   proc.worker_id, static_cast<long>(proc.pid), wait_status);
        needs_restart = true;
      } else if (config.heartbeat_timeout_s > 0) {
        const std::string hb_path =
            (fs::path(paths.hb) / HeartbeatFileName(proc.worker_id)).string();
        double age = FileAgeSeconds(hb_path);
        if (age > config.heartbeat_timeout_s) {
          THEMIS_LOG(kWarn, "fleet worker %d heartbeat stale (%.1fs); killing",
                     proc.worker_id, age);
          ::kill(proc.pid, SIGKILL);
          ::waitpid(proc.pid, &wait_status, 0);
          needs_restart = true;
        }
      }
      if (!needs_restart) {
        continue;
      }
      if (proc.restarts >= config.max_restarts_per_worker) {
        proc.failed = true;
        ++outcome.workers_failed;
        THEMIS_LOG(kWarn, "fleet worker %d exhausted %d restarts; giving up",
                   proc.worker_id, proc.restarts);
        continue;
      }
      ++proc.restarts;
      ++proc.incarnation;
      ++outcome.worker_restarts;
      THEMIS_COUNTER_INC("fleet.worker_restarts", 1);
      // Restarts never re-apply the crash hook: the point is to resume the
      // orphaned claim from its checkpoint and finish it.
      Result<pid_t> pid =
          SpawnWorker(config, corpus_dir, proc.worker_id, false);
      if (!pid.ok()) {
        return pid.status();
      }
      proc.pid = pid.value();
    }
    if (all_settled) {
      break;
    }
    std::this_thread::sleep_for(kPollInterval);
  }
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // ---- Done records -> the campaign summary and the event stream. ----
  Result<std::vector<FleetDoneRecord>> records = ReadAllDoneRecords(paths);
  if (!records.ok()) {
    return records.status();
  }
  outcome.jobs_total =
      static_cast<int>(CampaignRunner::Expand(config.matrix).size());
  MatrixResult matrix_result;
  matrix_result.threads = config.workers;
  matrix_result.wall_seconds = outcome.wall_seconds;
  std::map<std::string, int> distinct;
  for (FleetDoneRecord& record : records.value()) {
    JobResult job_result;
    job_result.job = record.job;
    job_result.status = record.job_status;
    job_result.result = std::move(record.result);
    job_result.wall_seconds = record.wall_seconds;
    job_result.cpu_seconds = record.cpu_seconds;
    if (job_result.status.ok()) {
      ++outcome.jobs_done;
      outcome.total_ops += job_result.result.total_ops;
      outcome.testcases += job_result.result.testcases;
      for (const auto& [id, at] : job_result.result.distinct_failures) {
        ++distinct[id];
      }
    } else {
      ++outcome.jobs_failed;
    }
    matrix_result.jobs.push_back(std::move(job_result));
  }
  outcome.distinct_failures = static_cast<int>(distinct.size());
  // Fleet-wide transition coverage: distinct (from, to) pairs per flavor,
  // unioned over the jobs' covered-pair lists.
  MetricsSnapshot merged;
  {
    std::map<Flavor, std::set<std::pair<uint8_t, uint8_t>>> pairs_by_flavor;
    for (const JobResult& job_result : matrix_result.jobs) {
      if (!job_result.status.ok()) continue;
      auto& pairs = pairs_by_flavor[job_result.job.config.flavor];
      for (const auto& pair : job_result.result.transition_pairs) {
        pairs.insert(pair);
      }
    }
    for (const auto& [flavor, pairs] : pairs_by_flavor) {
      outcome.fleet_transitions += pairs.size();
      merged.gauges[Sprintf("fleet.transitions.%s",
                            std::string(FlavorName(flavor)).c_str())] +=
          static_cast<int64_t>(pairs.size());
    }
  }
  if (Status s = WriteCampaignSummaryJson(matrix_result, summary_path);
      !s.ok()) {
    return s;
  }
  if (Status s = WriteTelemetryJsonl(matrix_result, stream_path); !s.ok()) {
    return s;
  }

  // ---- Sum per-worker counters and gauges, plus the fleet gauges. ----
  for (int k = 0; k < config.workers; ++k) {
    Result<MetricsSnapshot> worker_metrics = ReadWorkerMetricsFile(
        (fs::path(paths.telemetry) / WorkerMetricsFileName(k)).string());
    // A worker that never exited cleanly (crashed out of restarts) simply
    // contributes no metrics; its done records still count above.
    if (!worker_metrics.ok()) continue;
    for (const auto& [name, value] : worker_metrics->counters) {
      merged.counters[name] += value;
    }
    for (const auto& [name, value] : worker_metrics->gauges) {
      merged.gauges[name] += value;
    }
  }
  outcome.corpus_seeds = ListSeedFileNames(corpus_dir).size();
  merged.gauges["fleet.workers"] += config.workers;
  merged.gauges["fleet.worker_restarts"] += outcome.worker_restarts;
  merged.gauges["fleet.jobs_done"] += outcome.jobs_done;
  merged.gauges["fleet.jobs_failed"] += outcome.jobs_failed;
  merged.gauges["fleet.corpus_seeds"] +=
      static_cast<int64_t>(outcome.corpus_seeds);
  merged.gauges["fleet.transitions"] +=
      static_cast<int64_t>(outcome.fleet_transitions);
  merged.gauges["fleet.total_ops"] += static_cast<int64_t>(outcome.total_ops);
  merged.gauges["fleet.distinct_failures"] += outcome.distinct_failures;
  if (outcome.wall_seconds > 0) {
    merged.gauges["fleet.ops_per_sec"] += static_cast<int64_t>(
        static_cast<double>(outcome.total_ops) / outcome.wall_seconds);
  }
  std::string head = Sprintf(
      "{\n  \"bench\": \"fleet\",\n  \"wall_seconds\": %.6f,\n"
      "  \"workers\": %d,\n",
      outcome.wall_seconds, config.workers);
  if (Status s = WriteFileAtomically(
          bench_path, RenderMetricsSummaryJson(std::move(head), merged));
      !s.ok()) {
    return s;
  }

  THEMIS_LOG(kInfo,
             "fleet done: %d/%d jobs, %d restarts, %llu ops, %zu corpus "
             "seeds, %.1fs",
             outcome.jobs_done, outcome.jobs_total, outcome.worker_restarts,
             static_cast<unsigned long long>(outcome.total_ops),
             outcome.corpus_seeds, outcome.wall_seconds);
  return outcome;
}

Result<FleetStatusSnapshot> CollectFleetStatus(const std::string& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) {
    return Status::NotFound(Sprintf("no fleet directory %s", dir.c_str()));
  }
  FleetPaths paths = FleetPaths::At(dir);
  FleetStatusSnapshot snapshot;
  snapshot.queue = CountQueueEntries(paths);
  snapshot.corpus_seeds = ListSeedFileNames(paths.corpus).size();
  for (fs::directory_iterator it(paths.hb, ec);
       !ec && it != fs::directory_iterator(); ++it) {
    std::string name = it->path().filename().string();
    int worker_id = -1;
    if (std::sscanf(name.c_str(), "worker-%d.hb.jsonl", &worker_id) != 1) {
      continue;
    }
    Result<Heartbeat> hb = ReadLastHeartbeat(it->path().string());
    if (!hb.ok()) {
      continue;
    }
    FleetWorkerStatus status;
    status.worker_id = worker_id;
    status.pid = hb.value().pid;
    status.phase = hb.value().phase;
    status.job_index = hb.value().job_index;
    status.total_ops = hb.value().total_ops;
    status.transitions = hb.value().transitions;
    status.published = hb.value().published;
    status.imported = hb.value().imported;
    status.heartbeat_age_s = FileAgeSeconds(it->path().string());
    snapshot.workers.push_back(std::move(status));
  }
  std::sort(snapshot.workers.begin(), snapshot.workers.end(),
            [](const FleetWorkerStatus& a, const FleetWorkerStatus& b) {
              return a.worker_id < b.worker_id;
            });
  return snapshot;
}

std::string RenderFleetStatus(const FleetStatusSnapshot& snapshot) {
  std::string out = Sprintf(
      "fleet status: %zu queued, %zu claimed, %zu done, %zu corpus seeds\n",
      snapshot.queue.queued, snapshot.queue.claimed, snapshot.queue.done,
      snapshot.corpus_seeds);
  out += Sprintf("%8s %8s %10s %6s %12s %12s %10s %10s %8s\n", "worker",
                 "pid", "phase", "job", "ops", "transitions", "published",
                 "imported", "hb_age");
  for (const FleetWorkerStatus& w : snapshot.workers) {
    out += Sprintf("%8d %8ld %10s %6llu %12llu %12llu %10llu %10llu %7.1fs\n",
                   w.worker_id, w.pid, w.phase.c_str(),
                   static_cast<unsigned long long>(w.job_index),
                   static_cast<unsigned long long>(w.total_ops),
                   static_cast<unsigned long long>(w.transitions),
                   static_cast<unsigned long long>(w.published),
                   static_cast<unsigned long long>(w.imported),
                   w.heartbeat_age_s);
  }
  return out;
}

}  // namespace themis

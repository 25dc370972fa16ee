#include "src/fleet/worker.h"

#include <unistd.h>

#include <filesystem>

#include "src/common/log.h"
#include "src/common/strings.h"
#include "src/fleet/exchange.h"
#include "src/fleet/heartbeat.h"
#include "src/fleet/work_queue.h"
#include "src/telemetry/metrics.h"

namespace themis {

namespace fs = std::filesystem;

Result<FleetWorkerOutcome> RunFleetWorker(const FleetWorkerOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("fleet worker needs a --dir");
  }
  FleetPaths paths = FleetPaths::At(options.dir);
  if (Status s = paths.EnsureDirs(); !s.ok()) {
    return s;
  }
  const std::string corpus_dir =
      options.corpus_dir.empty() ? paths.corpus : options.corpus_dir;
  const std::string heartbeat_path =
      (fs::path(paths.hb) / HeartbeatFileName(options.worker_id)).string();
  const std::string publish_log =
      (fs::path(paths.hb) / Sprintf("worker-%d.publog", options.worker_id))
          .string();

  FleetWorkerOutcome outcome;
  bool first_job = true;
  uint64_t heartbeat_tail_seq = 0;

  while (true) {
    Result<std::optional<ClaimedJob>> next = NextJob(paths, options.worker_id);
    if (!next.ok()) {
      return next.status();
    }
    if (!next.value().has_value()) {
      break;  // queue drained
    }
    ClaimedJob claimed = std::move(*next.value());
    CampaignJob job = claimed.job;
    // The spec is the source of truth for campaign behavior; the worker
    // only pins the plumbing that must match ITS view of the fleet root.
    job.config.checkpoint_dir = paths.ckpt;
    job.config.resume = true;
    job.config.collect_telemetry = true;
    if (first_job && options.halt_after_checkpoints > 0) {
      job.config.halt_after_checkpoints = options.halt_after_checkpoints;
      if (job.config.checkpoint_every_ops == 0) {
        job.config.checkpoint_every_ops = 2000;
      }
    }
    first_job = false;

    CorpusExchangeOptions exchange_options;
    exchange_options.corpus_dir = corpus_dir;
    exchange_options.flavor = job.config.flavor;
    exchange_options.job_index = job.index;
    exchange_options.worker_id = options.worker_id;
    exchange_options.pid = static_cast<long>(::getpid());
    exchange_options.import_every = options.import_every;
    exchange_options.heartbeat_every = options.heartbeat_every;
    exchange_options.heartbeat_path = heartbeat_path;
    exchange_options.publish_log = publish_log;
    exchange_options.heartbeat_seq_start = heartbeat_tail_seq;
    CorpusExchange exchange(exchange_options);

    RunnerOptions runner_options;
    runner_options.jobs = 1;
    runner_options.loop_observer = &exchange;
    CampaignRunner runner(runner_options);
    MatrixResult matrix_result = runner.RunJobs({job});
    JobResult& job_result = matrix_result.jobs[0];

    outcome.seeds_published += exchange.published();
    outcome.seeds_imported += exchange.imported();
    outcome.corpus_rejects += exchange.rejected();
    heartbeat_tail_seq = exchange.heartbeat_seq();

    if (!job_result.status.ok()) {
      if (job_result.status.code() == StatusCode::kFailedPrecondition &&
          job_result.status.message().find("halted after") !=
              std::string::npos) {
        // The crash-test hook fired. Leave the claim in place — the next
        // incarnation of this worker id re-adopts it and resumes from the
        // checkpoint the halt guaranteed exists.
        outcome.crashed = true;
        return outcome;
      }
      // A genuinely failed job (bad spec, unknown strategy): record the
      // failure as its done record so the queue still drains and the
      // supervisor reports it, instead of crash-looping on the same spec.
      THEMIS_LOG(kWarn, "fleet job %zu failed: %s", job.index,
                 job_result.status.ToString().c_str());
    }

    FleetDoneRecord record;
    record.job = claimed.job;
    record.job_status = job_result.status;
    record.result = job_result.result;
    record.worker_id = options.worker_id;
    record.wall_seconds = job_result.wall_seconds;
    record.cpu_seconds = job_result.cpu_seconds;
    if (Status s = MarkJobDone(paths, claimed, record); !s.ok()) {
      return s;
    }
    ++outcome.jobs_completed;

    Heartbeat done_hb;
    done_hb.worker_id = options.worker_id;
    done_hb.pid = static_cast<long>(::getpid());
    done_hb.seq = ++heartbeat_tail_seq;
    done_hb.job_index = job.index;
    done_hb.total_ops = job_result.result.total_ops;
    done_hb.testcases = job_result.result.testcases;
    done_hb.coverage = job_result.result.final_coverage;
    done_hb.transitions = job_result.result.transition_coverage;
    done_hb.published = outcome.seeds_published;
    done_hb.imported = outcome.seeds_imported;
    done_hb.phase = "job_done";
    AppendHeartbeat(heartbeat_path, done_hb);
  }

  Heartbeat exit_hb;
  exit_hb.worker_id = options.worker_id;
  exit_hb.pid = static_cast<long>(::getpid());
  exit_hb.seq = ++heartbeat_tail_seq;
  exit_hb.published = outcome.seeds_published;
  exit_hb.imported = outcome.seeds_imported;
  exit_hb.phase = "exit";
  AppendHeartbeat(heartbeat_path, exit_hb);

  // The worker's whole-process counters and gauges, for the supervisor's
  // sum into the fleet BENCH document. Losing them costs only that
  // document, never a job.
  if (Status s = WriteWorkerMetricsFile(
          (fs::path(paths.telemetry) / WorkerMetricsFileName(options.worker_id))
              .string(),
          MetricsRegistry::Global().Snapshot());
      !s.ok()) {
    THEMIS_LOG(kWarn, "fleet worker %d: %s", options.worker_id,
               s.ToString().c_str());
  }
  return outcome;
}

}  // namespace themis

#include "src/fleet/work_queue.h"

#include <algorithm>
#include <filesystem>

#include "src/common/strings.h"
#include "src/harness/snapshot.h"

namespace themis {

namespace fs = std::filesystem;

FleetPaths FleetPaths::At(const std::string& root) {
  FleetPaths paths;
  paths.root = root;
  paths.queue = (fs::path(root) / "queue").string();
  paths.claimed = (fs::path(root) / "claimed").string();
  paths.done = (fs::path(root) / "done").string();
  paths.corpus = (fs::path(root) / "corpus").string();
  paths.ckpt = (fs::path(root) / "ckpt").string();
  paths.hb = (fs::path(root) / "hb").string();
  paths.telemetry = (fs::path(root) / "telemetry").string();
  return paths;
}

Status FleetPaths::EnsureDirs() const {
  for (const std::string* dir :
       {&queue, &claimed, &done, &corpus, &ckpt, &hb, &telemetry}) {
    std::error_code ec;
    fs::create_directories(*dir, ec);
    if (ec) {
      return Status::Internal(Sprintf("cannot create %s: %s", dir->c_str(),
                                      ec.message().c_str()));
    }
  }
  return Status::Ok();
}

std::string QueueJobFileName(size_t job_index) {
  return Sprintf("job-%06zu.job", job_index);
}

std::string ClaimedJobFileName(size_t job_index, int worker_id) {
  return Sprintf("job-%06zu.w%d.job", job_index, worker_id);
}

std::string DoneRecordFileName(size_t job_index) {
  return Sprintf("job-%06zu.res", job_index);
}

namespace {

// Parses "job-<digits>" prefixes out of queue/claimed/done file names.
bool ParseJobIndex(std::string_view name, size_t* index) {
  constexpr std::string_view prefix = "job-";
  if (name.substr(0, prefix.size()) != prefix) return false;
  size_t value = 0;
  size_t digits = 0;
  for (size_t i = prefix.size(); i < name.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') break;
    value = value * 10 + static_cast<size_t>(c - '0');
    ++digits;
  }
  if (digits == 0) return false;
  *index = value;
  return true;
}

// Claim file owned by `worker_id`? Matches "job-<index>.w<k>.job".
bool ParseClaimName(std::string_view name, size_t* index, int* worker_id) {
  if (!ParseJobIndex(name, index)) return false;
  size_t w = name.find(".w");
  size_t suffix = name.rfind(".job");
  if (w == std::string_view::npos || suffix == std::string_view::npos ||
      suffix != name.size() - 4 || w + 2 >= suffix) {
    return false;
  }
  int value = 0;
  for (size_t i = w + 2; i < suffix; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  *worker_id = value;
  return true;
}

// (index, path) of every "job-<index>...<suffix>" file in `dir`, ascending
// index; a missing directory lists nothing.
std::vector<std::pair<size_t, std::string>> ListJobFiles(
    const std::string& dir, std::string_view suffix) {
  std::vector<std::pair<size_t, std::string>> files;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec);
       !ec && it != fs::directory_iterator(); ++it) {
    size_t index = 0;
    std::string name = it->path().filename().string();
    if (ParseJobIndex(name, &index) && name.ends_with(suffix)) {
      files.emplace_back(index, it->path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Reads the spec behind a claim this worker now owns.
Result<std::optional<ClaimedJob>> AdoptClaim(const std::string& claim_path,
                                             const char* what) {
  Result<CampaignJob> job = ReadJobSpecFile(claim_path);
  if (!job.ok()) {
    return Status::DataLoss(Sprintf("%s %s unreadable: %s", what,
                                    claim_path.c_str(),
                                    job.status().ToString().c_str()));
  }
  return std::optional<ClaimedJob>(ClaimedJob{job.take(), claim_path});
}

// The job's identity and full CampaignConfig: the behavior fields, then the
// checkpoint plumbing (the spec is the worker's complete marching orders).
// Restore runs CampaignConfig::Validate().
void SaveJob(SnapshotWriter& writer, const CampaignJob& job) {
  writer.U64(job.index);
  writer.Str(job.strategy);
  writer.I64(job.repetition);
  SaveCampaignBehavior(writer, job.config);
  writer.Str(job.config.checkpoint_dir);
  writer.U64(job.config.checkpoint_every_ops);
  writer.Bool(job.config.resume);
  writer.I64(job.config.checkpoint_keep);
  writer.U64(job.config.job_index);
  writer.I64(job.config.halt_after_checkpoints);
}

Status RestoreJob(SnapshotReader& reader, const std::string& path,
                  CampaignJob* job) {
  job->index = reader.U64();
  job->strategy = reader.Str();
  job->repetition = static_cast<int>(reader.I64());
  CampaignConfig& config = job->config;
  RestoreCampaignBehavior(reader, &config);
  config.checkpoint_dir = reader.Str();
  config.checkpoint_every_ops = reader.U64();
  config.resume = reader.Bool();
  config.checkpoint_keep = static_cast<int>(reader.I64());
  config.job_index = reader.U64();
  config.halt_after_checkpoints = static_cast<int>(reader.I64());
  Status status = reader.ok() ? config.Validate() : reader.status();
  if (!status.ok()) {
    return Status::DataLoss(
        Sprintf("%s: %s", path.c_str(), status.ToString().c_str()));
  }
  return Status::Ok();
}

}  // namespace

Status WriteJobSpecFile(const std::string& path, const CampaignJob& job) {
  SnapshotWriter payload;
  SaveJob(payload, job);
  return WriteFramedFile(path, kJobSpecMagic, kFleetFileFormatVersion,
                         payload.buffer());
}

Result<CampaignJob> ReadJobSpecFile(const std::string& path) {
  Result<FramedPayload> framed =
      ReadFramedFile(path, kJobSpecMagic, kFleetFileFormatVersion);
  if (!framed.ok()) {
    return framed.status();
  }
  SnapshotReader reader(framed->payload);
  CampaignJob job;
  if (Status s = RestoreJob(reader, path, &job); !s.ok()) {
    return s;
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss(
        Sprintf("%s: trailing bytes after job spec", path.c_str()));
  }
  return job;
}

Status WriteDoneRecordFile(const std::string& path,
                           const FleetDoneRecord& record) {
  SnapshotWriter payload;
  SaveJob(payload, record.job);
  payload.I64(record.worker_id);
  payload.F64(record.wall_seconds);
  payload.F64(record.cpu_seconds);
  payload.U8(static_cast<uint8_t>(record.job_status.code()));
  if (record.job_status.ok()) {
    SaveCampaignResult(payload, record.result);
  } else {
    payload.Str(record.job_status.message());
  }
  return WriteFramedFile(path, kDoneRecordMagic, kFleetFileFormatVersion,
                         payload.buffer());
}

Result<FleetDoneRecord> ReadDoneRecordFile(const std::string& path) {
  Result<FramedPayload> framed =
      ReadFramedFile(path, kDoneRecordMagic, kFleetFileFormatVersion);
  if (!framed.ok()) {
    return framed.status();
  }
  SnapshotReader reader(framed->payload);
  FleetDoneRecord record;
  if (Status s = RestoreJob(reader, path, &record.job); !s.ok()) {
    return s;
  }
  record.worker_id = static_cast<int>(reader.I64());
  record.wall_seconds = reader.F64();
  record.cpu_seconds = reader.F64();
  uint8_t code = reader.U8();
  if (reader.ok() && code > static_cast<uint8_t>(StatusCode::kDataLoss)) {
    return Status::DataLoss(
        Sprintf("%s: job status code %u out of range", path.c_str(), code));
  }
  if (code == static_cast<uint8_t>(StatusCode::kOk)) {
    if (Status s = RestoreCampaignResult(reader, &record.result); !s.ok()) {
      return Status::DataLoss(
          Sprintf("%s: %s", path.c_str(), s.ToString().c_str()));
    }
  } else {
    record.job_status = Status(static_cast<StatusCode>(code), reader.Str());
  }
  if (!reader.ok() || !reader.AtEnd()) {
    return Status::DataLoss(
        Sprintf("%s: malformed done record", path.c_str()));
  }
  return record;
}

std::string WorkerMetricsFileName(int worker_id) {
  return Sprintf("worker-%d.metrics", worker_id);
}

Status WriteWorkerMetricsFile(const std::string& path,
                              const MetricsSnapshot& metrics) {
  SnapshotWriter payload;
  payload.U64(metrics.counters.size());
  for (const auto& [name, value] : metrics.counters) {
    payload.Str(name);
    payload.U64(value);
  }
  payload.U64(metrics.gauges.size());
  for (const auto& [name, value] : metrics.gauges) {
    payload.Str(name);
    payload.I64(value);
  }
  return WriteFramedFile(path, kWorkerMetricsMagic, kFleetFileFormatVersion,
                         payload.buffer());
}

Result<MetricsSnapshot> ReadWorkerMetricsFile(const std::string& path) {
  Result<FramedPayload> framed =
      ReadFramedFile(path, kWorkerMetricsMagic, kFleetFileFormatVersion);
  if (!framed.ok()) {
    return framed.status();
  }
  SnapshotReader reader(framed->payload);
  MetricsSnapshot metrics;
  uint64_t counters = reader.Count(16);
  for (uint64_t i = 0; i < counters && reader.ok(); ++i) {
    std::string name = reader.Str();
    metrics.counters[std::move(name)] = reader.U64();
  }
  uint64_t gauges = reader.Count(16);
  for (uint64_t i = 0; i < gauges && reader.ok(); ++i) {
    std::string name = reader.Str();
    metrics.gauges[std::move(name)] = reader.I64();
  }
  if (!reader.ok() || !reader.AtEnd()) {
    return Status::DataLoss(
        Sprintf("%s: malformed worker metrics record", path.c_str()));
  }
  return metrics;
}

Result<std::optional<ClaimedJob>> NextJob(const FleetPaths& paths,
                                          int worker_id) {
  // 1. Orphaned claims from a previous incarnation of this worker id.
  std::error_code ec;
  for (const auto& [index, claim_path] : ListJobFiles(paths.claimed, ".job")) {
    size_t claim_index = 0;
    int owner = -1;
    if (!ParseClaimName(fs::path(claim_path).filename().string(),
                        &claim_index, &owner) ||
        owner != worker_id) {
      continue;
    }
    const std::string done_path =
        (fs::path(paths.done) / DoneRecordFileName(index)).string();
    if (fs::exists(done_path, ec)) {
      // The dead incarnation finished the job but crashed before clearing
      // the claim. Clear it now; re-running would double-count.
      fs::remove(claim_path, ec);
      continue;
    }
    return AdoptClaim(claim_path, "orphaned claim");
  }

  // 2. Claim the lowest-index queue entry. rename(2) is atomic within the
  // fleet filesystem, so exactly one contender wins each file; losers just
  // move on to the next candidate. When every listed entry vanished under
  // us (all claimed elsewhere), re-list — the loop terminates because the
  // queue only shrinks.
  while (true) {
    std::vector<std::pair<size_t, std::string>> queued =
        ListJobFiles(paths.queue, ".job");
    if (queued.empty()) {
      return std::optional<ClaimedJob>(std::nullopt);
    }
    for (const auto& [index, queue_path] : queued) {
      const std::string claim_path =
          (fs::path(paths.claimed) / ClaimedJobFileName(index, worker_id))
              .string();
      std::error_code rename_ec;
      fs::rename(queue_path, claim_path, rename_ec);
      if (!rename_ec) {
        return AdoptClaim(claim_path, "claimed spec");
      }
    }
  }
}

Status MarkJobDone(const FleetPaths& paths, const ClaimedJob& claimed,
                   const FleetDoneRecord& record) {
  const std::string done_path =
      (fs::path(paths.done) / DoneRecordFileName(record.job.index)).string();
  if (Status s = WriteDoneRecordFile(done_path, record); !s.ok()) {
    return s;
  }
  std::error_code ec;
  fs::remove(claimed.claim_path, ec);
  // A leftover claim after a successful done write is harmless: the worker
  // id owning it re-reads the spec, sees the done record, and skips.
  return Status::Ok();
}

Result<std::vector<FleetDoneRecord>> ReadAllDoneRecords(
    const FleetPaths& paths) {
  std::vector<FleetDoneRecord> records;
  for (const auto& [index, path] : ListJobFiles(paths.done, ".res")) {
    Result<FleetDoneRecord> record = ReadDoneRecordFile(path);
    if (!record.ok()) {
      return record.status();
    }
    records.push_back(record.take());
  }
  return records;
}

QueueCounts CountQueueEntries(const FleetPaths& paths) {
  QueueCounts counts;
  counts.queued = ListJobFiles(paths.queue, ".job").size();
  counts.claimed = ListJobFiles(paths.claimed, ".job").size();
  counts.done = ListJobFiles(paths.done, ".res").size();
  return counts;
}

}  // namespace themis

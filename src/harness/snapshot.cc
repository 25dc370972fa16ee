#include "src/harness/snapshot.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <type_traits>
#include <utility>

#include "src/common/strings.h"
#include "src/core/opseq.h"
#include "src/dfs/types.h"
#include "src/telemetry/event_log.h"

namespace themis {

namespace {

constexpr std::string_view kSnapshotMagic = "THMSNP01";

std::string JobPrefix(size_t job_index) {
  return Sprintf("job-%zu-", job_index);
}

// Parses the ordinal out of "job-<i>-<ordinal>.ckpt"; false for the final
// snapshot and anything else.
bool ParseMidOrdinal(const std::string& filename, size_t job_index,
                     uint64_t* ordinal) {
  const std::string prefix = JobPrefix(job_index);
  const std::string suffix = ".ckpt";
  if (filename.size() <= prefix.size() + suffix.size()) return false;
  if (filename.compare(0, prefix.size(), prefix) != 0) return false;
  if (filename.compare(filename.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  std::string middle =
      filename.substr(prefix.size(), filename.size() - prefix.size() - suffix.size());
  if (middle.empty() || middle == "final") return false;
  uint64_t value = 0;
  for (char c : middle) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *ordinal = value;
  return true;
}

}  // namespace

std::string MidSnapshotFileName(size_t job_index, uint64_t ordinal) {
  return Sprintf("job-%zu-%llu.ckpt", job_index,
                 static_cast<unsigned long long>(ordinal));
}

std::string FinalSnapshotFileName(size_t job_index) {
  return Sprintf("job-%zu-final.ckpt", job_index);
}

Status WriteSnapshotFile(const std::string& path, SnapshotKind kind,
                         const std::string& payload) {
  return WriteFramedFile(path, kSnapshotMagic, kSnapshotFormatVersion, payload,
                         static_cast<uint8_t>(kind));
}

Result<LoadedSnapshot> ReadSnapshotFile(const std::string& path) {
  Result<FramedPayload> framed =
      ReadFramedFile(path, kSnapshotMagic, kSnapshotFormatVersion,
                     static_cast<uint8_t>(SnapshotKind::kFinal));
  if (!framed.ok()) return framed.status();
  LoadedSnapshot loaded;
  loaded.kind = static_cast<SnapshotKind>(framed->kind);
  loaded.payload = std::move(framed->payload);
  return loaded;
}

namespace {

// Mid-campaign snapshot paths of `job_index` in `dir`, newest (highest
// ordinal) first; empty for a missing or unreadable directory.
std::vector<std::string> MidSnapshotsNewestFirst(const std::string& dir,
                                                 size_t job_index) {
  std::vector<std::pair<uint64_t, std::string>> mids;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec);
       !ec && it != std::filesystem::directory_iterator(); ++it) {
    uint64_t ordinal = 0;
    if (it->is_regular_file(ec) &&
        ParseMidOrdinal(it->path().filename().string(), job_index, &ordinal)) {
      mids.emplace_back(ordinal, it->path().string());
    }
  }
  std::sort(mids.begin(), mids.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> paths;
  paths.reserve(mids.size());
  for (auto& [ordinal, path] : mids) paths.push_back(std::move(path));
  return paths;
}

}  // namespace

std::vector<std::string> ListJobSnapshotPaths(const std::string& dir,
                                              size_t job_index) {
  std::vector<std::string> paths;
  const std::string final_path =
      (std::filesystem::path(dir) / FinalSnapshotFileName(job_index)).string();
  std::error_code ec;
  if (std::filesystem::is_regular_file(final_path, ec)) {
    paths.push_back(final_path);
  }
  for (std::string& path : MidSnapshotsNewestFirst(dir, job_index)) {
    paths.push_back(std::move(path));
  }
  return paths;
}

void PruneMidSnapshots(const std::string& dir, size_t job_index, int keep) {
  std::vector<std::string> mids = MidSnapshotsNewestFirst(dir, job_index);
  std::error_code ec;
  for (size_t i = static_cast<size_t>(std::max(keep, 0)); i < mids.size(); ++i) {
    std::filesystem::remove(mids[i], ec);
  }
}

void SaveCampaignBehavior(SnapshotWriter& writer, const CampaignConfig& config) {
  writer.U8(static_cast<uint8_t>(config.flavor));
  writer.U64(config.seed);
  writer.I64(config.budget);
  writer.F64(config.threshold_t);
  writer.F64(config.weights.computation);
  writer.F64(config.weights.network);
  writer.F64(config.weights.storage);
  writer.U8(static_cast<uint8_t>(config.fault_set));
  writer.I64(config.initial_files);
  writer.I64(config.coverage_sample_period);
  writer.I64(config.storage_nodes);
  writer.I64(config.meta_nodes);
  writer.Bool(config.env_faults);
  writer.Bool(config.collect_telemetry);
  writer.F64(config.transition_weight);
}

void RestoreCampaignBehavior(SnapshotReader& reader, CampaignConfig* config) {
  uint8_t flavor = reader.U8();
  if (flavor > static_cast<uint8_t>(Flavor::kGeo)) {
    reader.Fail(Sprintf("campaign config has unknown flavor %u", flavor));
  }
  config->flavor = static_cast<Flavor>(flavor);
  config->seed = reader.U64();
  config->budget = reader.I64();
  config->threshold_t = reader.F64();
  config->weights.computation = reader.F64();
  config->weights.network = reader.F64();
  config->weights.storage = reader.F64();
  uint8_t fault_set = reader.U8();
  if (fault_set > static_cast<uint8_t>(FaultSet::kNone)) {
    reader.Fail(Sprintf("campaign config has unknown fault set %u", fault_set));
  }
  config->fault_set = static_cast<FaultSet>(fault_set);
  config->initial_files = static_cast<int>(reader.I64());
  config->coverage_sample_period = reader.I64();
  config->storage_nodes = static_cast<int>(reader.I64());
  config->meta_nodes = static_cast<int>(reader.I64());
  config->env_faults = reader.Bool();
  config->collect_telemetry = reader.Bool();
  config->transition_weight = reader.F64();
}

void WriteSnapshotIdentity(SnapshotWriter& writer, std::string_view strategy,
                           const CampaignConfig& config) {
  writer.Str(strategy);
  SaveCampaignBehavior(writer, config);
}

namespace {

// Identity field values as mismatch messages print them.
template <typename T>
std::string ShowField(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    return Sprintf("%g", value);
  } else if constexpr (std::is_same_v<T, Flavor>) {
    return std::string(FlavorName(value));
  } else if constexpr (std::is_enum_v<T>) {
    return Sprintf("%u", static_cast<unsigned>(value));
  } else if constexpr (std::is_same_v<T, LoadVarianceWeights>) {
    return Sprintf("(%g, %g, %g)", value.computation, value.network,
                   value.storage);
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else {
    return std::string(value);
  }
}

}  // namespace

Status CheckSnapshotIdentity(SnapshotReader& reader, std::string_view strategy,
                             const CampaignConfig& config) {
  std::string saved_strategy = reader.Str();
  CampaignConfig saved;
  RestoreCampaignBehavior(reader, &saved);
  if (Status status = reader.status(); !status.ok()) return status;

  // The first differing field, named with both values.
  Status mismatch = Status::Ok();
  auto check = [&mismatch](const char* field, const auto& saved_value,
                           const auto& current_value) {
    if (mismatch.ok() && !(saved_value == current_value)) {
      mismatch = Status::FailedPrecondition(Sprintf(
          "snapshot was taken by a different campaign: %s was %s, resuming "
          "campaign has %s",
          field, ShowField(saved_value).c_str(),
          ShowField(current_value).c_str()));
    }
  };
  check("strategy", std::string_view(saved_strategy), strategy);
  check("flavor", saved.flavor, config.flavor);
  check("seed", saved.seed, config.seed);
  check("budget", saved.budget, config.budget);
  check("threshold_t", saved.threshold_t, config.threshold_t);
  check("variance weights", saved.weights, config.weights);
  check("fault_set", saved.fault_set, config.fault_set);
  check("initial_files", saved.initial_files, config.initial_files);
  check("coverage_sample_period", saved.coverage_sample_period,
        config.coverage_sample_period);
  check("storage_nodes", saved.storage_nodes, config.storage_nodes);
  check("meta_nodes", saved.meta_nodes, config.meta_nodes);
  check("env_faults", saved.env_faults, config.env_faults);
  check("collect_telemetry", saved.collect_telemetry, config.collect_telemetry);
  check("transition_weight", saved.transition_weight, config.transition_weight);
  return mismatch;
}

void SaveFailureReport(SnapshotWriter& writer, const FailureReport& report) {
  writer.U8(static_cast<uint8_t>(report.dimension));
  writer.F64(report.ratio);
  writer.I64(report.confirmed_at);
  SaveOpSeq(writer, report.testcase);
  writer.U64(report.active_faults.size());
  for (const std::string& fault : report.active_faults) writer.Str(fault);
  writer.Bool(report.rebalance_hung);
  writer.Str(report.detail);
}

void RestoreFailureReport(SnapshotReader& reader, FailureReport* report) {
  uint8_t dimension = reader.U8();
  if (dimension > static_cast<uint8_t>(ImbalanceDimension::kCrashRecovery)) {
    reader.Fail(Sprintf("failure report has unknown imbalance dimension %u",
                        dimension));
    return;
  }
  report->dimension = static_cast<ImbalanceDimension>(dimension);
  report->ratio = reader.F64();
  report->confirmed_at = reader.I64();
  RestoreOpSeq(reader, &report->testcase);
  uint64_t fault_count = reader.Count(8);
  report->active_faults.clear();
  report->active_faults.reserve(fault_count);
  for (uint64_t i = 0; i < fault_count && reader.ok(); ++i) {
    report->active_faults.push_back(reader.Str());
  }
  report->rebalance_hung = reader.Bool();
  report->detail = reader.Str();
}

void SaveGroundTruthTally(SnapshotWriter& writer, const GroundTruthTally& tally) {
  writer.U64(tally.distinct_failures.size());
  for (const auto& [id, at] : tally.distinct_failures) {
    writer.Str(id);
    writer.I64(at);
  }
  writer.I64(tally.true_positive_reports);
  writer.I64(tally.false_positive_reports);
}

void RestoreGroundTruthTally(SnapshotReader& reader, GroundTruthTally* tally) {
  uint64_t count = reader.Count(16);
  tally->distinct_failures.clear();
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    std::string id = reader.Str();
    SimTime at = reader.I64();
    tally->distinct_failures[std::move(id)] = at;
  }
  tally->true_positive_reports = static_cast<int>(reader.I64());
  tally->false_positive_reports = static_cast<int>(reader.I64());
}

void SaveCampaignResult(SnapshotWriter& writer, const CampaignResult& result) {
  writer.Str(result.strategy_name);
  writer.U8(static_cast<uint8_t>(result.flavor));
  writer.U64(result.reports.size());
  for (const FailureReport& report : result.reports) {
    SaveFailureReport(writer, report);
  }
  writer.U64(result.distinct_failures.size());
  for (const auto& [id, at] : result.distinct_failures) {
    writer.Str(id);
    writer.I64(at);
  }
  writer.I64(result.false_positives);
  writer.U64(result.final_coverage);
  writer.U64(result.transition_coverage);
  writer.U64(result.transition_pairs.size());
  for (const auto& [from, to] : result.transition_pairs) {
    writer.U8(from);
    writer.U8(to);
  }
  writer.U64(result.coverage_timeline.size());
  for (const auto& [at, hits] : result.coverage_timeline) {
    writer.I64(at);
    writer.U64(hits);
  }
  writer.U64(result.total_ops);
  writer.I64(result.testcases);
  writer.I64(result.candidates);
  writer.U64(result.trigger_stats.size());
  for (const auto& [id, stats] : result.trigger_stats) {
    writer.Str(id);
    writer.U64(stats.first);
    writer.I64(stats.second);
  }
  writer.U64(result.telemetry.size());
  for (const CampaignEvent& event : result.telemetry) {
    SaveCampaignEvent(writer, event);
  }
}

Status RestoreCampaignResult(SnapshotReader& reader, CampaignResult* result) {
  result->strategy_name = reader.Str();
  uint8_t flavor = reader.U8();
  if (flavor > static_cast<uint8_t>(Flavor::kGeo)) {
    reader.Fail(Sprintf("campaign result has unknown flavor %u", flavor));
    return reader.status();
  }
  result->flavor = static_cast<Flavor>(flavor);
  uint64_t report_count = reader.Count(32);
  result->reports.clear();
  result->reports.resize(report_count);
  for (uint64_t i = 0; i < report_count && reader.ok(); ++i) {
    RestoreFailureReport(reader, &result->reports[i]);
  }
  uint64_t distinct_count = reader.Count(16);
  result->distinct_failures.clear();
  for (uint64_t i = 0; i < distinct_count && reader.ok(); ++i) {
    std::string id = reader.Str();
    SimTime at = reader.I64();
    result->distinct_failures[std::move(id)] = at;
  }
  result->false_positives = static_cast<int>(reader.I64());
  result->final_coverage = reader.U64();
  result->transition_coverage = reader.U64();
  uint64_t pair_count = reader.Count(2);
  if (reader.ok() && pair_count != result->transition_coverage) {
    reader.Fail("campaign result transition pair list disagrees with count");
    return reader.status();
  }
  result->transition_pairs.clear();
  result->transition_pairs.reserve(pair_count);
  for (uint64_t i = 0; i < pair_count && reader.ok(); ++i) {
    uint8_t from = reader.U8();
    uint8_t to = reader.U8();
    result->transition_pairs.emplace_back(from, to);
  }
  uint64_t timeline_count = reader.Count(16);
  result->coverage_timeline.clear();
  result->coverage_timeline.reserve(timeline_count);
  for (uint64_t i = 0; i < timeline_count && reader.ok(); ++i) {
    SimTime at = reader.I64();
    size_t hits = reader.U64();
    result->coverage_timeline.emplace_back(at, hits);
  }
  result->total_ops = reader.U64();
  result->testcases = static_cast<int>(reader.I64());
  result->candidates = static_cast<int>(reader.I64());
  uint64_t trigger_count = reader.Count(24);
  result->trigger_stats.clear();
  for (uint64_t i = 0; i < trigger_count && reader.ok(); ++i) {
    std::string id = reader.Str();
    uint64_t satisfied = reader.U64();
    int triggers = static_cast<int>(reader.I64());
    result->trigger_stats[std::move(id)] = {satisfied, triggers};
  }
  uint64_t event_count = reader.Count(32);
  result->telemetry.clear();
  result->telemetry.resize(event_count);
  for (uint64_t i = 0; i < event_count && reader.ok(); ++i) {
    RestoreCampaignEvent(reader, &result->telemetry[i]);
  }
  return reader.status();
}

}  // namespace themis

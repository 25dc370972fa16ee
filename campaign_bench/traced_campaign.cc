#include "campaign_bench/traced_campaign.h"

#include <filesystem>
#include <memory>
#include <utility>

#include "src/common/strings.h"
#include "src/core/generator.h"
#include "src/core/strategy_registry.h"
#include "src/coverage/coverage.h"
#include "src/coverage/model_coverage.h"
#include "src/dfs/flavors/factory.h"
#include "src/faults/env_fault.h"
#include "src/faults/fault_registry.h"
#include "src/faults/historical_corpus.h"
#include "src/faults/injector.h"
#include "src/harness/ground_truth.h"
#include "src/harness/snapshot.h"
#include "src/monitor/detector.h"
#include "src/monitor/states_monitor.h"
#include "src/telemetry/event_log.h"

namespace campaign_bench {

using namespace themis;

namespace {

// Share of env-fault operators in generated ops when env faults are on; the
// same value Campaign::Run passes to the strategy.
constexpr double kEnvFaultShare = 0.2;

// The fault set Campaign::Run arms for `config`.
std::vector<FaultSpec> FaultsFor(const CampaignConfig& config) {
  std::vector<FaultSpec> faults;
  switch (config.fault_set) {
    case FaultSet::kNewBugs:
      faults = NewBugsFor(config.flavor);
      break;
    case FaultSet::kHistorical:
      faults = HistoricalFaultsFor(config.flavor);
      break;
    case FaultSet::kNone:
      return {};
  }
  if (config.env_faults) {
    std::vector<FaultSpec> env_bugs = EnvFaultBugsFor(config.flavor);
    faults.insert(faults.end(), env_bugs.begin(), env_bugs.end());
  }
  return faults;
}

// Reads a snapshot back and checks it holds exactly `payload`.
Status VerifySnapshot(const std::string& path, SnapshotKind kind,
                      const std::string& payload) {
  Result<LoadedSnapshot> loaded = ReadSnapshotFile(path);
  if (!loaded.ok()) {
    return loaded.status();
  }
  if (loaded->kind != kind || loaded->payload != payload) {
    return Status::DataLoss(Sprintf("%s does not hold the bytes written", path.c_str()));
  }
  return Status::Ok();
}

}  // namespace

uint64_t PayloadHash(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

class TimedDfs::Timer {
 public:
  Timer(const TimedDfs& dfs, DfsCall call)
      : dfs_(dfs), tally_(dfs.tallies_[static_cast<size_t>(call)]), start_(NowNs()) {}
  ~Timer() {
    Nanos elapsed = NowNs() - start_;
    ++tally_.calls;
    tally_.ns += elapsed;
    dfs_.total_ns_ += elapsed;
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

 private:
  const TimedDfs& dfs_;
  CallTally& tally_;
  Nanos start_;
};

void TimedDfs::MarkDoubleCheck() const {
  if (double_check_start_ == 0) {
    double_check_start_ = NowNs();
  }
}

OpResult TimedDfs::Execute(const Operation& op) {
  Timer timer(*this, DfsCall::kExecute);
  return inner_.Execute(op);
}

bool TimedDfs::SnapshotLoadStats(LoadStatsSnapshot& out) const {
  Timer timer(*this, DfsCall::kStream);
  return inner_.SnapshotLoadStats(out);
}

void TimedDfs::AdvanceLoadWindow() {
  Timer timer(*this, DfsCall::kStream);
  inner_.AdvanceLoadWindow();
}

void TimedDfs::SampleLoadInto(std::vector<LoadSample>& out) const {
  Timer timer(*this, DfsCall::kScan);
  inner_.SampleLoadInto(out);
}

Status TimedDfs::TriggerRebalance() {
  Timer timer(*this, DfsCall::kTrigger);
  return inner_.TriggerRebalance();
}

bool TimedDfs::RebalanceDone() const {
  MarkDoubleCheck();
  Timer timer(*this, DfsCall::kRebalanceDone);
  return inner_.RebalanceDone();
}

std::vector<NodeId> TimedDfs::ListMetaNodes() const {
  Timer timer(*this, DfsCall::kSync);
  return inner_.ListMetaNodes();
}

std::vector<NodeId> TimedDfs::ListStorageNodes() const {
  Timer timer(*this, DfsCall::kSync);
  return inner_.ListStorageNodes();
}

std::vector<BrickId> TimedDfs::ListBricks() const {
  Timer timer(*this, DfsCall::kSync);
  return inner_.ListBricks();
}

uint64_t TimedDfs::FreeSpaceBytes() const {
  Timer timer(*this, DfsCall::kSync);
  return inner_.FreeSpaceBytes();
}

uint64_t TimedDfs::TotalCapacityBytes() const {
  Timer timer(*this, DfsCall::kOther);
  return inner_.TotalCapacityBytes();
}

uint64_t TimedDfs::MembershipEpoch() const {
  Timer timer(*this, DfsCall::kSync);
  return inner_.MembershipEpoch();
}

void TimedDfs::AdvanceTime(SimDuration delta) {
  Timer timer(*this, DfsCall::kAdvanceTime);
  inner_.AdvanceTime(delta);
}

bool TimedDfs::EnvRecoveryPending() const {
  MarkDoubleCheck();
  Timer timer(*this, DfsCall::kEnvRecovery);
  return inner_.EnvRecoveryPending();
}

void TimedDfs::ResetToInitial() {
  Timer timer(*this, DfsCall::kReset);
  inner_.ResetToInitial();
}

std::string TimedDfs::DescribeState() const {
  Timer timer(*this, DfsCall::kOther);
  return inner_.DescribeState();
}

Result<TracedCampaign> RunTracedCampaign(const CampaignConfig& config,
                                         std::string_view strategy_name, bool setup_only) {
  if (Status status = config.Validate(); !status.ok()) {
    return status;
  }
  if (config.collect_telemetry || config.resume) {
    return Status::InvalidArgument("traced campaigns support neither telemetry nor resume");
  }
  TracedCampaign traced;
  CampaignResult& result = traced.result;
  result.strategy_name = std::string(strategy_name);
  result.flavor = config.flavor;

  // ---- set-up, in Campaign::Run's order ----
  const Nanos setup_start = NowNs();
  Nanos start = setup_start;
  std::unique_ptr<DfsCluster> cluster =
      MakeCluster(config.flavor, config.seed, config.storage_nodes, config.meta_nodes);
  traced.make_cluster_ns = NowNs() - start;
  CoverageRecorder coverage(FlavorBranchSpace(config.flavor), config.seed);
  cluster->set_coverage(&coverage);
  ModelCoverage model_coverage(config.flavor);
  cluster->set_model_coverage(&model_coverage);
  EventLog event_log;  // never bound: telemetry collection is off
  FaultInjector injector(FaultsFor(config), config.seed ^ 0xfa0175ULL);
  cluster->set_fault_hooks(&injector);
  EnvFaultInjector env_injector(config.seed ^ 0xe4fa17ULL);
  if (config.env_faults) {
    cluster->set_env_faults(&env_injector);
  }
  TimedDfs dfs(*cluster);

  Rng rng(config.seed ^ 0x7e5715ULL);
  InputModel model;
  StatesMonitor monitor(config.weights);
  DetectorConfig detector_config;
  detector_config.threshold = config.threshold_t;
  ImbalanceDetector detector(detector_config);
  TestCaseExecutor executor(dfs, model, monitor, detector, &injector, &coverage, rng);
  executor.set_model_coverage(&model_coverage);
  StrategyOptions strategy_options;
  strategy_options.env_fault_share = config.env_faults ? kEnvFaultShare : 0.0;
  strategy_options.transition_weight = config.transition_weight;
  Result<std::unique_ptr<Strategy>> made =
      StrategyRegistry::Instance().Make(strategy_name, model, rng, strategy_options);
  if (!made.ok()) {
    return made.status();
  }
  Strategy& strategy = **made;

  GroundTruthTally tally;
  SimTime next_coverage_sample = 0;
  uint64_t checkpoints_written = 0;
  const bool checkpointing = !config.checkpoint_dir.empty();
  const std::filesystem::path checkpoint_dir(config.checkpoint_dir);

  // Byte-for-byte the payload Campaign::Run writes at a mid-campaign boundary.
  auto save_mid_payload = [&]() {
    SnapshotWriter writer;
    WriteSnapshotIdentity(writer, result.strategy_name, config);
    writer.U64(checkpoints_written);
    writer.I64(result.testcases);
    writer.I64(next_coverage_sample);
    writer.U64(result.reports.size());
    for (const FailureReport& report : result.reports) {
      SaveFailureReport(writer, report);
    }
    writer.U64(result.coverage_timeline.size());
    for (const auto& [at, hits] : result.coverage_timeline) {
      writer.I64(at);
      writer.U64(hits);
    }
    SaveGroundTruthTally(writer, tally);
    rng.SaveState(writer);
    cluster->SaveState(writer);
    coverage.SaveState(writer);
    model_coverage.SaveState(writer);
    model.SaveState(writer);
    monitor.SaveState(writer);
    detector.SaveState(writer);
    injector.SaveState(writer);
    env_injector.SaveState(writer);
    event_log.SaveState(writer);
    executor.SaveState(writer);
    strategy.SaveState(writer);
    return writer.Take();
  };

  start = NowNs();
  OpSeqGenerator init_generator(model);
  executor.SeedInitialData(init_generator, config.initial_files);
  traced.seed_initial_ns = NowNs() - start;
  traced.setup_ns = NowNs() - setup_start;
  if (setup_only) {
    return traced;
  }

  uint64_t next_checkpoint_ops =
      config.checkpoint_every_ops > 0
          ? (executor.total_ops() / config.checkpoint_every_ops + 1) *
                config.checkpoint_every_ops
          : 0;

  // ---- the testing loop ----
  // Snapshot read-back is not part of the program: its time is excluded from
  // the loop and from the boundary span.
  const DfsTallies setup_dfs = dfs.tallies();
  Nanos excluded_ns = 0;
  Nanos first_boundary = 0;
  Nanos first_boundary_excluded = 0;
  Nanos last_boundary = 0;
  Nanos last_boundary_excluded = 0;
  const Nanos loop_start = NowNs();
  while (cluster->Now() < config.budget) {
    Nanos t0 = NowNs();
    OpSeq testcase = strategy.Next();
    Nanos t1 = NowNs();
    Nanos dfs_before = dfs.total_ns();
    dfs.RearmDoubleCheckMarker();
    ExecOutcome outcome = executor.Run(testcase);
    Nanos t2 = NowNs();
    strategy.OnOutcome(testcase, outcome);
    Nanos t3 = NowNs();
    traced.next_ns += t1 - t0;
    traced.executor_ns += t2 - t1;
    traced.executor_dfs_ns += dfs.total_ns() - dfs_before;
    if (dfs.double_check_start() != 0) {
      traced.double_check_ns += t2 - dfs.double_check_start();
    }
    traced.on_outcome_ns += t3 - t2;

    ++result.testcases;
    for (const FailureReport& report : outcome.failures) {
      result.reports.push_back(report);
    }
    TallyReports(outcome.failures, tally);
    while (cluster->Now() >= next_coverage_sample) {
      result.coverage_timeline.emplace_back(next_coverage_sample, coverage.TotalHits());
      next_coverage_sample += config.coverage_sample_period;
    }

    // The test-case boundary, where Campaign::Run calls its loop observer.
    last_boundary = NowNs();
    last_boundary_excluded = excluded_ns;
    if (first_boundary == 0) {
      first_boundary = last_boundary;
      first_boundary_excluded = excluded_ns;
    }

    if (checkpointing && config.checkpoint_every_ops > 0 &&
        executor.total_ops() >= next_checkpoint_ops) {
      ++checkpoints_written;
      const std::string path =
          (checkpoint_dir / MidSnapshotFileName(config.job_index, checkpoints_written))
              .string();
      Nanos s0 = NowNs();
      std::string payload = save_mid_payload();
      Nanos s1 = NowNs();
      if (Status s = WriteSnapshotFile(path, SnapshotKind::kMidCampaign, payload); !s.ok()) {
        return s;
      }
      PruneMidSnapshots(config.checkpoint_dir, config.job_index, config.checkpoint_keep);
      Nanos s2 = NowNs();
      traced.serialize_ns += s1 - s0;
      traced.write_ns += s2 - s1;
      ++traced.checkpoints;
      traced.checkpoint_bytes += payload.size();
      next_checkpoint_ops =
          (executor.total_ops() / config.checkpoint_every_ops + 1) *
          config.checkpoint_every_ops;
      if (Status s = VerifySnapshot(path, SnapshotKind::kMidCampaign, payload); !s.ok()) {
        return s;
      }
      traced.checkpoint_hashes.push_back(PayloadHash(payload));
      excluded_ns += NowNs() - s2;
    }
  }
  const Nanos loop_end = NowNs();
  traced.loop_ns = loop_end - loop_start - excluded_ns;
  traced.boundary_span_ns =
      (last_boundary - first_boundary) - (last_boundary_excluded - first_boundary_excluded);
  for (size_t i = 0; i < traced.loop_dfs.size(); ++i) {
    traced.loop_dfs[i].calls = dfs.tallies()[i].calls - setup_dfs[i].calls;
    traced.loop_dfs[i].ns = dfs.tallies()[i].ns - setup_dfs[i].ns;
  }

  // ---- the result, as Campaign::Run assembles it ----
  for (const FaultRuntime& fault : injector.faults()) {
    result.trigger_stats[fault.spec.id] = {fault.satisfied_evals, fault.trigger_count};
  }
  result.distinct_failures = tally.distinct_failures;
  result.false_positives = tally.false_positive_reports;
  result.final_coverage = coverage.TotalHits();
  result.transition_coverage = model_coverage.TransitionsCovered();
  for (const auto& [from, to] : model_coverage.CoveredPairs()) {
    result.transition_pairs.emplace_back(static_cast<uint8_t>(from),
                                         static_cast<uint8_t>(to));
  }
  result.total_ops = executor.total_ops();
  result.candidates = executor.candidates_raised();
  if (checkpointing) {
    SnapshotWriter writer;
    WriteSnapshotIdentity(writer, result.strategy_name, config);
    SaveCampaignResult(writer, result);
    const std::string payload = writer.Take();
    const std::string path =
        (checkpoint_dir / FinalSnapshotFileName(config.job_index)).string();
    if (Status s = WriteSnapshotFile(path, SnapshotKind::kFinal, payload); !s.ok()) {
      return s;
    }
    if (Status s = VerifySnapshot(path, SnapshotKind::kFinal, payload); !s.ok()) {
      return s;
    }
  }
  return traced;
}

}  // namespace campaign_bench

#include "src/harness/campaign.h"

#include <bit>
#include <filesystem>

#include "src/common/log.h"
#include "src/common/strings.h"
#include "src/core/fuzzer.h"
#include "src/core/generator.h"
#include "src/faults/env_fault.h"
#include "src/harness/snapshot.h"
#include "src/monitor/states_monitor.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace themis {

namespace {

uint64_t HashString(uint64_t h, const std::string& text) {
  h = HashCombine(h, text.size());
  for (char c : text) {
    h = HashCombine(h, static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

uint64_t HashDouble(uint64_t h, double value) {
  return HashCombine(h, std::bit_cast<uint64_t>(value));
}

// Share of generated ops drawn from the env-fault operator class when
// CampaignConfig::env_faults is on (DESIGN.md §14). High enough that every
// campaign exercises the fault schedule, low enough that request/config ops
// still dominate and the variance guidance has load to steer.
constexpr double kEnvFaultShare = 0.2;

}  // namespace

uint64_t CampaignResult::Digest() const {
  uint64_t h = Mix64(0x7e315d16e57ULL);
  h = HashString(h, strategy_name);
  h = HashCombine(h, static_cast<uint64_t>(flavor));
  h = HashCombine(h, static_cast<uint64_t>(testcases));
  h = HashCombine(h, total_ops);
  h = HashCombine(h, static_cast<uint64_t>(candidates));
  h = HashCombine(h, final_coverage);
  h = HashCombine(h, static_cast<uint64_t>(false_positives));
  for (const auto& [id, at] : distinct_failures) {
    h = HashString(h, id);
    h = HashCombine(h, static_cast<uint64_t>(at));
  }
  for (const auto& [at, hits] : coverage_timeline) {
    h = HashCombine(h, static_cast<uint64_t>(at));
    h = HashCombine(h, hits);
  }
  for (const auto& [id, stats] : trigger_stats) {
    h = HashString(h, id);
    h = HashCombine(h, stats.first);
    h = HashCombine(h, static_cast<uint64_t>(stats.second));
  }
  for (const FailureReport& report : reports) {
    h = HashCombine(h, static_cast<uint64_t>(report.dimension));
    h = HashDouble(h, report.ratio);
    h = HashCombine(h, static_cast<uint64_t>(report.confirmed_at));
    h = HashCombine(h, report.rebalance_hung ? 1u : 0u);
    h = HashString(h, report.testcase.ToString());
    for (const std::string& fault : report.active_faults) {
      h = HashString(h, fault);
    }
  }
  for (const CampaignEvent& event : telemetry) {
    h = HashCombine(h, static_cast<uint64_t>(event.kind));
    h = HashCombine(h, static_cast<uint64_t>(event.at));
    h = HashString(h, event.label);
    h = HashDouble(h, event.value);
    h = HashDouble(h, event.value2);
    h = HashCombine(h, event.count);
  }
  return h;
}

Status CampaignConfig::Validate() const {
  if (budget <= 0) {
    return Status::InvalidArgument("campaign budget must be positive");
  }
  if (storage_nodes <= 0) {
    return Status::InvalidArgument("campaign needs at least one storage node");
  }
  if (meta_nodes < 0) {
    return Status::InvalidArgument("meta node count cannot be negative");
  }
  if (threshold_t <= 0.0) {
    return Status::InvalidArgument("detector threshold t must be > 0");
  }
  if (coverage_sample_period <= 0) {
    return Status::InvalidArgument("coverage sample period must be positive");
  }
  if (initial_files < 0) {
    return Status::InvalidArgument("initial file population cannot be negative");
  }
  if (weights.computation < 0.0 || weights.network < 0.0 || weights.storage < 0.0 ||
      weights.computation + weights.network + weights.storage <= 0.0) {
    return Status::InvalidArgument(
        "variance weights must be non-negative and sum to a positive value");
  }
  if (checkpoint_dir.empty() &&
      (checkpoint_every_ops > 0 || resume || halt_after_checkpoints > 0)) {
    return Status::InvalidArgument(
        "checkpoint_every_ops/resume/halt_after_checkpoints require a "
        "checkpoint_dir");
  }
  if (checkpoint_keep < 1) {
    return Status::InvalidArgument("checkpoint_keep must be at least 1");
  }
  if (!(transition_weight >= 0.0) || transition_weight > 1e6) {
    return Status::InvalidArgument(
        "transition_weight must be finite and non-negative");
  }
  return Status::Ok();
}

Campaign::Campaign(CampaignConfig config) : config_(config) {}

std::vector<FaultSpec> Campaign::FaultsForConfig() const {
  std::vector<FaultSpec> faults;
  switch (config_.fault_set) {
    case FaultSet::kNewBugs:
      faults = NewBugsFor(config_.flavor);
      break;
    case FaultSet::kHistorical:
      faults = HistoricalFaultsFor(config_.flavor);
      break;
    case FaultSet::kNone:
      // Healthy system (false-positive studies): no bugs, env-gated or not.
      return {};
  }
  if (config_.env_faults) {
    // Env-gated bugs ride along only when the grammar can actually produce
    // their trigger operators; in a fault-free campaign they would be dead
    // weight in the trigger-evaluation loop.
    std::vector<FaultSpec> env_bugs = EnvFaultBugsFor(config_.flavor);
    faults.insert(faults.end(), env_bugs.begin(), env_bugs.end());
  }
  return faults;
}

Result<CampaignResult> Campaign::Run(std::string_view strategy_name) {
  THEMIS_SPAN(campaign_span, "campaign.run");
  if (Status status = config_.Validate(); !status.ok()) {
    return status;
  }

  CampaignResult result;
  result.strategy_name = std::string(strategy_name);
  result.flavor = config_.flavor;

  std::unique_ptr<DfsCluster> cluster = MakeCluster(
      config_.flavor, config_.seed, config_.storage_nodes, config_.meta_nodes);
  CoverageRecorder coverage(FlavorBranchSpace(config_.flavor), config_.seed);
  cluster->set_coverage(&coverage);
  // Balancer state-machine transition recorder (DESIGN.md §16). Always
  // attached: emission draws no RNG and the counters stay outside Digest(),
  // so recording is free of behavioral side effects; only a nonzero
  // transition_weight lets the counters feed back into seed energy.
  ModelCoverage model_coverage(config_.flavor);
  cluster->set_model_coverage(&model_coverage);

  // One event log per campaign, stamped with the campaign's virtual clock so
  // every event is deterministic; metrics are global and thread-striped.
  EventLog event_log;
  EventLog* telemetry = config_.collect_telemetry ? &event_log : nullptr;
  if (telemetry != nullptr) {
    telemetry->BindClock(&cluster->clock());
    cluster->set_telemetry(telemetry);
  }

  FaultInjector injector(FaultsForConfig(), config_.seed ^ 0xfa0175ULL);
  cluster->set_fault_hooks(&injector);

  // Constructed unconditionally so the mid-campaign snapshot layout does not
  // depend on the flag, but attached to the cluster only when env faults are
  // enabled: a detached injector draws no RNG and touches no cluster state,
  // keeping fault-free digests bit-identical to pre-fault-dimension builds.
  EnvFaultInjector env_injector(config_.seed ^ 0xe4fa17ULL);
  if (config_.env_faults) {
    cluster->set_env_faults(&env_injector);
  }

  Rng rng(config_.seed ^ 0x7e5715ULL);
  InputModel model;
  StatesMonitor monitor(config_.weights);
  DetectorConfig detector_config;
  detector_config.threshold = config_.threshold_t;
  ImbalanceDetector detector(detector_config);
  detector.set_telemetry(telemetry);
  TestCaseExecutor executor(*cluster, model, monitor, detector, &injector, &coverage,
                            rng, telemetry);
  executor.set_model_coverage(&model_coverage);
  StrategyOptions strategy_options;
  strategy_options.telemetry = telemetry;
  strategy_options.env_fault_share = config_.env_faults ? kEnvFaultShare : 0.0;
  strategy_options.transition_weight = config_.transition_weight;
  Result<std::unique_ptr<Strategy>> strategy =
      StrategyRegistry::Instance().Make(strategy_name, model, rng, strategy_options);
  if (!strategy.ok()) {
    return strategy.status();
  }

  GroundTruthTally tally;
  SimTime next_coverage_sample = 0;
  // Mid-campaign snapshot ordinal: continued across resumes so checkpoint
  // file names never collide with snapshots from an earlier incarnation.
  uint64_t checkpoints_written = 0;
  // halt_after_checkpoints counts only checkpoints written by THIS process.
  int checkpoints_this_process = 0;
  const bool checkpointing = !config_.checkpoint_dir.empty();

  // The complete mid-campaign state, in one fixed order. Everything else
  // that exists during a run is either derived (rebuilt inside the
  // components' RestoreState) or deliberately not snapshotted (DESIGN.md
  // §11): global metrics, trace spans, and the log stream carry wall-clock
  // values and never feed back into the campaign.
  auto save_mid_payload = [&]() {
    SnapshotWriter writer;
    WriteSnapshotIdentity(writer, result.strategy_name, config_);
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
    (*strategy)->SaveState(writer);
    return writer.Take();
  };

  // Mirror of save_mid_payload (identity already consumed by the caller).
  // Every component's RestoreState clears before it populates, so a failed
  // attempt leaves the components ready for the next (older) candidate.
  auto restore_mid_payload = [&](SnapshotReader& reader) -> Status {
    checkpoints_written = reader.U64();
    result.testcases = static_cast<int>(reader.I64());
    next_coverage_sample = reader.I64();
    uint64_t report_count = reader.Count(32);
    result.reports.clear();
    result.reports.resize(report_count);
    for (uint64_t i = 0; i < report_count && reader.ok(); ++i) {
      RestoreFailureReport(reader, &result.reports[i]);
    }
    uint64_t timeline_count = reader.Count(16);
    result.coverage_timeline.clear();
    result.coverage_timeline.reserve(timeline_count);
    for (uint64_t i = 0; i < timeline_count && reader.ok(); ++i) {
      SimTime at = reader.I64();
      size_t hits = reader.U64();
      result.coverage_timeline.emplace_back(at, hits);
    }
    RestoreGroundTruthTally(reader, &tally);
    if (Status s = reader.status(); !s.ok()) return s;
    if (Status s = rng.RestoreState(reader); !s.ok()) return s;
    if (Status s = cluster->RestoreState(reader); !s.ok()) return s;
    if (Status s = coverage.RestoreState(reader); !s.ok()) return s;
    if (Status s = model_coverage.RestoreState(reader); !s.ok()) return s;
    if (Status s = model.RestoreState(reader); !s.ok()) return s;
    if (Status s = monitor.RestoreState(reader); !s.ok()) return s;
    if (Status s = detector.RestoreState(reader); !s.ok()) return s;
    if (Status s = injector.RestoreState(reader); !s.ok()) return s;
    if (Status s = env_injector.RestoreState(reader); !s.ok()) return s;
    if (Status s = event_log.RestoreState(reader); !s.ok()) return s;
    if (Status s = executor.RestoreState(reader); !s.ok()) return s;
    if (Status s = (*strategy)->RestoreState(reader); !s.ok()) return s;
    if (!reader.AtEnd()) {
      return Status::DataLoss(
          Sprintf("snapshot has %zu trailing bytes", reader.remaining()));
    }
    return Status::Ok();
  };

  bool resumed = false;
  if (config_.resume) {
    // Newest-first scan: the final snapshot, then mid-campaign snapshots by
    // descending ordinal. A corrupt or mismatched candidate is skipped with
    // a warning and the next older one is tried — losing the newest
    // checkpoint costs progress, never correctness.
    for (const std::string& path :
         ListJobSnapshotPaths(config_.checkpoint_dir, config_.job_index)) {
      Result<LoadedSnapshot> loaded = ReadSnapshotFile(path);
      if (!loaded.ok()) {
        THEMIS_LOG(kWarn, "resume: skipping %s: %s", path.c_str(),
                   loaded.status().message().c_str());
        continue;
      }
      SnapshotReader reader(loaded->payload);
      if (Status s = CheckSnapshotIdentity(reader, result.strategy_name, config_);
          !s.ok()) {
        THEMIS_LOG(kWarn, "resume: skipping %s: %s", path.c_str(),
                   s.message().c_str());
        continue;
      }
      if (loaded->kind == SnapshotKind::kFinal) {
        CampaignResult final_result;
        if (Status s = RestoreCampaignResult(reader, &final_result); !s.ok()) {
          THEMIS_LOG(kWarn, "resume: skipping %s: %s", path.c_str(),
                     s.message().c_str());
          continue;
        }
        THEMIS_LOG(kInfo, "resume: campaign already complete (%s)", path.c_str());
        return final_result;
      }
      if (Status s = restore_mid_payload(reader); !s.ok()) {
        THEMIS_LOG(kWarn, "resume: skipping %s: %s", path.c_str(),
                   s.message().c_str());
        continue;
      }
      THEMIS_LOG(kInfo, "resume: restored %s (%d testcases, %llu ops)",
                 path.c_str(), result.testcases,
                 static_cast<unsigned long long>(executor.total_ops()));
      resumed = true;
      break;
    }
  }

  if (!resumed) {
    // Initial data population (fresh campaigns only: a restored cluster
    // already contains the population the interrupted run seeded).
    OpSeqGenerator init_generator(model);
    executor.SeedInitialData(init_generator, config_.initial_files);
  }

  const std::filesystem::path checkpoint_dir(config_.checkpoint_dir);
  uint64_t next_checkpoint_ops =
      config_.checkpoint_every_ops > 0
          ? (executor.total_ops() / config_.checkpoint_every_ops + 1) *
                config_.checkpoint_every_ops
          : 0;

  while (cluster->Now() < config_.budget) {
    OpSeq testcase = (*strategy)->Next();
    ExecOutcome outcome = executor.Run(testcase);
    (*strategy)->OnOutcome(testcase, outcome);
    ++result.testcases;
    for (const FailureReport& report : outcome.failures) {
      if (!report.IsTruePositive() && GetLogLevel() >= LogLevel::kDebug) {
        for (const auto& [id, brick] : cluster->bricks()) {
          THEMIS_LOG(kDebug, "FP state: brick%u node%u online=%d used=%lluG cap=%lluG",
                     id, brick.node, brick.online ? 1 : 0,
                     static_cast<unsigned long long>(brick.used_bytes >> 30),
                     static_cast<unsigned long long>(brick.capacity_bytes >> 30));
        }
      }
      result.reports.push_back(report);
    }
    TallyReports(outcome.failures, tally);
    while (cluster->Now() >= next_coverage_sample) {
      result.coverage_timeline.emplace_back(next_coverage_sample, coverage.TotalHits());
      next_coverage_sample += config_.coverage_sample_period;
    }
    if (loop_observer_ != nullptr) {
      // Before the checkpoint block on purpose: anything the observer does
      // to the strategy (seed imports) lands in this boundary's snapshot,
      // so a resume never replays it.
      CampaignTick tick;
      tick.total_ops = executor.total_ops();
      tick.testcases = result.testcases;
      tick.coverage = coverage.TotalHits();
      tick.transition_coverage = model_coverage.TransitionsCovered();
      tick.now = cluster->Now();
      loop_observer_->OnTestcase(**strategy, outcome, tick);
    }
    if (checkpointing && config_.checkpoint_every_ops > 0 &&
        executor.total_ops() >= next_checkpoint_ops) {
      ++checkpoints_written;
      const std::string path =
          (checkpoint_dir /
           MidSnapshotFileName(config_.job_index, checkpoints_written))
              .string();
      if (Status s = WriteSnapshotFile(path, SnapshotKind::kMidCampaign,
                                       save_mid_payload());
          !s.ok()) {
        return s;
      }
      PruneMidSnapshots(config_.checkpoint_dir, config_.job_index,
                        config_.checkpoint_keep);
      THEMIS_COUNTER_INC("campaign.checkpoints", 1);
      next_checkpoint_ops =
          (executor.total_ops() / config_.checkpoint_every_ops + 1) *
          config_.checkpoint_every_ops;
      ++checkpoints_this_process;
      if (config_.halt_after_checkpoints > 0 &&
          checkpoints_this_process >= config_.halt_after_checkpoints) {
        return Status::FailedPrecondition(
            Sprintf("halted after %d checkpoints (crash-test hook); resume from %s",
                    checkpoints_this_process, path.c_str()));
      }
    }
  }

  for (const FaultRuntime& fault : injector.faults()) {
    result.trigger_stats[fault.spec.id] = {fault.satisfied_evals, fault.trigger_count};
  }
  result.distinct_failures = tally.distinct_failures;
  result.false_positives = tally.false_positive_reports;
  result.final_coverage = coverage.TotalHits();
  result.transition_coverage = model_coverage.TransitionsCovered();
  result.transition_pairs.clear();
  for (const auto& [from, to] : model_coverage.CoveredPairs()) {
    result.transition_pairs.emplace_back(static_cast<uint8_t>(from),
                                         static_cast<uint8_t>(to));
  }
  // Per-flavor transition gauge: lands in BENCH_*.json / --summary-json via
  // the registry dump. Summed across a matrix's jobs like every counter.
  MetricsRegistry::Global()
      .GetGauge(Sprintf("model_coverage.%s.transitions",
                        std::string(FlavorName(config_.flavor)).c_str()))
      .Add(static_cast<int64_t>(model_coverage.TransitionsCovered()));
  if (model_coverage.illegal_transitions() > 0) {
    THEMIS_LOG(kWarn, "campaign saw %llu illegal balancer transitions",
               static_cast<unsigned long long>(
                   model_coverage.illegal_transitions()));
  }
  result.total_ops = executor.total_ops();
  result.candidates = executor.candidates_raised();
  result.telemetry = event_log.TakeEvents();
  THEMIS_COUNTER_INC("campaign.runs", 1);
  THEMIS_COUNTER_INC("campaign.testcases", static_cast<uint64_t>(result.testcases));
  THEMIS_COUNTER_INC("campaign.ops", result.total_ops);
  THEMIS_COUNTER_INC("campaign.confirmed_failures",
                     static_cast<uint64_t>(result.reports.size()));
  THEMIS_LOG(kInfo,
             "campaign %s/%s: %d testcases, %llu ops, %d distinct failures, %d FPs, "
             "%zu branches",
             result.strategy_name.c_str(), std::string(FlavorName(config_.flavor)).c_str(),
             result.testcases, static_cast<unsigned long long>(result.total_ops),
             result.DistinctTruePositives(), result.false_positives,
             result.final_coverage);
  if (checkpointing) {
    // Final snapshot: the complete result, so a resume after completion
    // returns it instead of re-running 24 virtual hours.
    SnapshotWriter writer;
    WriteSnapshotIdentity(writer, result.strategy_name, config_);
    SaveCampaignResult(writer, result);
    const std::string path =
        (checkpoint_dir / FinalSnapshotFileName(config_.job_index)).string();
    if (Status s = WriteSnapshotFile(path, SnapshotKind::kFinal, writer.Take());
        !s.ok()) {
      return s;
    }
  }
  return result;
}

Result<CampaignResult> RunCampaign(std::string_view strategy_name, Flavor flavor,
                                   uint64_t seed, SimDuration budget,
                                   FaultSet fault_set) {
  CampaignConfig config;
  config.flavor = flavor;
  config.seed = seed;
  config.budget = budget;
  config.fault_set = fault_set;
  return Campaign(config).Run(strategy_name);
}

}  // namespace themis

// Campaign benchmark program: runs one workload's campaigns repeatedly for a
// fixed wall-clock window and prints one JSON object with every metric, the
// per-campaign digests and the host record. See campaign_bench/README.md.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --scratch DIR [--tiny] [--hours H]
//
// --tiny shrinks every workload for the self-test; --hours overrides the
// virtual budget per campaign, for measuring how cost grows with campaign
// age.
// --trace 0 runs untraced passes only: each campaign is Campaign::Run with a
// loop observer that reads a steady clock at every test-case boundary.
// --trace 1 alternates untraced and traced passes; a traced pass rebuilds
// the loop with a timed DFS wrapper (traced_campaign.h) and must reproduce
// the untraced campaigns exactly.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign_bench/traced_campaign.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/harness/campaign.h"
#include "src/harness/snapshot.h"

namespace campaign_bench {
namespace {

using namespace themis;

constexpr char kStrategy[] = "Themis";
constexpr int kSetupRounds = 2;  // set-up samples per pass

// ---------------------------------------------------------------- workloads

struct WorkloadSpec {
  const char* name;
  std::vector<Flavor> flavors;
  int seeds;          // campaign seeds per pass, derived from --seed
  int hours;          // virtual budget per campaign
  FaultSet fault_set;
  bool env_faults;
  int storage_nodes;
  uint64_t checkpoint_every_ops;  // 0 = no checkpoints
};

const std::vector<Flavor> kPaperFlavors = {Flavor::kHdfs, Flavor::kCeph, Flavor::kGluster,
                                           Flavor::kLeo};

// Full-size workloads, and the tiny variants the self-test runs.
WorkloadSpec FindWorkload(const std::string& name, bool tiny) {
  if (name == "paper-24h") {
    return {"paper-24h", kPaperFlavors, tiny ? 1 : 16, tiny ? 2 : 24,
            FaultSet::kNewBugs, false, 8, 0};
  }
  if (name == "aged-faults-ckpt") {
    return {"aged-faults-ckpt", kPaperFlavors, tiny ? 1 : 16, tiny ? 8 : 48,
            FaultSet::kHistorical, true, 8, tiny ? 2000u : 10000u};
  }
  if (name == "geo-10k") {
    return {"geo-10k", {Flavor::kGeo}, tiny ? 1 : 32, tiny ? 2 : 24,
            FaultSet::kNewBugs, false, 10000, 0};
  }
  return {nullptr, {}, 0, 0, FaultSet::kNewBugs, false, 0, 0};
}

std::vector<CampaignConfig> MakeCampaigns(const WorkloadSpec& spec, uint64_t base_seed) {
  std::vector<CampaignConfig> configs;
  uint64_t state = base_seed;
  for (int s = 0; s < spec.seeds; ++s) {
    uint64_t seed = SplitMix64(state);
    for (Flavor flavor : spec.flavors) {
      CampaignConfig config;
      config.flavor = flavor;
      config.seed = seed;
      config.budget = Hours(spec.hours);
      config.fault_set = spec.fault_set;
      config.env_faults = spec.env_faults;
      config.storage_nodes = spec.storage_nodes;
      config.checkpoint_every_ops = spec.checkpoint_every_ops;
      config.job_index = configs.size();
      configs.push_back(config);
    }
  }
  return configs;
}

// ------------------------------------------------------------ small helpers

double Seconds(Nanos ns) { return static_cast<double>(ns) * 1e-9; }

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

// Nearest-rank quantile of an unsorted sample.
double Quantile(std::vector<Nanos> values, double q) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(index),
                   values.end());
  return static_cast<double>(values[index]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Other tenants of a shared host contend for its caches and memory: on a
// shared 4-core Xeon VM, the same campaigns ran up to 1.7x slower for
// minutes at a time, while compute-only code kept its speed. The
// probe is a fixed task that suffers the same interference: random
// read-modify-writes over an 8 MiB table and churn in a string-keyed hash
// map. It is timed next to every campaign and the campaign's wall times are
// scaled by kProbeReferenceNs / probe time, i.e. expressed at the speed the
// host has when the probe takes its reference time. The probe is fixed code
// outside the engine, so a faster engine still reads as faster.
constexpr double kProbeReferenceNs = 5.0e6;

class InterferenceProbe {
 public:
  InterferenceProbe() : table_(kTableWords, 0) { (void)Run(); }

  Nanos Run() {
    Nanos start = NowNs();
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 200000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      ++table_[(x >> 33) & (kTableWords - 1)];
    }
    std::unordered_map<std::string, uint64_t> map;
    for (int i = 0; i < 20000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      map["/probe/f" + std::to_string((x >> 40) % 5000)] += x;
      if (i % 3 == 0) map.erase("/probe/f" + std::to_string((x >> 20) % 5000));
    }
    sink_ += x + map.size();
    return NowNs() - start;
  }

  // Scale for wall times measured between two probes.
  static double Scale(Nanos before, Nanos after) {
    return kProbeReferenceNs / (0.5 * static_cast<double>(before + after));
  }

 private:
  static constexpr size_t kTableWords = size_t{1} << 20;  // 8 MiB
  std::vector<uint64_t> table_;
  uint64_t sink_ = 0;
};

// Reads a mid-campaign snapshot back through the program's own reader and
// checks its identity record. Returns the payload hash.
Result<uint64_t> ReadBackMidSnapshot(const std::string& path, const CampaignConfig& config) {
  Result<LoadedSnapshot> loaded = ReadSnapshotFile(path);
  if (!loaded.ok()) return loaded.status();
  if (loaded->kind != SnapshotKind::kMidCampaign) {
    return Status::DataLoss(path + " is not a mid-campaign snapshot");
  }
  SnapshotReader reader(loaded->payload);
  if (Status s = CheckSnapshotIdentity(reader, kStrategy, config); !s.ok()) return s;
  return PayloadHash(loaded->payload);
}

// ------------------------------------------------------------ untraced runs

// The only code the untraced run adds to the program: a clock read at each
// test-case boundary. When the campaign checkpoints, it also reads back the
// snapshot written after the previous boundary, off the clock.
class BoundaryClock final : public CampaignLoopObserver {
 public:
  BoundaryClock(const CampaignConfig& config, std::vector<Nanos>& intervals)
      : config_(config), intervals_(intervals) {
    if (config.checkpoint_every_ops > 0) {
      next_checkpoint_ops_ = (static_cast<uint64_t>(config.initial_files) /
                                  config.checkpoint_every_ops + 1) *
                             config.checkpoint_every_ops;
    }
  }

  void OnTestcase(Strategy& strategy, const ExecOutcome& outcome,
                  const CampaignTick& tick) override {
    (void)strategy;
    (void)outcome;
    Nanos now = NowNs();
    if (boundaries_ == 0) {
      first_ops_ = tick.total_ops;
    } else {
      intervals_.push_back(now - resume_);
      span_ns_ += now - resume_;
    }
    ++boundaries_;
    last_ops_ = tick.total_ops;
    resume_ = now;
    if (checkpoint_pending_) {
      VerifyPendingCheckpoint();
      resume_ = NowNs();
    }
    // Campaign::Run checkpoints right after this call when the op count has
    // crossed the next multiple of checkpoint_every_ops.
    if (config_.checkpoint_every_ops > 0 && tick.total_ops >= next_checkpoint_ops_) {
      checkpoint_pending_ = true;
      next_checkpoint_ops_ =
          (tick.total_ops / config_.checkpoint_every_ops + 1) * config_.checkpoint_every_ops;
    }
  }

  // Reads back the checkpoint the last boundary wrote, if any.
  void Finish() {
    if (checkpoint_pending_) VerifyPendingCheckpoint();
  }

  Nanos span_ns() const { return span_ns_; }
  uint64_t loop_ops() const { return last_ops_ - first_ops_; }
  const std::vector<uint64_t>& checkpoint_hashes() const { return checkpoint_hashes_; }
  const Status& snapshot_status() const { return snapshot_status_; }

 private:
  void VerifyPendingCheckpoint() {
    checkpoint_pending_ = false;
    ++ordinal_;
    std::string path = (std::filesystem::path(config_.checkpoint_dir) /
                        MidSnapshotFileName(config_.job_index, ordinal_))
                           .string();
    Result<uint64_t> hash = ReadBackMidSnapshot(path, config_);
    if (hash.ok()) {
      checkpoint_hashes_.push_back(*hash);
    } else if (snapshot_status_.ok()) {
      snapshot_status_ = hash.status();
    }
  }

  const CampaignConfig& config_;
  std::vector<Nanos>& intervals_;
  uint64_t boundaries_ = 0;
  Nanos resume_ = 0;
  Nanos span_ns_ = 0;
  uint64_t first_ops_ = 0;
  uint64_t last_ops_ = 0;
  uint64_t next_checkpoint_ops_ = 0;
  bool checkpoint_pending_ = false;
  uint64_t ordinal_ = 0;
  std::vector<uint64_t> checkpoint_hashes_;
  Status snapshot_status_ = Status::Ok();
};

// What the benchmark keeps of one finished campaign.
struct CampaignRecord {
  bool ok = false;
  uint64_t digest = 0;
  int testcases = 0;
  uint64_t total_ops = 0;
  int candidates = 0;
  size_t coverage = 0;
  int distinct_failures = 0;
  int false_positives = 0;
  size_t reports = 0;
  std::vector<uint64_t> checkpoint_hashes;
  size_t intervals = 0;  // test-case intervals the untraced run timed
  uint64_t loop_ops = 0;  // ops executed between first and last boundary
  Nanos span_ns = 0;      // first to last boundary
  double scale = 1.0;     // interference scale of this run (InterferenceProbe)
};

CampaignRecord RecordOf(const CampaignResult& result) {
  CampaignRecord record;
  record.ok = true;
  record.digest = result.Digest();
  record.testcases = result.testcases;
  record.total_ops = result.total_ops;
  record.candidates = result.candidates;
  record.coverage = result.final_coverage;
  record.distinct_failures = result.DistinctTruePositives();
  record.false_positives = result.false_positives;
  record.reports = result.reports.size();
  return record;
}

struct UntracedPass {
  std::vector<CampaignRecord> campaigns;
  std::vector<Nanos> intervals;  // wall time between consecutive boundaries
  Nanos span_ns = 0;             // first to last boundary, summed
  std::vector<double> setup_s;      // per set-up round: every campaign's, summed, scaled
  std::vector<double> raw_setup_s;  // the same, unscaled
  bool setup_failed = false;
  std::vector<Nanos> probes;     // InterferenceProbe times, in order
  double cpu_s = 0.0;            // process CPU time of the campaigns
};

// A fresh, empty checkpoint directory for one campaign (or "" when the
// workload does not checkpoint).
std::string FreshCheckpointDir(const std::string& scratch, const CampaignConfig& config,
                               const char* tag) {
  if (config.checkpoint_every_ops == 0) return "";
  std::filesystem::path dir =
      std::filesystem::path(scratch) / Sprintf("ckpt-%s-%zu", tag, config.job_index);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// Reads back the final snapshot and checks it restores the returned result.
Status VerifyFinalSnapshot(const CampaignConfig& config, const CampaignResult& result) {
  std::string path = (std::filesystem::path(config.checkpoint_dir) /
                      FinalSnapshotFileName(config.job_index))
                         .string();
  Result<LoadedSnapshot> loaded = ReadSnapshotFile(path);
  if (!loaded.ok()) return loaded.status();
  SnapshotReader reader(loaded->payload);
  if (Status s = CheckSnapshotIdentity(reader, kStrategy, config); !s.ok()) return s;
  CampaignResult restored;
  if (Status s = RestoreCampaignResult(reader, &restored); !s.ok()) return s;
  if (restored.Digest() != result.Digest()) {
    return Status::DataLoss(path + " does not restore the campaign's result");
  }
  return Status::Ok();
}

// Builds a campaign's set-up on its own, with the same calls Campaign::Run
// makes before its loop, and times it. Set-up cannot be timed inside Run:
// the loop observer first fires after a test case.
Result<Nanos> TimeSetup(CampaignConfig config) {
  config.checkpoint_every_ops = 0;  // no snapshot is written before the loop
  Result<TracedCampaign> setup = RunTracedCampaign(config, kStrategy, /*setup_only=*/true);
  if (!setup.ok()) return setup.status();
  return setup->setup_ns;
}

// Runs every campaign once. Before each campaign, the probe runs and the
// campaign's set-up is timed kSetupRounds times on its own; a final probe
// closes the pass. Campaign i lies between probes i and i + 1.
UntracedPass RunUntracedPass(const std::vector<CampaignConfig>& configs,
                             const std::string& scratch, InterferenceProbe& probe) {
  UntracedPass pass;
  std::vector<std::vector<Nanos>> setups;  // [campaign][round]
  for (CampaignConfig config : configs) {
    pass.probes.push_back(probe.Run());
    setups.emplace_back();
    for (int round = 0; round < kSetupRounds; ++round) {
      Result<Nanos> setup = TimeSetup(config);
      if (!setup.ok()) {
        std::fprintf(stderr, "set-up of campaign %zu failed: %s\n", config.job_index,
                     setup.status().ToString().c_str());
        pass.setup_failed = true;
      }
      setups.back().push_back(setup.ok() ? *setup : 0);
    }
    config.checkpoint_dir = FreshCheckpointDir(scratch, config, "u");
    const size_t intervals_before = pass.intervals.size();
    BoundaryClock clock(config, pass.intervals);
    Campaign campaign(config);
    campaign.set_loop_observer(&clock);
    const double cpu_start = CpuSeconds();
    Result<CampaignResult> result = campaign.Run(kStrategy);
    pass.cpu_s += CpuSeconds() - cpu_start;
    clock.Finish();
    CampaignRecord record;
    Status status = result.status();
    if (result.ok()) {
      record = RecordOf(*result);
      record.checkpoint_hashes = clock.checkpoint_hashes();
      if (status.ok()) status = clock.snapshot_status();
      if (status.ok() && !config.checkpoint_dir.empty()) {
        status = VerifyFinalSnapshot(config, *result);
      }
    }
    if (!status.ok()) {
      std::fprintf(stderr, "campaign %zu (%s, seed %llu) failed: %s\n", config.job_index,
                   std::string(FlavorName(config.flavor)).c_str(),
                   static_cast<unsigned long long>(config.seed), status.ToString().c_str());
      record.ok = false;
    }
    record.intervals = pass.intervals.size() - intervals_before;
    record.loop_ops = clock.loop_ops();
    record.span_ns = clock.span_ns();
    pass.span_ns += clock.span_ns();
    pass.campaigns.push_back(record);
    if (!config.checkpoint_dir.empty()) std::filesystem::remove_all(config.checkpoint_dir);
  }
  pass.probes.push_back(probe.Run());
  for (size_t i = 0; i < pass.campaigns.size(); ++i) {
    pass.campaigns[i].scale = InterferenceProbe::Scale(pass.probes[i], pass.probes[i + 1]);
  }
  // One set-up sample per round: every campaign's scaled set-up, summed.
  for (int round = 0; round < kSetupRounds; ++round) {
    double raw = 0, scaled = 0;
    for (size_t i = 0; i < setups.size(); ++i) {
      raw += Seconds(setups[i][round]);
      scaled += Seconds(setups[i][round]) * pass.campaigns[i].scale;
    }
    pass.raw_setup_s.push_back(raw);
    pass.setup_s.push_back(scaled);
  }
  return pass;
}

// -------------------------------------------------------------- traced runs

struct TracedPass {
  std::vector<CampaignRecord> campaigns;
  std::vector<TracedCampaign> traces;
};

// Multiplies every wall time of a traced campaign by `scale`.
void ScaleTimes(TracedCampaign& t, double scale) {
  for (Nanos* ns : {&t.setup_ns, &t.make_cluster_ns, &t.seed_initial_ns, &t.loop_ns,
                    &t.boundary_span_ns, &t.next_ns, &t.on_outcome_ns, &t.executor_ns,
                    &t.executor_dfs_ns, &t.double_check_ns, &t.serialize_ns, &t.write_ns}) {
    *ns = static_cast<Nanos>(static_cast<double>(*ns) * scale);
  }
  for (CallTally& tally : t.loop_dfs) {
    tally.ns = static_cast<Nanos>(static_cast<double>(tally.ns) * scale);
  }
}

// Runs every campaign once, traced, with the interference probe between
// campaigns as in RunUntracedPass; the layer times are scaled the same way.
TracedPass RunTracedPass(const std::vector<CampaignConfig>& configs,
                         const std::string& scratch, InterferenceProbe& probe) {
  TracedPass pass;
  std::vector<Nanos> probes;
  for (CampaignConfig config : configs) {
    probes.push_back(probe.Run());
    config.checkpoint_dir = FreshCheckpointDir(scratch, config, "t");
    Result<TracedCampaign> traced = RunTracedCampaign(config, kStrategy);
    if (!config.checkpoint_dir.empty()) std::filesystem::remove_all(config.checkpoint_dir);
    if (!traced.ok()) {
      std::fprintf(stderr, "traced campaign %zu failed: %s\n", config.job_index,
                   traced.status().ToString().c_str());
      pass.campaigns.emplace_back();
      pass.traces.emplace_back();
      continue;
    }
    CampaignRecord record = RecordOf(traced->result);
    record.checkpoint_hashes = traced->checkpoint_hashes;
    traced->result = CampaignResult{};  // keep only the timings
    pass.campaigns.push_back(record);
    pass.traces.push_back(std::move(*traced));
  }
  probes.push_back(probe.Run());
  for (size_t i = 0; i < pass.traces.size(); ++i) {
    ScaleTimes(pass.traces[i], InterferenceProbe::Scale(probes[i], probes[i + 1]));
  }
  return pass;
}

// ------------------------------------------------------------ correctness

// Counts the campaigns of a pass that failed or drifted from the reference
// (the first untraced pass): the loop counts, the checkpoint payloads and the
// digest must all repeat exactly, in untraced and traced passes alike.
int CountDrift(const std::vector<CampaignRecord>& reference,
               const std::vector<CampaignRecord>& pass, const char* what) {
  int failed = 0;
  for (size_t i = 0; i < pass.size(); ++i) {
    const CampaignRecord& want = reference[i];
    const CampaignRecord& got = pass[i];
    if (!got.ok || !want.ok) {
      ++failed;
      continue;
    }
    std::string diff;
    if (got.testcases != want.testcases) diff += " testcases";
    if (got.total_ops != want.total_ops) diff += " total_ops";
    if (got.candidates != want.candidates) diff += " candidates";
    if (got.coverage != want.coverage) diff += " branch_coverage";
    if (got.checkpoint_hashes != want.checkpoint_hashes) diff += " checkpoints";
    if (got.digest != want.digest) diff += " digest";
    if (!diff.empty()) {
      std::fprintf(stderr, "%s: campaign %zu differs from the first untraced run in:%s\n",
                   what, i, diff.c_str());
      ++failed;
    }
  }
  return failed;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

using Series = std::map<std::string, std::vector<double>>;

// Every pass re-executes the same campaigns (the digests prove it), so each
// campaign has one loop time per pass, scaled for interference. What
// interference the scaling leaves only ever adds time, so each campaign
// counts with its fastest pass: that pass's scaled test-case intervals.
struct BestPass {
  std::vector<Nanos> intervals;  // scaled, all campaigns in order
  std::vector<double> loop_s;    // per campaign
  double ops = 0;                // loop ops, all campaigns
};

BestPass SelectBestPasses(const std::vector<UntracedPass>& passes) {
  // Offsets of each campaign's intervals inside each pass.
  std::vector<std::vector<size_t>> offsets;
  for (const UntracedPass& pass : passes) {
    offsets.emplace_back();
    size_t offset = 0;
    for (const CampaignRecord& record : pass.campaigns) {
      offsets.back().push_back(offset);
      offset += record.intervals;
    }
  }
  BestPass best;
  for (size_t c = 0; c < passes.front().campaigns.size(); ++c) {
    size_t chosen = 0;
    double chosen_s = -1;
    for (size_t p = 0; p < passes.size(); ++p) {
      const CampaignRecord& record = passes[p].campaigns[c];
      if (record.intervals != passes.front().campaigns[c].intervals) continue;  // drifted
      double scaled_s = Seconds(record.span_ns) * record.scale;
      if (chosen_s < 0 || scaled_s < chosen_s) {
        chosen = p;
        chosen_s = scaled_s;
      }
    }
    const CampaignRecord& record = passes[chosen].campaigns[c];
    for (size_t k = 0; k < record.intervals; ++k) {
      Nanos raw = passes[chosen].intervals[offsets[chosen][c] + k];
      best.intervals.push_back(static_cast<Nanos>(static_cast<double>(raw) * record.scale));
    }
    best.loop_s.push_back(chosen_s);
    best.ops += static_cast<double>(record.loop_ops);
  }
  return best;
}

void AddUntracedMetrics(const std::vector<UntracedPass>& passes, const BestPass& best,
                        Metrics& out, Series& series) {
  for (const UntracedPass& pass : passes) {
    int distinct = 0;
    for (const CampaignRecord& c : pass.campaigns) distinct += c.distinct_failures;
    std::vector<double> probes;
    for (Nanos probe : pass.probes) probes.push_back(static_cast<double>(probe) / 1e6);
    series["raw_testcases_per_s"].push_back(
        Ratio(static_cast<double>(pass.intervals.size()), Seconds(pass.span_ns)));
    for (size_t r = 0; r < pass.setup_s.size(); ++r) {
      series["raw_setup_s"].push_back(pass.raw_setup_s[r]);
      series["setup_s"].push_back(pass.setup_s[r]);
    }
    series["probe_ms"].push_back(Median(probes));
    series["bugs_per_core_s"].push_back(Ratio(distinct, pass.cpu_s));
  }
  double loop_s = 0;
  for (double s : best.loop_s) loop_s += s;
  const double samples = static_cast<double>(best.intervals.size());
  out["testcases_per_s"] = {Ratio(samples, loop_s), "1/s"};
  out["ops_per_s"] = {Ratio(best.ops, loop_s), "1/s"};
  out["testcase_p50_us"] = {Quantile(best.intervals, 0.50) / 1e3, "us"};
  out["testcase_p90_us"] = {Quantile(best.intervals, 0.90) / 1e3, "us"};
  out["testcase_p99_us"] = {Quantile(best.intervals, 0.99) / 1e3, "us"};
  out["testcase_p999_us"] = {Quantile(best.intervals, 0.999) / 1e3, "us"};
  out["testcase_samples"] = {samples, "count"};
  out["setup_s"] = {Median(series["setup_s"]), "s"};
  out["bugs_per_core_s"] = {Median(series["bugs_per_core_s"]), "1/s"};

  // Search outcomes: identical in every pass (the digests guard that).
  const UntracedPass& first = passes.front();
  double distinct = 0, coverage = 0, fps = 0;
  for (const CampaignRecord& c : first.campaigns) {
    distinct += c.distinct_failures;
    coverage += static_cast<double>(c.coverage);
    fps += c.false_positives;
  }
  out["distinct_failures"] = {distinct, "count"};
  out["branch_coverage"] = {coverage, "count"};
  out["false_positives"] = {fps, "count"};

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out["peak_rss_mib"] = {static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"};
}

// Layer metrics of one traced pass; the run reports their medians.
Metrics TracedPassMetrics(const TracedPass& pass, const std::vector<CampaignConfig>& configs) {
  double testcases = 0, candidates = 0, reports = 0;
  TracedCampaign sum;
  std::map<std::string, CallTally> execute_by_flavor;
  for (size_t i = 0; i < pass.traces.size(); ++i) {
    const TracedCampaign& t = pass.traces[i];
    testcases += pass.campaigns[i].testcases;
    candidates += pass.campaigns[i].candidates;
    reports += static_cast<double>(pass.campaigns[i].reports);
    sum.make_cluster_ns += t.make_cluster_ns;
    sum.seed_initial_ns += t.seed_initial_ns;
    sum.loop_ns += t.loop_ns;
    sum.next_ns += t.next_ns;
    sum.on_outcome_ns += t.on_outcome_ns;
    sum.executor_ns += t.executor_ns;
    sum.executor_dfs_ns += t.executor_dfs_ns;
    sum.double_check_ns += t.double_check_ns;
    sum.serialize_ns += t.serialize_ns;
    sum.write_ns += t.write_ns;
    sum.checkpoints += t.checkpoints;
    sum.checkpoint_bytes += t.checkpoint_bytes;
    for (size_t c = 0; c < sum.loop_dfs.size(); ++c) {
      sum.loop_dfs[c].calls += t.loop_dfs[c].calls;
      sum.loop_dfs[c].ns += t.loop_dfs[c].ns;
    }
    CallTally& flavor =
        execute_by_flavor[std::string(FlavorName(configs[i].flavor))];
    flavor.calls += t.loop_dfs[static_cast<size_t>(DfsCall::kExecute)].calls;
    flavor.ns += t.loop_dfs[static_cast<size_t>(DfsCall::kExecute)].ns;
  }
  auto tally = [&](DfsCall call) { return sum.loop_dfs[static_cast<size_t>(call)]; };
  auto ns = [](Nanos v) { return static_cast<double>(v); };
  auto per_call = [&](CallTally t) { return Ratio(ns(t.ns), static_cast<double>(t.calls)); };
  const double loop = ns(sum.loop_ns);
  const double executor_self = ns(sum.executor_ns - sum.executor_dfs_ns);
  const double snapshot = ns(sum.serialize_ns + sum.write_ns);
  const double checkpoints = static_cast<double>(sum.checkpoints);

  Metrics m;
  m["core.strategy.next.ns_per_call"] = {Ratio(ns(sum.next_ns), testcases), "ns"};
  m["core.strategy.on_outcome.ns_per_call"] = {Ratio(ns(sum.on_outcome_ns), testcases), "ns"};
  m["core.strategy.share"] = {Ratio(ns(sum.next_ns + sum.on_outcome_ns), loop), "ratio"};
  m["core.executor.self.ns_per_testcase"] = {Ratio(executor_self, testcases), "ns"};
  m["core.executor.share"] = {Ratio(executor_self, loop), "ratio"};
  m["core.input_model.sync.ns_per_testcase"] = {Ratio(ns(tally(DfsCall::kSync).ns), testcases),
                                                "ns"};
  m["dfs.execute.ns_per_op"] = {per_call(tally(DfsCall::kExecute)), "ns"};
  m["dfs.execute.share"] = {Ratio(ns(tally(DfsCall::kExecute).ns), loop), "ratio"};
  m["dfs.ops_per_testcase"] = {
      Ratio(static_cast<double>(tally(DfsCall::kExecute).calls), testcases), "count"};
  for (const auto& [flavor, t] : execute_by_flavor) {
    m["dfs.execute." + flavor + ".ns_per_op"] = {per_call(t), "ns"};
  }
  m["dfs.double_check.share"] = {Ratio(ns(sum.double_check_ns), loop), "ratio"};
  const std::pair<const char*, DfsCall> kCalls[] = {
      {"dfs.rebalance.trigger", DfsCall::kTrigger},
      {"dfs.advance_time", DfsCall::kAdvanceTime},
      {"dfs.reset", DfsCall::kReset},
      {"monitor.stream", DfsCall::kStream},
      {"monitor.scan", DfsCall::kScan},
  };
  for (const auto& [name, call] : kCalls) {
    m[std::string(name) + ".ns_per_call"] = {per_call(tally(call)), "ns"};
    m[std::string(name) + ".calls"] = {static_cast<double>(tally(call).calls), "count"};
  }
  m["monitor.candidates"] = {candidates, "count"};
  m["monitor.double_check.confirm_ratio"] = {Ratio(reports, candidates), "ratio"};
  m["harness.snapshot.serialize.ns_per_checkpoint"] = {Ratio(ns(sum.serialize_ns), checkpoints),
                                                       "ns"};
  m["harness.snapshot.write.ns_per_checkpoint"] = {Ratio(ns(sum.write_ns), checkpoints), "ns"};
  m["harness.snapshot.bytes_per_checkpoint"] = {
      Ratio(static_cast<double>(sum.checkpoint_bytes), checkpoints), "bytes"};
  m["harness.snapshot.checkpoints"] = {checkpoints, "count"};
  m["harness.snapshot.share"] = {Ratio(snapshot, loop), "ratio"};
  m["setup.make_cluster_s"] = {Seconds(sum.make_cluster_ns), "s"};
  m["setup.seed_initial_s"] = {Seconds(sum.seed_initial_ns), "s"};
  m["trace.attributed"] = {
      Ratio(ns(sum.next_ns + sum.on_outcome_ns + sum.executor_ns) + snapshot, loop), "ratio"};
  return m;
}

void AddTracedMetrics(const std::vector<TracedPass>& traced,
                      const std::vector<UntracedPass>& untraced,
                      const std::vector<CampaignConfig>& configs, Metrics& out) {
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, const char*> units;
  Nanos traced_span = 0;
  for (const TracedPass& pass : traced) {
    for (const auto& [name, metric] : TracedPassMetrics(pass, configs)) {
      series[name].push_back(metric.value);
      units[name] = metric.unit;
    }
    Nanos span = 0;
    for (const TracedCampaign& t : pass.traces) span += t.boundary_span_ns;
    traced_span = traced_span == 0 ? span : std::min(traced_span, span);
  }
  for (const auto& [name, values] : series) out[name] = {Median(values), units[name]};
  // Least scaled traced loop time over least scaled untraced loop time.
  double untraced_span = -1;
  for (const UntracedPass& pass : untraced) {
    double span = 0;
    for (const CampaignRecord& c : pass.campaigns) {
      span += static_cast<double>(c.span_ns) * c.scale;
    }
    untraced_span = untraced_span < 0 ? span : std::min(untraced_span, span);
  }
  out["trace.overhead"] = {Ratio(static_cast<double>(traced_span), untraced_span) - 1.0,
                           "ratio"};
}

// -------------------------------------------------------------- output

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return Sprintf("%.15g", value);
}

// `loop_s` (optional) adds each campaign's scaled loop time.
std::string CampaignsJson(const std::vector<CampaignConfig>& configs,
                          const std::vector<CampaignRecord>& records,
                          const std::vector<double>* loop_s = nullptr) {
  std::string json = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    const CampaignRecord& r = records[i];
    std::string loop;
    if (loop_s != nullptr) loop = ", \"loop_s\": " + JsonNumber((*loop_s)[i]);
    json += Sprintf(
        "%s{\"flavor\": \"%s\", \"seed\": %llu, \"digest\": \"%016llx\", \"testcases\": %d, "
        "\"total_ops\": %llu, \"candidates\": %d, \"branch_coverage\": %zu, "
        "\"distinct_failures\": %d, \"false_positives\": %d, \"checkpoints\": %zu%s}",
        i == 0 ? "" : ", ", std::string(FlavorName(configs[i].flavor)).c_str(),
        static_cast<unsigned long long>(configs[i].seed),
        static_cast<unsigned long long>(r.digest), r.testcases,
        static_cast<unsigned long long>(r.total_ops), r.candidates, r.coverage,
        r.distinct_failures, r.false_positives, r.checkpoint_hashes.size(), loop.c_str());
  }
  return json + "]";
}

// One JSON object: the run's identity and host, the campaigns of the first
// untraced pass (and of the first traced pass), per-pass figures and every
// metric. campaign_bench/run.py derives the result line from it.
void PrintResult(const WorkloadSpec& spec, uint64_t seed, int trace, int attempted,
                 int failed, const std::vector<CampaignConfig>& configs,
                 const std::vector<UntracedPass>& untraced,
                 const std::vector<TracedPass>& traced,
                 const BestPass& best, const Series& series, const Metrics& metrics) {
  std::string json = "{";
  json += Sprintf("\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ", spec.name,
                  static_cast<unsigned long long>(seed), trace);
  json += Sprintf("\"correct\": %s, \"attempted\": %d, \"failed\": %d, ",
                  failed == 0 ? "true" : "false", attempted, failed);
  json += Sprintf("\"passes\": {\"untraced\": %zu, \"traced\": %zu}, ", untraced.size(),
                  traced.size());
  json += Sprintf(
      "\"host\": {\"nproc\": %ld, \"build_type\": \"%s\", \"compiler\": \"%s\"}, ",
      sysconf(_SC_NPROCESSORS_ONLN), CAMPAIGN_BENCH_BUILD_TYPE, CAMPAIGN_BENCH_COMPILER);
  json += "\"campaigns\": " +
          CampaignsJson(configs, untraced.front().campaigns, &best.loop_s) + ", ";
  if (!traced.empty()) {
    json += "\"traced_campaigns\": " + CampaignsJson(configs, traced.front().campaigns) + ", ";
  }
  json += "\"untraced_passes\": {";
  for (auto it = series.begin(); it != series.end(); ++it) {
    json += Sprintf("%s\"%s\": [", it == series.begin() ? "" : ", ", it->first.c_str());
    for (size_t i = 0; i < it->second.size(); ++i) {
      json += (i == 0 ? "" : ", ") + JsonNumber(it->second[i]);
    }
    json += "]";
  }
  json += "}, \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json += Sprintf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", first ? "" : ", ",
                    name.c_str(), JsonNumber(metric.value).c_str(), metric.unit);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: campaign_bench --workload paper-24h|aged-faults-ckpt|geo-10k "
               "--seed N --seconds S --trace 0|1 --scratch DIR [--tiny] [--hours H]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, scratch;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  int hours = 0;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--hours" && has_value) {
      hours = std::atoi(argv[++i]);
    } else if (arg == "--scratch" && has_value) {
      scratch = argv[++i];
    } else {
      return Usage();
    }
  }
  WorkloadSpec spec = FindWorkload(workload, tiny);
  if (spec.name == nullptr || seconds < 0 || (trace != 0 && trace != 1) || scratch.empty()) {
    return Usage();
  }
  if (hours > 0) spec.hours = hours;
  std::filesystem::create_directories(scratch);
  const std::vector<CampaignConfig> configs = MakeCampaigns(spec, seed);

  // Whole passes until the window is spent: at least two untraced passes, so
  // every digest is repeated, or one untraced/traced pair.
  const int min_passes = trace == 1 ? 1 : 2;
  std::vector<UntracedPass> untraced;
  std::vector<TracedPass> traced;
  int attempted = 0;
  int failed = 0;
  InterferenceProbe probe;
  const Nanos start = NowNs();
  for (int pass = 0;; ++pass) {
    untraced.push_back(RunUntracedPass(configs, scratch, probe));
    attempted += static_cast<int>(configs.size());
    failed += CountDrift(untraced.front().campaigns, untraced.back().campaigns,
                         pass == 0 ? "untraced" : "repeat");
    if (untraced.back().setup_failed) ++failed;
    if (trace == 1) {
      traced.push_back(RunTracedPass(configs, scratch, probe));
      attempted += static_cast<int>(configs.size());
      failed += CountDrift(untraced.front().campaigns, traced.back().campaigns, "traced");
    }
    double elapsed = Seconds(NowNs() - start);
    double per_pass = elapsed / (pass + 1);
    if (pass + 1 >= min_passes && elapsed + per_pass > seconds) break;
  }
  std::filesystem::remove_all(scratch);

  Metrics metrics;
  Series series;
  const BestPass best = SelectBestPasses(untraced);
  AddUntracedMetrics(untraced, best, metrics, series);
  if (trace == 1) AddTracedMetrics(traced, untraced, configs, metrics);
  PrintResult(spec, seed, trace, attempted, failed, configs, untraced, traced, best, series,
              metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace campaign_bench

int main(int argc, char** argv) { return campaign_bench::Main(argc, argv); }

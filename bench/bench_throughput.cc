// Raw execution throughput of the simulated cluster — the quantity every
// campaign result scales with (more executed opSeqs per wall-second = more
// imbalance failures found per 24-hour budget).
//
// Two layers are measured, per flavor, on the paper's default 10-node
// topology (8 storage + 2 meta):
//   * ops/sec      — DfsCluster::Execute driven by the real op source
//                    (InputModel + OpSeqGenerator) with coverage recording
//                    attached, i.e. the fuzzing loop's hot path. The CI gate
//                    reads this series, so it is the median of kHotLoopRepeats
//                    timed runs after one untimed warm-up run, each on a
//                    fresh cluster.
//   * testcases/sec — full Campaign::Run (generation, mutation, detection,
//                    fault injection) over a 1-virtual-hour budget.
//
// `--summary-json` writes BENCH_throughput.json with one gauge per series
// (throughput.<flavor>.ops_per_sec, .testcases_per_sec, .campaign_ops_per_sec)
// so CI can track the perf trajectory across PRs.
//
// A third axis measures monitor cadence (DESIGN.md §13): the hot loop with a
// StatesMonitor checking every 1 / 10 / 100 ops through the O(1) streaming
// path, plus the full-scan oracle at per-op cadence for contrast. Gauges land
// under monitor_cadence.<flavor>.n<N>.* — informational, outside the CI perf
// gate, with the topology size baked into the key.
//
// BM_PlaceChunk times one flavor's chunk placement alone (ungated).
//
// A fourth axis sweeps GeoFS across node counts (10/100/1k/10k) to show the
// sparse hierarchical aggregates keep the per-op cost flat at production
// scale; see RunScaleSweepExperiment below and DESIGN.md §15.

#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/core/generator.h"
#include "src/core/input_model.h"
#include "src/coverage/coverage.h"
#include "src/dfs/flavors/ceph_like.h"
#include "src/dfs/flavors/factory.h"
#include "src/dfs/flavors/geo_like.h"
#include "src/dfs/flavors/gluster_like.h"
#include "src/dfs/flavors/hdfs_like.h"
#include "src/dfs/flavors/leo_like.h"
#include "src/harness/campaign.h"
#include "src/monitor/states_monitor.h"

namespace themis {
namespace {

constexpr Flavor kFlavors[] = {Flavor::kGluster, Flavor::kHdfs, Flavor::kCeph,
                               Flavor::kLeo, Flavor::kGeo};

// One op off the same generation path the fuzzer uses; the model re-syncs
// its admin views periodically, like the campaign's executor does.
struct OpSource {
  explicit OpSource(DfsCluster& dfs, uint64_t seed)
      : cluster(dfs), generator(model), rng(seed) {
    model.SyncFromDfs(dfs);
  }

  Operation Next() {
    if (++since_sync >= 64) {
      since_sync = 0;
      model.SyncFromDfs(cluster);
    }
    return generator.GenerateOp(rng);
  }

  DfsCluster& cluster;
  InputModel model;
  OpSeqGenerator generator;
  Rng rng;
  int since_sync = 0;
};

void BM_ClusterExecute(benchmark::State& state) {
  Flavor flavor = kFlavors[state.range(0)];
  std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, /*seed=*/42);
  CoverageRecorder coverage(FlavorBranchSpace(flavor), /*seed=*/42);
  dfs->set_coverage(&coverage);
  OpSource source(*dfs, /*seed=*/42);
  for (auto _ : state) {
    Operation op = source.Next();
    OpResult result = dfs->Execute(op);
    benchmark::DoNotOptimize(result.status);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(FlavorName(flavor)));
}
BENCHMARK(BM_ClusterExecute)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

// Exposes a flavor's PlaceChunk to the benchmark.
template <typename Cluster>
class PlacementProbe : public Cluster {
 public:
  using Cluster::PlaceChunk;
};

// One PlaceChunk per iteration on a fresh, empty 10-node cluster (GeoFS at
// its default size), cycling through 64 paths and 4 chunk indices; placement
// only reads the cluster, so every iteration sees the same topology.
template <typename Cluster>
void BM_PlaceChunk(benchmark::State& state) {
  PlacementProbe<Cluster> dfs;
  std::vector<std::string> paths;
  for (int i = 0; i < 64; ++i) {
    paths.push_back("/bench/dir" + std::to_string(i % 8) + "/file" + std::to_string(i));
  }
  const uint64_t bytes = dfs.config().chunk_size;
  size_t i = 0;
  for (auto _ : state) {
    std::vector<BrickId> placed =
        dfs.PlaceChunk(paths[i % paths.size()], static_cast<uint32_t>(i / paths.size() % 4),
                       bytes);
    benchmark::DoNotOptimize(placed.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(FlavorName(dfs.flavor())));
}
BENCHMARK_TEMPLATE(BM_PlaceChunk, GlusterLikeCluster);
BENCHMARK_TEMPLATE(BM_PlaceChunk, HdfsLikeCluster);
BENCHMARK_TEMPLATE(BM_PlaceChunk, CephLikeCluster);
BENCHMARK_TEMPLATE(BM_PlaceChunk, LeoLikeCluster);
BENCHMARK_TEMPLATE(BM_PlaceChunk, GeoLikeCluster);

void BM_SampleLoad(benchmark::State& state) {
  Flavor flavor = kFlavors[state.range(0)];
  std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, /*seed=*/42);
  OpSource source(*dfs, /*seed=*/42);
  for (int i = 0; i < 512; ++i) {
    (void)dfs->Execute(source.Next());
  }
  for (auto _ : state) {
    std::vector<LoadSample> samples = dfs->SampleLoad();
    benchmark::DoNotOptimize(samples.data());
  }
  state.SetLabel(std::string(FlavorName(flavor)));
}
BENCHMARK(BM_SampleLoad)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

void BM_MonitorSampleStream(benchmark::State& state) {
  Flavor flavor = kFlavors[state.range(0)];
  std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, /*seed=*/42);
  OpSource source(*dfs, /*seed=*/42);
  StatesMonitor monitor{LoadVarianceWeights{}};
  for (int i = 0; i < 512; ++i) {
    (void)dfs->Execute(source.Next());
  }
  for (auto _ : state) {
    LoadVarianceSnapshot snapshot = monitor.Sample(*dfs);
    benchmark::DoNotOptimize(snapshot.storage_ratio);
  }
  state.SetLabel(std::string(FlavorName(flavor)));
}
BENCHMARK(BM_MonitorSampleStream)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

void BM_MonitorSampleScan(benchmark::State& state) {
  Flavor flavor = kFlavors[state.range(0)];
  std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, /*seed=*/42);
  OpSource source(*dfs, /*seed=*/42);
  StatesMonitor monitor{LoadVarianceWeights{}};
  monitor.set_force_scan(true);
  for (int i = 0; i < 512; ++i) {
    (void)dfs->Execute(source.Next());
  }
  for (auto _ : state) {
    LoadVarianceSnapshot snapshot = monitor.Sample(*dfs);
    benchmark::DoNotOptimize(snapshot.storage_ratio);
  }
  state.SetLabel(std::string(FlavorName(flavor)));
}
BENCHMARK(BM_MonitorSampleScan)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void RecordSeries(const char* flavor_name, const char* series, double value) {
  MetricsRegistry::Global()
      .GetGauge(Sprintf("throughput.%s.%s", flavor_name, series))
      .Add(static_cast<int64_t>(value));
}

// Monitor-cadence axis: the hot loop again, now with a StatesMonitor checking
// the load state every `cadence` ops. The streaming path makes per-op cadence
// viable (each check is an O(1) aggregate read + window close); the full-scan
// oracle at the same cadence shows what that feedback used to cost.
void RunMonitorCadenceExperiment() {
  PrintHeader("Monitor cadence (ops/sec with a load check every N ops)");
  std::printf("%-12s %14s %14s %14s %16s\n", "flavor", "every 1", "every 10",
              "every 100", "every 1 (scan)");

  const int kCadenceOps = 30000;
  for (Flavor flavor : kFlavors) {
    std::string flavor_name(FlavorName(flavor));
    double per_series[4] = {0.0, 0.0, 0.0, 0.0};
    const struct {
      int cadence;
      bool force_scan;
      const char* series;
    } kSeries[] = {{1, false, "every1"},
                   {10, false, "every10"},
                   {100, false, "every100"},
                   {1, true, "every1_scan"}};
    size_t node_count = 0;
    for (int s = 0; s < 4; ++s) {
      std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, /*seed=*/7);
      node_count = dfs->ListStorageNodes().size() + dfs->ListMetaNodes().size();
      CoverageRecorder coverage(FlavorBranchSpace(flavor), /*seed=*/7);
      dfs->set_coverage(&coverage);
      OpSource source(*dfs, /*seed=*/7);
      StatesMonitor monitor{LoadVarianceWeights{}};
      monitor.set_force_scan(kSeries[s].force_scan);
      auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kCadenceOps; ++i) {
        (void)dfs->Execute(source.Next());
        if (i % kSeries[s].cadence == 0) {
          LoadVarianceSnapshot snapshot = monitor.Sample(*dfs);
          benchmark::DoNotOptimize(snapshot.storage_ratio);
        }
      }
      double seconds = SecondsSince(start);
      per_series[s] = static_cast<double>(kCadenceOps) / seconds;
      // Distinct prefix from throughput.*: informational, not CI-gated. The
      // n<N> component records the topology size the series was measured on,
      // so a default-size change reads as a new series, not a regression.
      MetricsRegistry::Global()
          .GetGauge(Sprintf("monitor_cadence.%s.n%zu.%s", flavor_name.c_str(),
                            node_count, kSeries[s].series))
          .Add(static_cast<int64_t>(per_series[s]));
    }
    std::printf("%-12s %14.0f %14.0f %14.0f %16.0f\n", flavor_name.c_str(),
                per_series[0], per_series[1], per_series[2], per_series[3]);
  }
}

// Production-scale sweep (DESIGN.md §15): GeoFS at 10 / 100 / 1k / 10k
// storage nodes, a hot loop and a 24-hour campaign at each size. The
// ordered load index keeps the per-op cost O(log n) in the node count, so
// ops/sec should hold roughly flat across three orders of magnitude (a
// 10k-node campaign takes about 0.1 s). Gauges land under scale.GeoFS.n<N>.*
// — skipped by the perf gate's series filter, tracked for trend, and read
// by scripts/check_scale_smoke.py's campaign-ratio gates.
void RunScaleSweepExperiment() {
  PrintHeader("GeoFS node-count sweep (ordered load index)");
  std::printf("%-10s %14s %18s\n", "nodes", "ops/sec", "campaign ops/sec");

  const int kSweepNodes[] = {10, 100, 1000, 10000};
  for (int nodes : kSweepNodes) {
    // Hot loop: same op source as the 10-node series, topology scaled up.
    const int hot_ops = nodes >= 10000 ? 10000 : 30000;
    std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGeo, /*seed=*/7, nodes);
    CoverageRecorder coverage(FlavorBranchSpace(Flavor::kGeo), /*seed=*/7);
    dfs->set_coverage(&coverage);
    OpSource source(*dfs, /*seed=*/7);
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < hot_ops; ++i) {
      (void)dfs->Execute(source.Next());
    }
    double ops_per_sec = static_cast<double>(hot_ops) / SecondsSince(start);
    MetricsRegistry::Global()
        .GetGauge(Sprintf("scale.GeoFS.n%d.ops_per_sec", nodes))
        .Add(static_cast<int64_t>(ops_per_sec));

    CampaignConfig config;
    config.flavor = Flavor::kGeo;
    config.seed = 7;
    // Default 24 virtual hours (THEMIS_BENCH_HOURS overrides): a campaign
    // this short would mostly measure cluster construction, not the
    // steady-state per-op cost the sweep is after.
    config.budget = BenchBudget().campaign;
    config.storage_nodes = nodes;
    start = std::chrono::steady_clock::now();
    Result<CampaignResult> result = Campaign(config).Run("Themis");
    double seconds = SecondsSince(start);
    double campaign_ops_per_sec = 0.0;
    if (result.ok()) {
      campaign_ops_per_sec = static_cast<double>(result->total_ops) / seconds;
      MetricsRegistry::Global()
          .GetGauge(Sprintf("scale.GeoFS.n%d.campaign_ops_per_sec", nodes))
          .Add(static_cast<int64_t>(campaign_ops_per_sec));
    } else {
      std::printf("scale campaign failed at %d nodes: %s\n", nodes,
                  result.status().ToString().c_str());
    }
    std::printf("%-10d %14.0f %18.0f\n", nodes, ops_per_sec, campaign_ops_per_sec);
  }
}

void RunThroughputExperiment() {
  PrintHeader("Execution throughput (default 10-node topology)");
  std::printf("%-12s %16s %16s %18s\n", "flavor", "ops/sec (median)", "testcases/sec",
              "campaign ops/sec");

  const int kHotLoopOps = 30000;
  const int kHotLoopRepeats = 5;
  for (Flavor flavor : kFlavors) {
    std::string flavor_name(FlavorName(flavor));

    // Layer 1: the raw cluster hot path, coverage attached. A single timed
    // run of about 0.1 s moved by 25-50% between back-to-back invocations,
    // so the gated figure is a median over fresh runs after a warm-up.
    auto hot_loop_seconds = [&]() {
      std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, /*seed=*/7);
      CoverageRecorder coverage(FlavorBranchSpace(flavor), /*seed=*/7);
      dfs->set_coverage(&coverage);
      OpSource source(*dfs, /*seed=*/7);
      auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kHotLoopOps; ++i) {
        (void)dfs->Execute(source.Next());
      }
      return SecondsSince(start);
    };
    (void)hot_loop_seconds();  // warm-up
    std::vector<double> rates;
    for (int r = 0; r < kHotLoopRepeats; ++r) {
      rates.push_back(static_cast<double>(kHotLoopOps) / hot_loop_seconds());
    }
    std::sort(rates.begin(), rates.end());
    double ops_per_sec = rates[rates.size() / 2];

    // Layer 2: the full campaign loop at a 1-virtual-hour budget.
    CampaignConfig config;
    config.flavor = flavor;
    config.seed = 7;
    config.budget = Hours(1);
    Campaign campaign(config);
    auto start = std::chrono::steady_clock::now();
    Result<CampaignResult> result = campaign.Run("Themis");
    double campaign_seconds = SecondsSince(start);
    double testcases_per_sec = 0.0;
    double campaign_ops_per_sec = 0.0;
    if (result.ok()) {
      testcases_per_sec = static_cast<double>(result->testcases) / campaign_seconds;
      campaign_ops_per_sec =
          static_cast<double>(result->total_ops) / campaign_seconds;
    } else {
      std::printf("campaign failed for %s: %s\n", flavor_name.c_str(),
                  result.status().ToString().c_str());
    }

    RecordSeries(flavor_name.c_str(), "ops_per_sec", ops_per_sec);
    RecordSeries(flavor_name.c_str(), "testcases_per_sec", testcases_per_sec);
    RecordSeries(flavor_name.c_str(), "campaign_ops_per_sec", campaign_ops_per_sec);
    std::printf("%-12s %16.0f %16.1f %18.0f   (ops/sec range %.0f-%.0f)\n",
                flavor_name.c_str(), ops_per_sec, testcases_per_sec,
                campaign_ops_per_sec, rates.front(), rates.back());
  }

  RunMonitorCadenceExperiment();
  RunScaleSweepExperiment();
}

}  // namespace
}  // namespace themis

THEMIS_BENCH_MAIN(themis::RunThroughputExperiment)

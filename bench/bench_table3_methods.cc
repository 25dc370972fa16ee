// Table 3: new imbalance failures found by Themis vs the four baseline
// generation strategies (Fix_req, Fix_conf, Alternate, Concurrent), all
// sharing the same executor and imbalance detector.

#include "bench/bench_common.h"
#include "src/faults/fault_registry.h"

namespace themis {
namespace {

// Args 2..5 name the four baselines; kComparedStrategies[arg - 1].
void BM_BaselineCampaignShort(benchmark::State& state) {
  const char* name = kComparedStrategies[static_cast<size_t>(state.range(0) - 1)];
  uint64_t seed = 1;
  for (auto _ : state) {
    CampaignResult result = RunCampaign(name, Flavor::kGluster, seed++, Hours(1),
                                        FaultSet::kNewBugs).take();
    benchmark::DoNotOptimize(result.testcases);
  }
}
BENCHMARK(BM_BaselineCampaignShort)
    ->DenseRange(2, 5)
    ->Unit(benchmark::kMillisecond);

void RunExperiment() {
  ExperimentBudget budget = BenchBudget();
  std::vector<std::string> strategies(kComparedStrategies.begin(),
                                      kComparedStrategies.end());
  NewBugFindings findings = RunNewBugExperiment(strategies, budget);

  PrintHeader("Table 3: new imbalance failures found per method");
  TextTable table({"Method", "Number", "Bug IDs"});
  for (const std::string& name : strategies) {
    const auto& found = findings.found[name];
    std::string ids;
    int index = 1;
    for (const FaultSpec& spec : NewBugRegistry()) {
      if (found.count(spec.id) != 0) {
        if (!ids.empty()) {
          ids += ", ";
        }
        ids += "#" + std::to_string(index);
      }
      ++index;
    }
    table.AddRow({name, std::to_string(found.size()),
                  ids.empty() ? "-" : ids});
  }
  table.Print();
  std::printf("\n(bug numbering follows Table 2; %d repeated %lld-hour campaigns per "
              "flavor and tool)\n",
              budget.seeds, static_cast<long long>(budget.campaign / Hours(1)));
}

}  // namespace
}  // namespace themis

THEMIS_BENCH_MAIN(themis::RunExperiment)

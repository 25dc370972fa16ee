// Table 8: average time for Themis to trigger the storage-type imbalance
// failures under different storage-variance weighting factors (§7).

#include "bench/bench_common.h"

namespace themis {
namespace {

void BM_WeightedCampaignShort(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    CampaignConfig config;
    config.flavor = Flavor::kLeo;
    config.seed = seed++;
    config.budget = Hours(1);
    config.weights.storage = static_cast<double>(state.range(0)) / 6.0;
    config.weights.computation = (1.0 - config.weights.storage) / 2.0;
    config.weights.network = (1.0 - config.weights.storage) / 2.0;
    CampaignResult result = Campaign(config).Run("Themis").take();
    benchmark::DoNotOptimize(result.testcases);
  }
}
BENCHMARK(BM_WeightedCampaignShort)->Arg(1)->Arg(2)->Arg(6)->Unit(benchmark::kMillisecond);

void RunExperiment() {
  ExperimentBudget budget = BenchBudget();
  std::vector<double> weights = {1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0, 2.0 / 3.0, 1.0};
  std::vector<WeightSweepRow> rows = RunWeightSweep(weights, budget);

  PrintHeader("Table 8: time to trigger storage imbalances vs storage weight");
  TextTable table({"Weighting factor of storage load", "Avg time to trigger (min)",
                   "Storage bugs found"});
  const char* labels[] = {"1/6", "1/3", "1/2", "2/3", "1/1"};
  for (size_t i = 0; i < rows.size(); ++i) {
    table.AddRow({labels[i],
                  rows[i].mean_trigger_minutes < 0
                      ? "-"
                      : Sprintf("%.0f", rows[i].mean_trigger_minutes),
                  std::to_string(rows[i].storage_bugs_found)});
  }
  table.Print();
  std::printf("\n(Expected shape: heavier storage weighting accelerates triggering of "
              "storage-type failures.)\n");
}

}  // namespace
}  // namespace themis

THEMIS_BENCH_MAIN(themis::RunExperiment)

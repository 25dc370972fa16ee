// Table 6: Themis vs Themis⁻ (load variance model disabled, random sequence
// generation) — failures found and branch coverage per flavor.

#include "bench/bench_common.h"

namespace themis {
namespace {

void BM_ThemisMinusCampaignShort(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    CampaignResult result = RunCampaign("Themis-", Flavor::kGluster,
                                        seed++, Hours(1), FaultSet::kNewBugs).take();
    benchmark::DoNotOptimize(result.testcases);
  }
}
BENCHMARK(BM_ThemisMinusCampaignShort)->Unit(benchmark::kMillisecond);

void RunExperiment() {
  ExperimentBudget budget = BenchBudget();
  AblationResults results = RunAblationExperiment(budget);

  PrintHeader("Table 6: Themis- vs Themis (load variance model ablation)");
  TextTable table({"Flavor", "Failures Themis-", "Failures Themis", "Coverage Themis-",
                   "Coverage Themis"});
  int minus_total = 0;
  int full_total = 0;
  size_t cov_minus_total = 0;
  size_t cov_full_total = 0;
  for (Flavor flavor : {Flavor::kHdfs, Flavor::kGluster, Flavor::kLeo, Flavor::kCeph}) {
    minus_total += results.failures_minus[flavor];
    full_total += results.failures_full[flavor];
    cov_minus_total += results.coverage_minus[flavor];
    cov_full_total += results.coverage_full[flavor];
    table.AddRow({std::string(FlavorName(flavor)),
                  std::to_string(results.failures_minus[flavor]),
                  std::to_string(results.failures_full[flavor]),
                  std::to_string(results.coverage_minus[flavor]),
                  std::to_string(results.coverage_full[flavor])});
  }
  table.AddRow({"Total", std::to_string(minus_total), std::to_string(full_total),
                std::to_string(cov_minus_total), std::to_string(cov_full_total)});
  table.Print();
  if (minus_total > 0 && cov_minus_total > 0) {
    std::printf("\nWith the load variance model: %+.0f%% failures, %+.0f%% coverage\n",
                100.0 * (static_cast<double>(full_total) / minus_total - 1.0),
                100.0 * (static_cast<double>(cov_full_total) / cov_minus_total - 1.0));
  }
}

}  // namespace
}  // namespace themis

THEMIS_BENCH_MAIN(themis::RunExperiment)

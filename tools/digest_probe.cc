// Prints the campaign digest per flavor for a fixed seed/budget — used to
// compare simulation behavior across builds (the digest hashes every op,
// status, imbalance sample and detector verdict, so any divergence shows).
#include <cstdio>

#include "src/harness/campaign.h"

int main() {
  using namespace themis;
  for (Flavor flavor :
       {Flavor::kGluster, Flavor::kHdfs, Flavor::kCeph, Flavor::kLeo, Flavor::kGeo}) {
    CampaignConfig config;
    config.flavor = flavor;
    config.seed = 1234;
    config.budget = Hours(2);
    Campaign campaign(config);
    Result<CampaignResult> result = campaign.Run("Themis");
    if (!result.ok()) {
      std::printf("%s: FAILED %s\n", std::string(FlavorName(flavor)).c_str(),
                  result.status().ToString().c_str());
      continue;
    }
    std::printf("%s: digest=%llx testcases=%llu ops=%llu\n",
                std::string(FlavorName(flavor)).c_str(),
                static_cast<unsigned long long>(result->Digest()),
                static_cast<unsigned long long>(result->testcases),
                static_cast<unsigned long long>(result->total_ops));
  }
  return 0;
}

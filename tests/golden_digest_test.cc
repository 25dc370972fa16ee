// Golden-digest regression pins: the CampaignResult digest for a fixed
// (strategy, flavor, seed, budget) is part of the repo's determinism
// contract — the checkpoint/resume machinery, the --jobs matrix and this
// suite all compare against it. If a change to the simulation legitimately
// shifts behavior, regenerate with tools/digest_probe and update the
// constants below IN THE SAME COMMIT, calling the behavior change out in
// the commit message. A silent digest change is a determinism bug.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/harness/campaign.h"

namespace themis {
namespace {

struct GoldenEntry {
  Flavor flavor;
  uint64_t digest;
  int testcases;
  uint64_t total_ops;
};

// seed=1234, budget=2 virtual hours, strategy "Themis", default config.
constexpr GoldenEntry kGolden[] = {
    {Flavor::kGluster, 0xd7f0af71ded96a27ULL, 143, 3575},
    {Flavor::kHdfs, 0x6f0dca68c74aa2f0ULL, 150, 5886},
    {Flavor::kCeph, 0x197d2b721543e2c5ULL, 133, 6081},
    {Flavor::kLeo, 0xb073289e30566ec7ULL, 130, 5754},
    // GeoFS at its default 48 nodes: three load groups, so the multi-group
    // fraction rollup and the scheduling-group placement are both pinned.
    {Flavor::kGeo, 0xa3b034b061cf81a8ULL, 192, 5151},
};

TEST(GoldenDigestTest, PerFlavorDigestsArePinned) {
  for (const GoldenEntry& golden : kGolden) {
    CampaignConfig config;
    config.flavor = golden.flavor;
    config.seed = 1234;
    config.budget = Hours(2);
    Result<CampaignResult> result = Campaign(config).Run("Themis");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::string flavor(FlavorName(golden.flavor));
    EXPECT_EQ(result->Digest(), golden.digest) << flavor;
    EXPECT_EQ(result->testcases, golden.testcases) << flavor;
    EXPECT_EQ(result->total_ops, golden.total_ops) << flavor;
  }
}

// The digest itself must be reproducible from an identical result: running
// the same campaign twice in one process (registry state, metrics and logs
// all differ between runs) yields the same digest.
TEST(GoldenDigestTest, DigestIsAPureFunctionOfTheResult) {
  CampaignConfig config;
  config.seed = 77;
  config.budget = Hours(1);
  Result<CampaignResult> first = Campaign(config).Run("Themis");
  Result<CampaignResult> second = Campaign(config).Run("Themis");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->Digest(), second->Digest());
}

}  // namespace
}  // namespace themis

// Golden-digest regression pins: the CampaignResult digest for a fixed
// (strategy, flavor, seed, budget) is part of the repo's determinism
// contract — the checkpoint/resume machinery, the --jobs matrix and this
// suite all compare against it. If a change to the simulation legitimately
// shifts behavior, regenerate with tools/digest_probe and update the
// constants below IN THE SAME COMMIT, calling the behavior change out in
// the commit message. A silent digest change is a determinism bug.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/snapshot_io.h"
#include "src/harness/campaign.h"
#include "src/harness/snapshot.h"

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

// Env-fault campaigns (DESIGN.md §14): metadata-node crashes and restarts
// drive the CephFS upmap cleanup and the LeoFS ring reload, and brick
// crashes re-weight CRUSH and re-plant the ring, so these pin the flavors'
// derived placement state across its invalidations (DESIGN.md §10,
// "Derived placement state").
// seed=1234, budget=6 virtual hours, strategy "Themis", env_faults = true.
constexpr GoldenEntry kGoldenEnvFaults[] = {
    {Flavor::kCeph, 0x858d3f56d7bd8f1cULL, 254, 8001},
    {Flavor::kLeo, 0x11306eda86c6db87ULL, 127, 5896},
};

TEST(GoldenDigestTest, EnvFaultDigestsArePinned) {
  for (const GoldenEntry& golden : kGoldenEnvFaults) {
    CampaignConfig config;
    config.flavor = golden.flavor;
    config.seed = 1234;
    config.budget = Hours(6);
    config.env_faults = true;
    Result<CampaignResult> result = Campaign(config).Run("Themis");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::string flavor(FlavorName(golden.flavor));
    EXPECT_EQ(result->Digest(), golden.digest) << flavor;
    EXPECT_EQ(result->testcases, golden.testcases) << flavor;
    EXPECT_EQ(result->total_ops, golden.total_ops) << flavor;
  }
}

// The snapshot encoding is pinned as well: each golden campaign, run with a
// checkpoint every 1000 ops, writes its last mid-campaign checkpoint file
// (cluster, model, injector and strategy state) byte for byte as below —
// FNV-1a 64 over the whole file, same order as kGolden. tools/digest_probe
// prints these hashes. A hash that moves while the digests above hold means
// the snapshot encoding changed: decide on kSnapshotFormatVersion before
// re-pinning.
constexpr uint64_t kLastCheckpointFnv[] = {
    0x28d5aef9280aa5e0ULL,  // GlusterFS
    0x1c9205969d938fc6ULL,  // HDFS
    0x5f4009fafbbf9289ULL,  // CephFS
    0xcd88d97cac8a9344ULL,  // LeoFS
    0x2937119e8e37cf88ULL,  // GeoFS
};

TEST(GoldenDigestTest, LastCheckpointBytesArePinned) {
  static_assert(std::size(kLastCheckpointFnv) == std::size(kGolden));
  for (size_t i = 0; i < std::size(kGolden); ++i) {
    const GoldenEntry& golden = kGolden[i];
    const std::string flavor(FlavorName(golden.flavor));
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("golden_ckpt_" + flavor);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    CampaignConfig config;
    config.flavor = golden.flavor;
    config.seed = 1234;
    config.budget = Hours(2);
    config.checkpoint_dir = dir.string();
    config.checkpoint_every_ops = 1000;
    Result<CampaignResult> result = Campaign(config).Run("Themis");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->Digest(), golden.digest) << flavor;
    // Most-preferred first: the final snapshot, then the newest mid one.
    std::vector<std::string> paths = ListJobSnapshotPaths(dir.string(), 0);
    ASSERT_GE(paths.size(), 2u) << flavor;
    std::ifstream in(paths[1], std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(Fnv1a64(bytes.str()), kLastCheckpointFnv[i]) << flavor << " " << paths[1];
    std::filesystem::remove_all(dir);
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

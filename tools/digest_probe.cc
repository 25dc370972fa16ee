// Prints the campaign digest per flavor for a fixed seed/budget — used to
// compare simulation behavior across builds (the digest hashes every op,
// status, imbalance sample and detector verdict, so any divergence shows).
// A second block prints, per flavor, the FNV-1a 64 hash of the last
// mid-campaign checkpoint file the same campaign writes with checkpoints
// every 1000 ops — the snapshot-encoding pin of tests/golden_digest_test.cc.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/common/snapshot_io.h"
#include "src/harness/campaign.h"
#include "src/harness/snapshot.h"

namespace {

using namespace themis;

constexpr Flavor kFlavors[] = {Flavor::kGluster, Flavor::kHdfs, Flavor::kCeph,
                               Flavor::kLeo, Flavor::kGeo};

CampaignConfig GoldenConfig(Flavor flavor) {
  CampaignConfig config;
  config.flavor = flavor;
  config.seed = 1234;
  config.budget = Hours(2);
  return config;
}

// Runs the golden campaign with checkpoints every 1000 ops into `dir` and
// returns the FNV-1a 64 of its newest mid-campaign checkpoint file; 0 when
// the run fails or wrote none.
uint64_t LastCheckpointHash(Flavor flavor, const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CampaignConfig config = GoldenConfig(flavor);
  config.checkpoint_dir = dir.string();
  config.checkpoint_every_ops = 1000;
  if (!Campaign(config).Run("Themis").ok()) {
    return 0;
  }
  // Most-preferred first: the final snapshot, then the newest mid one.
  std::vector<std::string> paths = ListJobSnapshotPaths(dir.string(), 0);
  if (paths.size() < 2) {
    return 0;
  }
  std::ifstream in(paths[1], std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return Fnv1a64(bytes.str());
}

}  // namespace

int main() {
  for (Flavor flavor : kFlavors) {
    Campaign campaign(GoldenConfig(flavor));
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
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("digest_probe_ckpt_" + std::to_string(::getpid()));
  for (Flavor flavor : kFlavors) {
    std::printf("%s: last_checkpoint_fnv=%llx\n",
                std::string(FlavorName(flavor)).c_str(),
                static_cast<unsigned long long>(LastCheckpointHash(flavor, dir)));
  }
  std::filesystem::remove_all(dir);
  return 0;
}

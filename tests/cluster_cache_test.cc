// Differential oracle for the incremental load-accounting layer: after every
// randomized mutation step (op execution, fault interleavings, rebalance
// rounds, background time), every cached aggregate must equal a from-scratch
// brute-force recomputation over the raw brick/node state — exactly, not
// approximately. All the aggregates are integer running sums, so even the
// derived doubles (fractions, imbalance spread) must be bit-identical; any
// EXPECT_EQ tolerance here would also be a hole in the --jobs determinism
// guarantee (tests/determinism_test.cc).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/common/snapshot_io.h"
#include "src/common/stats.h"
#include "src/core/generator.h"
#include "src/core/input_model.h"
#include "src/dfs/flavors/factory.h"
#include "src/dfs/flavors/geo_like.h"
#include "src/faults/env_fault.h"
#include "src/faults/fault_registry.h"
#include "src/faults/historical_corpus.h"
#include "src/faults/injector.h"

namespace themis {
namespace {

// Everything below recomputes the aggregates the way the pre-cache code did:
// full walks over bricks()/storage_nodes(), no shared intermediate state.

std::vector<BrickId> BruteServingBricks(const DfsCluster& dfs) {
  std::vector<BrickId> out;
  for (const auto& [id, brick] : dfs.bricks()) {
    if (!brick.online) {
      continue;
    }
    const StorageNode* node = dfs.FindStorageNode(brick.node);
    if (node != nullptr && node->Serving()) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<NodeId> BruteServingStorageNodeIds(const DfsCluster& dfs) {
  std::vector<NodeId> out;
  for (const auto& [id, node] : dfs.storage_nodes()) {
    if (node.Serving()) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<NodeId> BruteServingMetaNodeIds(const DfsCluster& dfs) {
  std::vector<NodeId> out;
  for (const auto& [id, node] : dfs.meta_nodes()) {
    if (node.Serving()) {
      out.push_back(id);
    }
  }
  return out;
}

uint64_t BruteTotalCapacityBytes(const DfsCluster& dfs) {
  uint64_t total = 0;
  for (BrickId id : BruteServingBricks(dfs)) {
    total += dfs.FindBrick(id)->capacity_bytes;
  }
  return total;
}

uint64_t BruteTotalUsedBytes(const DfsCluster& dfs) {
  uint64_t total = 0;
  for (const auto& [id, brick] : dfs.bricks()) {
    (void)id;
    total += brick.used_bytes;
  }
  return total;
}

uint64_t BruteTotalServingUsedBytes(const DfsCluster& dfs) {
  uint64_t total = 0;
  for (BrickId id : BruteServingBricks(dfs)) {
    total += dfs.FindBrick(id)->used_bytes;
  }
  return total;
}

uint64_t BruteFreeSpaceBytes(const DfsCluster& dfs) {
  uint64_t capacity = 0;
  uint64_t used = 0;
  for (BrickId id : BruteServingBricks(dfs)) {
    const Brick* brick = dfs.FindBrick(id);
    capacity += brick->capacity_bytes;
    used += std::min(brick->used_bytes, brick->capacity_bytes);
  }
  return capacity - used;
}

std::vector<double> BrutePerNodeUsedBytes(const DfsCluster& dfs) {
  std::vector<double> out;
  for (const auto& [id, node] : dfs.storage_nodes()) {
    (void)id;
    if (!node.Serving()) {
      continue;
    }
    uint64_t used = 0;
    for (BrickId b : node.bricks) {
      const Brick* brick = dfs.FindBrick(b);
      if (brick != nullptr) {
        used += brick->used_bytes;
      }
    }
    out.push_back(static_cast<double>(used));
  }
  return out;
}

std::vector<double> BrutePerNodeUsedFraction(const DfsCluster& dfs) {
  std::vector<double> out;
  for (const auto& [id, node] : dfs.storage_nodes()) {
    (void)id;
    if (!node.Serving()) {
      continue;
    }
    uint64_t used = 0;
    uint64_t capacity = 0;
    for (BrickId b : node.bricks) {
      const Brick* brick = dfs.FindBrick(b);
      if (brick != nullptr && brick->online) {
        used += brick->used_bytes;
        capacity += brick->capacity_bytes;
      }
    }
    if (capacity > 0) {
      out.push_back(static_cast<double>(used) / static_cast<double>(capacity));
    }
  }
  return out;
}

double BruteStorageImbalance(const DfsCluster& dfs) {
  std::vector<double> fractions = BrutePerNodeUsedFraction(dfs);
  if (fractions.size() < 2) {
    return 0.0;
  }
  uint64_t used = 0;
  uint64_t capacity = 0;
  for (BrickId id : BruteServingBricks(dfs)) {
    const Brick* brick = dfs.FindBrick(id);
    used += brick->used_bytes;
    capacity += brick->capacity_bytes;
  }
  if (capacity == 0) {
    return 0.0;
  }
  double fleet = static_cast<double>(used) / static_cast<double>(capacity);
  double max_fraction = *std::max_element(fractions.begin(), fractions.end());
  return std::max(0.0, max_fraction - fleet);
}

// Strict max of UsedFraction in brick-id order: the smallest id wins ties.
BrickId BruteHottestServingBrick(const DfsCluster& dfs) {
  BrickId best = kInvalidBrick;
  double best_fraction = -1.0;
  for (BrickId id : BruteServingBricks(dfs)) {
    double fraction = dfs.FindBrick(id)->UsedFraction();
    if (fraction > best_fraction) {
      best_fraction = fraction;
      best = id;
    }
  }
  return best;
}

// AddVolume's fallback target: the serving node whose listed bricks (offline
// ones included) sum to the least capacity; the smallest id wins ties.
NodeId BruteLeastCapacityServingNode(const DfsCluster& dfs) {
  uint64_t best_capacity = UINT64_MAX;
  NodeId best = kInvalidNode;
  for (const auto& [id, node] : dfs.storage_nodes()) {
    if (!node.Serving()) {
      continue;
    }
    uint64_t capacity = 0;
    for (BrickId b : node.bricks) {
      const Brick* brick = dfs.FindBrick(b);
      if (brick != nullptr) {
        capacity += brick->capacity_bytes;
      }
    }
    if (capacity < best_capacity) {
      best_capacity = capacity;
      best = id;
    }
  }
  return best;
}

// The storage dimension of the streaming snapshot, summed over the serving
// nodes with online capacity in one flat walk.
LoadStatsSnapshot BruteStorageFractionStats(const DfsCluster& dfs) {
  LoadStatsSnapshot out;
  for (const auto& [id, node] : dfs.storage_nodes()) {
    (void)id;
    if (!node.Serving()) {
      continue;
    }
    uint64_t used = 0;
    uint64_t capacity = 0;
    for (BrickId b : node.bricks) {
      const Brick* brick = dfs.FindBrick(b);
      if (brick != nullptr && brick->online) {
        used += brick->used_bytes;
        capacity += brick->capacity_bytes;
      }
    }
    if (capacity == 0) {
      continue;
    }
    double fraction = static_cast<double>(used) / static_cast<double>(capacity);
    if (out.fraction_nodes == 0 || fraction > out.max_fraction) {
      out.max_fraction = fraction;
    }
    ++out.fraction_nodes;
    out.storage_used += used;
    out.storage_cap += capacity;
    uint64_t ticks = QuantizeLoadDelta(fraction, kUtilizationQuantum);
    out.frac_sum += ticks;
    out.frac_sum_sq += static_cast<Uint128>(ticks) * ticks;
  }
  return out;
}

bool StrictlyAscending(const std::vector<uint32_t>& ids) {
  return std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>()) == ids.end();
}

void CheckAggregates(const DfsCluster& dfs, int step, const char* context) {
  // Exact equality throughout: every cached quantity is derived from integer
  // sums, so bit-identity with the brute-force recomputation is required.
  EXPECT_EQ(dfs.ServingBricks(), BruteServingBricks(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.ServingStorageNodeIds(), BruteServingStorageNodeIds(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.ListMetaNodes(), BruteServingMetaNodeIds(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.TotalCapacityBytes(), BruteTotalCapacityBytes(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.TotalUsedBytes(), BruteTotalUsedBytes(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.TotalServingUsedBytes(), BruteTotalServingUsedBytes(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.FreeSpaceBytes(), BruteFreeSpaceBytes(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.PerNodeUsedBytes(), BrutePerNodeUsedBytes(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.PerNodeUsedFraction(), BrutePerNodeUsedFraction(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.StorageImbalance(), BruteStorageImbalance(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.HottestServingBrick(), BruteHottestServingBrick(dfs))
      << context << " step " << step;
  EXPECT_EQ(dfs.LeastCapacityServingNode(), BruteLeastCapacityServingNode(dfs))
      << context << " step " << step;
  // InputModel binary-searches copies of these lists.
  EXPECT_TRUE(StrictlyAscending(dfs.ListMetaNodes())) << context << " step " << step;
  EXPECT_TRUE(StrictlyAscending(dfs.ListStorageNodes())) << context << " step " << step;
  EXPECT_TRUE(StrictlyAscending(dfs.ListBricks())) << context << " step " << step;
  // The running fraction rollup, field by field.
  LoadStatsSnapshot stats;
  ASSERT_TRUE(dfs.SnapshotLoadStats(stats));
  LoadStatsSnapshot brute = BruteStorageFractionStats(dfs);
  EXPECT_EQ(stats.fraction_nodes, brute.fraction_nodes) << context << " step " << step;
  EXPECT_EQ(stats.max_fraction, brute.max_fraction) << context << " step " << step;
  EXPECT_EQ(stats.storage_used, brute.storage_used) << context << " step " << step;
  EXPECT_EQ(stats.storage_cap, brute.storage_cap) << context << " step " << step;
  EXPECT_EQ(stats.frac_sum, brute.frac_sum) << context << " step " << step;
  EXPECT_TRUE(stats.frac_sum_sq == brute.frac_sum_sq) << context << " step " << step;
  // The monitor's per-node samples ride on the same aggregates.
  for (const LoadSample& sample : dfs.SampleLoad()) {
    if (!sample.is_storage) {
      continue;
    }
    const StorageNode* node = dfs.FindStorageNode(sample.node);
    ASSERT_NE(node, nullptr);
    uint64_t used = 0;
    uint64_t capacity = 0;
    for (BrickId b : node->bricks) {
      const Brick* brick = dfs.FindBrick(b);
      if (brick != nullptr && brick->online) {
        used += brick->used_bytes;
        capacity += brick->capacity_bytes;
      }
    }
    EXPECT_EQ(sample.used_bytes, used)
        << context << " step " << step << " node " << sample.node;
    EXPECT_EQ(sample.capacity_bytes, capacity)
        << context << " step " << step << " node " << sample.node;
  }
}

struct CacheCase {
  Flavor flavor;
  bool with_faults;
  uint64_t seed;
  int steps;
  // Environment faults (crash/restart, message faults, slow disks) drawn at
  // the campaign's generator share.
  bool with_env_faults = false;
};

std::vector<NodeId> CrashedStorageNodes(const DfsCluster& dfs) {
  std::vector<NodeId> out;
  for (const auto& [id, node] : dfs.storage_nodes()) {
    if (node.crashed) {
      out.push_back(id);
    }
  }
  return out;
}

class ClusterCacheTest : public ::testing::TestWithParam<CacheCase> {};

TEST_P(ClusterCacheTest, CachedAggregatesMatchBruteForce) {
  const CacheCase& param = GetParam();
  std::unique_ptr<DfsCluster> dfs = MakeCluster(param.flavor, param.seed);
  std::vector<FaultSpec> faults;
  if (param.with_faults) {
    faults = NewBugsFor(param.flavor);
    std::vector<FaultSpec> historical = HistoricalFaultsFor(param.flavor);
    faults.insert(faults.end(), historical.begin(), historical.end());
  }
  FaultInjector injector(faults, param.seed);
  dfs->set_fault_hooks(&injector);
  EnvFaultInjector env_injector(param.seed);
  if (param.with_env_faults) {
    dfs->set_env_faults(&env_injector);
  }

  Rng rng(param.seed);
  InputModel model;
  model.SyncFromDfs(*dfs);
  OpSeqGenerator generator(model);
  if (param.with_env_faults) {
    generator.set_env_fault_share(0.2);
  }
  int storage_restarts = 0;
  CheckAggregates(*dfs, -1, "initial");
  for (int step = 0; step < param.steps; ++step) {
    std::vector<NodeId> crashed_before = CrashedStorageNodes(*dfs);
    Operation op = generator.GenerateOp(rng);
    OpResult result = dfs->Execute(op);
    model.Observe(op, result);
    if (step % 50 == 0) {
      model.SyncFromDfs(*dfs);
    }
    // Interleave the non-op mutation sources the way a campaign does:
    // explicit rebalance triggers and background (migration/GC) time.
    if (step % 97 == 96) {
      (void)dfs->TriggerRebalance();
    }
    if (step % 13 == 12) {
      dfs->AdvanceTime(Seconds(30));
    }
    for (NodeId id : crashed_before) {
      if (!dfs->FindStorageNode(id)->crashed) {
        ++storage_restarts;
      }
    }
    CheckAggregates(*dfs, step, "mid-stream");
    if (HasFailure()) {
      ADD_FAILURE() << "diverged at step " << step << " op " << op.ToString();
      return;
    }
  }
  // Drain all background work, then re-check the settled state.
  (void)dfs->TriggerRebalance();
  for (int i = 0; i < 2000 && !dfs->RebalanceDone(); ++i) {
    dfs->AdvanceTime(Seconds(10));
  }
  CheckAggregates(*dfs, param.steps, "drained");
  if (param.with_env_faults) {
    EXPECT_GT(storage_restarts, 0) << "no storage node restarted";
  }

  // The one full rebuild: a snapshot restored into a fresh cluster must
  // yield the same aggregates, and save back to the same bytes — churn
  // leaves GC'd bricks and decommissioned nodes behind as vacant ids.
  SnapshotWriter writer;
  dfs->SaveState(writer);
  std::unique_ptr<DfsCluster> restored = MakeCluster(param.flavor, param.seed);
  SnapshotReader reader(writer.buffer());
  ASSERT_TRUE(restored->RestoreState(reader).ok());
  CheckAggregates(*restored, param.steps, "restored");
  SnapshotWriter resaved;
  restored->SaveState(resaved);
  EXPECT_TRUE(resaved.buffer() == writer.buffer())
      << "restored cluster saves " << resaved.buffer().size() << " bytes, original "
      << writer.buffer().size();
}

// 4 flavors x {healthy, faulty} x 1500 steps = 12000 randomized mutation
// steps, each followed by a full differential check, plus one env-fault case
// per flavor (another 6000 steps through crash/restart churn). The GeoFS
// cases run its default 48 nodes in three load groups, the only topology
// here where the fraction rollup spans several groups and GeoFS placement
// refreshes groups through LoadGroupUsedCap.
INSTANTIATE_TEST_SUITE_P(
    AllFlavors, ClusterCacheTest,
    ::testing::Values(CacheCase{Flavor::kGluster, false, 51, 1500},
                      CacheCase{Flavor::kGluster, true, 52, 1500},
                      CacheCase{Flavor::kHdfs, false, 61, 1500},
                      CacheCase{Flavor::kHdfs, true, 62, 1500},
                      CacheCase{Flavor::kCeph, false, 71, 1500},
                      CacheCase{Flavor::kCeph, true, 72, 1500},
                      CacheCase{Flavor::kLeo, false, 81, 1500},
                      CacheCase{Flavor::kLeo, true, 82, 1500},
                      CacheCase{Flavor::kGluster, false, 53, 1500, true},
                      CacheCase{Flavor::kHdfs, true, 63, 1500, true},
                      CacheCase{Flavor::kCeph, false, 73, 1500, true},
                      CacheCase{Flavor::kLeo, true, 83, 1500, true},
                      CacheCase{Flavor::kGeo, false, 91, 1500},
                      CacheCase{Flavor::kGeo, true, 92, 1500},
                      CacheCase{Flavor::kGeo, true, 93, 1500, true}),
    [](const ::testing::TestParamInfo<CacheCase>& info) {
      std::string name(FlavorName(info.param.flavor));
      name += info.param.with_faults ? "_faulty" : "_healthy";
      if (info.param.with_env_faults) {
        name += "_env";
      }
      name += "_s" + std::to_string(info.param.seed);
      return name;
    });

// GeoFS at 1k nodes with scripted ties: several bricks at one fraction on
// nodes of one capacity, the holders of the max fraction and of the least
// capacity crashed or decommissioned in turn, a restart, an AddVolume onto
// the least-capacity node, then a snapshot round trip. Every query must
// keep answering the smallest id among the tied, and the per-group sums
// GeoFS placement reads must match a flat walk.
class GeoProbe : public GeoLikeCluster {
 public:
  using GeoLikeCluster::GeoLikeCluster;
  using DfsCluster::AccreteBrickBytes;
  using DfsCluster::LoadGroupOf;
  using DfsCluster::LoadGroupUsedCap;
};

void CheckGroupSums(const GeoProbe& dfs, const char* context) {
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> brute;
  for (const auto& [id, node] : dfs.storage_nodes()) {
    std::pair<uint64_t, uint64_t>& sums = brute[dfs.LoadGroupOf(id)];
    if (!node.Serving()) {
      continue;
    }
    uint64_t used = 0;
    uint64_t capacity = 0;
    for (BrickId b : node.bricks) {
      const Brick* brick = dfs.FindBrick(b);
      if (brick != nullptr && brick->online) {
        used += brick->used_bytes;
        capacity += brick->capacity_bytes;
      }
    }
    if (capacity > 0) {
      sums.first += used;
      sums.second += capacity;
    }
  }
  for (const auto& [group, sums] : brute) {
    EXPECT_EQ(dfs.LoadGroupUsedCap(group), sums) << context << " group " << group;
  }
}

TEST(ClusterCacheGeoScaleTest, TiedHoldersLeaveAndReturn) {
  ClusterConfig config = GeoLikeCluster::DefaultConfig();
  config.initial_storage_nodes = 1000;
  config.max_storage_nodes = 1125;
  config.rng_seed = 94;
  GeoProbe dfs(config);
  int step = 0;
  auto check = [&](const char* context) {
    CheckAggregates(dfs, step++, context);
    CheckGroupSums(dfs, context);
  };
  check("initial");
  // Every brick is empty, so all fractions tie at 0.
  EXPECT_EQ(dfs.HottestServingBrick(), dfs.ServingBricks().front());

  // Half-fill the first five bricks of the most common capacity: five
  // bricks, and their five one-brick nodes, tie at fraction 0.5.
  std::map<uint64_t, std::vector<BrickId>> by_capacity;
  for (const auto& [id, brick] : dfs.bricks()) {
    by_capacity[brick.capacity_bytes].push_back(id);
  }
  std::vector<BrickId> tied;
  for (const auto& [capacity, ids] : by_capacity) {
    if (ids.size() > tied.size()) {
      tied = ids;
    }
  }
  ASSERT_GE(tied.size(), 5u);
  tied.resize(5);
  for (BrickId id : tied) {
    Brick* brick = dfs.FindBrick(id);
    dfs.AccreteBrickBytes(brick, brick->capacity_bytes / 2);
    check("tie fill");
  }
  auto node_of = [&](BrickId id) { return dfs.FindBrick(id)->node; };
  EXPECT_EQ(dfs.HottestServingBrick(), tied[0]);

  // The holder crashes; the next tied brick takes over.
  dfs.CrashNode(node_of(tied[0]));
  check("max holder crashed");
  EXPECT_EQ(dfs.HottestServingBrick(), tied[1]);
  // The next holder is decommissioned.
  Operation remove;
  remove.kind = OpKind::kRemoveStorageNode;
  remove.node = node_of(tied[1]);
  ASSERT_TRUE(dfs.Execute(remove).status.ok());
  check("max holder removed");
  EXPECT_EQ(dfs.HottestServingBrick(), tied[2]);

  // Capacity ties: the least-capacity holder crashes, the next is removed.
  NodeId least = dfs.LeastCapacityServingNode();
  ASSERT_NE(least, kInvalidNode);
  dfs.CrashNode(least);
  check("least-capacity holder crashed");
  NodeId next_least = dfs.LeastCapacityServingNode();
  EXPECT_GT(next_least, least);
  remove.node = next_least;
  ASSERT_TRUE(dfs.Execute(remove).status.ok());
  check("least-capacity holder removed");
  // A volume for a node that is not serving lands on the least-capacity
  // node, which then stops being the least.
  NodeId target = dfs.LeastCapacityServingNode();
  Operation add_volume;
  add_volume.kind = OpKind::kAddVolume;
  add_volume.node = least;
  ASSERT_TRUE(dfs.Execute(add_volume).status.ok());
  EXPECT_EQ(dfs.FindStorageNode(target)->bricks.size(), 2u);
  check("volume on least-capacity node");
  EXPECT_NE(dfs.LeastCapacityServingNode(), target);

  // The crashed max holder restarts and wins the tie again.
  dfs.RestartNode(node_of(tied[0]));
  check("max holder restarted");
  EXPECT_EQ(dfs.HottestServingBrick(), tied[0]);
  dfs.RestartNode(least);
  check("least-capacity holder restarted");

  SnapshotWriter writer;
  dfs.SaveState(writer);
  GeoProbe restored(config);
  SnapshotReader reader(writer.buffer());
  ASSERT_TRUE(restored.RestoreState(reader).ok());
  CheckAggregates(restored, step, "restored");
  CheckGroupSums(restored, "restored");
  EXPECT_EQ(restored.HottestServingBrick(), tied[0]);
  SnapshotWriter resaved;
  restored.SaveState(resaved);
  EXPECT_TRUE(resaved.buffer() == writer.buffer());
}

}  // namespace
}  // namespace themis

// Flavor-specific balancer behaviors: DHT migrate-data, ring takeover,
// CRUSH/upmap response, weighted-tree leveling — plus the shared rebalance
// API semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/snapshot_io.h"
#include "src/dfs/flavors/ceph_like.h"
#include "src/dfs/flavors/factory.h"
#include "src/dfs/flavors/geo_like.h"
#include "src/dfs/flavors/gluster_like.h"
#include "src/dfs/flavors/hdfs_like.h"
#include "src/dfs/flavors/leo_like.h"

namespace themis {
namespace {

Operation Create(const std::string& path, uint64_t size) {
  Operation op;
  op.kind = OpKind::kCreate;
  op.path = path;
  op.size = size;
  return op;
}

void Drain(DfsCluster& dfs) {
  for (int i = 0; i < 5000 && !dfs.RebalanceDone(); ++i) {
    dfs.AdvanceTime(Seconds(10));
  }
  ASSERT_TRUE(dfs.RebalanceDone());
}

TEST(RebalanceApi, IdempotentWhenBalanced) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 71);
  EXPECT_TRUE(dfs->RebalanceDone());
  EXPECT_TRUE(dfs->TriggerRebalance().ok());
  EXPECT_TRUE(dfs->RebalanceDone()) << "empty plan completes immediately";
  EXPECT_EQ(dfs->completed_rebalance_rounds(), 1);
  EXPECT_EQ(dfs->rebalance_triggers(), 1u);
}

TEST(RebalanceApi, BackgroundMigrationTakesTime) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 72);
  // Write data, then shrink the cluster's balance by hand via volume churn.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(dfs->Execute(Create("/f" + std::to_string(i), 10 * kGiB)).status.ok());
  }
  // Skew: move bytes onto one brick directly.
  BrickId victim = dfs->ListBricks().front();
  for (BrickId donor : dfs->ListBricks()) {
    if (donor != victim) {
      dfs->SkewBytes(donor, victim, 40 * kGiB);
    }
  }
  ASSERT_GT(dfs->StorageImbalance(), dfs->config().native_threshold);
  ASSERT_TRUE(dfs->TriggerRebalance().ok());
  EXPECT_FALSE(dfs->RebalanceDone()) << "a non-trivial plan must take time";
  Drain(*dfs);
  EXPECT_LE(dfs->StorageImbalance(), dfs->config().native_threshold + 0.03);
}

TEST(GlusterBalancer, MigrateDataFollowsLayoutAfterExpansion) {
  GlusterLikeCluster dfs;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(dfs.Execute(Create("/f" + std::to_string(i), 8 * kGiB)).status.ok());
  }
  // Adding a storage node re-runs fix-layout; the rebalance must move data
  // whose hash now maps to the new brick onto it.
  Operation add;
  add.kind = OpKind::kAddStorageNode;
  ASSERT_TRUE(dfs.Execute(add).status.ok());
  BrickId fresh = dfs.ListBricks().back();
  ASSERT_EQ(dfs.FindBrick(fresh)->used_bytes, 0u);
  ASSERT_TRUE(dfs.TriggerRebalance().ok());
  Drain(dfs);
  EXPECT_GT(dfs.FindBrick(fresh)->used_bytes, 0u)
      << "fix-layout + migrate-data must populate the new brick";
  // And the moved files must now sit on their hashed bricks.
  int misplaced = 0;
  for (const auto& [file, layout] : dfs.file_layouts()) {
    std::string path = dfs.tree().PathOf(file);
    for (uint32_t i = 0; i < layout.chunks.size(); ++i) {
      if (layout.chunks[i].replicas.empty()) {
        continue;
      }
      uint32_t hash = DhtLayout::HashName(path) + i * 0x9e3779b9u;
      BrickId expected = dfs.layout().Locate(hash);
      if (!layout.chunks[i].HasReplicaOn(expected)) {
        ++misplaced;
      }
    }
  }
  // min-free-disk may legitimately leave a few in place; most must match.
  EXPECT_LT(misplaced, 20);
}

TEST(GlusterBalancer, RebalanceReconcilesLinkfiles) {
  GlusterLikeCluster dfs;
  ASSERT_TRUE(dfs.Execute(Create("/src", kGiB)).status.ok());
  // Force linkfiles via renames across ranges.
  int renames = 0;
  for (int i = 0; i < 64 && dfs.live_linkfiles() == 0; ++i) {
    Operation rename;
    rename.kind = OpKind::kRename;
    rename.path = renames == 0 ? "/src" : "/dst" + std::to_string(renames - 1);
    rename.path2 = "/dst" + std::to_string(renames);
    ASSERT_TRUE(dfs.Execute(rename).status.ok());
    ++renames;
  }
  ASSERT_GT(dfs.live_linkfiles(), 0u);
  ASSERT_TRUE(dfs.TriggerRebalance().ok());
  Drain(dfs);
  EXPECT_EQ(dfs.live_linkfiles(), 0u) << "a completed rebalance reclaims linkfiles";
}

TEST(LeoBalancer, RingChangeMovesAffectedObjects) {
  LeoLikeCluster dfs;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(dfs.Execute(Create("/f" + std::to_string(i), 8 * kGiB)).status.ok());
  }
  Operation add;
  add.kind = OpKind::kAddStorageNode;
  ASSERT_TRUE(dfs.Execute(add).status.ok());
  BrickId fresh = dfs.ListBricks().back();
  ASSERT_TRUE(dfs.TriggerRebalance().ok());
  Drain(dfs);
  EXPECT_GT(dfs.FindBrick(fresh)->used_bytes, 0u)
      << "the ring's new arcs must receive their objects";
}

// The LeoFS flavor caches each stored chunk's object hash by FileId, and the
// cache outlives ring re-plants. A reset restarts FileIds at 1 and a restore
// brings back another namespace's FileIds, so a stale entry would hash a
// chunk under a path it no longer has. Each case warms the cache, changes
// which path a FileId names, changes the ring, and then requires every pin
// check and every hash-driven move to follow the chunk's current path.
class LeoProbe : public LeoLikeCluster {
 public:
  using LeoLikeCluster::BuildRebalancePlan;
  using LeoLikeCluster::ChunkPinnedToBrick;
  using LeoLikeCluster::OnBalancerRestarted;
};

BrickId FreshPrimary(const LeoProbe& dfs, FileId file, uint32_t chunk) {
  return dfs.ring().Primary(LeoLikeCluster::ObjectHash(dfs.tree().PathOf(file), chunk));
}

// Queries every stored chunk's pin (warming the cache) and checks it against
// a fresh hash of the chunk's current path.
void ExpectPinsFollowPaths(const LeoProbe& dfs) {
  size_t chunks = 0;
  for (const auto& [file, layout] : dfs.file_layouts()) {
    for (uint32_t i = 0; i < layout.chunks.size(); ++i) {
      EXPECT_TRUE(dfs.ChunkPinnedToBrick(file, i, FreshPrimary(dfs, file, i)))
          << dfs.tree().PathOf(file) << " chunk " << i;
      ++chunks;
    }
  }
  EXPECT_GT(chunks, 0u);
}

// Every hash-driven move targets the fresh primary; returns how many there
// were, so a case can require that the plan exercised the hashes at all.
size_t ExpectPlanFollowsPaths(LeoProbe& dfs) {
  size_t hashed = 0;
  for (const ChunkMove& move : dfs.BuildRebalancePlan()) {
    if (move.hash_driven) {
      EXPECT_EQ(move.to, FreshPrimary(dfs, move.file, move.chunk_index))
          << dfs.tree().PathOf(move.file) << " chunk " << move.chunk_index;
      ++hashed;
    }
  }
  return hashed;
}

void CreateFiles(DfsCluster& dfs, const std::string& prefix, int count) {
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(dfs.Execute(Create(prefix + std::to_string(i), 5 * kGiB)).status.ok());
  }
}

void AddStorageNode(DfsCluster& dfs) {
  Operation add;
  add.kind = OpKind::kAddStorageNode;
  ASSERT_TRUE(dfs.Execute(add).status.ok());
}

TEST(LeoObjectHashCache, ResetReusesFileIdsUnderNewPaths) {
  LeoProbe dfs;
  CreateFiles(dfs, "/a", 30);
  ExpectPinsFollowPaths(dfs);
  dfs.ResetToInitial();
  CreateFiles(dfs, "/reset-", 30);  // FileIds 1..30 again, other paths
  AddStorageNode(dfs);              // re-plants the ring, keeps the cache
  ExpectPinsFollowPaths(dfs);
  EXPECT_GT(ExpectPlanFollowsPaths(dfs), 0u);
}

TEST(LeoObjectHashCache, RenameRepathsFilesAndDirectories) {
  LeoProbe dfs;
  Operation mkdir;
  mkdir.kind = OpKind::kMkdir;
  mkdir.path = "/d";
  ASSERT_TRUE(dfs.Execute(mkdir).status.ok());
  CreateFiles(dfs, "/d/f", 15);
  CreateFiles(dfs, "/g", 15);
  ExpectPinsFollowPaths(dfs);
  for (auto [from, to] : {std::pair{"/g3", "/moved-g3"},
                          std::pair{"/d", "/moved-d"}}) {  // re-paths every file under it
    Operation rename;
    rename.kind = OpKind::kRename;
    rename.path = from;
    rename.path2 = to;
    ASSERT_TRUE(dfs.Execute(rename).status.ok()) << from;
  }
  AddStorageNode(dfs);
  ExpectPinsFollowPaths(dfs);
  EXPECT_GT(ExpectPlanFollowsPaths(dfs), 0u);
}

TEST(LeoObjectHashCache, RestoreBringsBackAnotherNamespace) {
  LeoProbe saved;
  CreateFiles(saved, "/saved-", 30);
  SnapshotWriter writer;
  saved.SaveState(writer);

  LeoProbe dfs;
  CreateFiles(dfs, "/b", 30);  // the same FileIds under other paths
  ExpectPinsFollowPaths(dfs);
  SnapshotReader reader(writer.buffer());
  ASSERT_TRUE(dfs.RestoreState(reader).ok());
  AddStorageNode(dfs);
  ExpectPinsFollowPaths(dfs);
  EXPECT_GT(ExpectPlanFollowsPaths(dfs), 0u);
}

TEST(LeoObjectHashCache, BalancerRestartReloadsTheRing) {
  LeoProbe dfs;
  CreateFiles(dfs, "/c", 30);
  ExpectPinsFollowPaths(dfs);
  AddStorageNode(dfs);
  dfs.OnBalancerRestarted();  // reloads the ring from its plantings
  ExpectPinsFollowPaths(dfs);
  EXPECT_GT(ExpectPlanFollowsPaths(dfs), 0u);
  Operation remove;
  remove.kind = OpKind::kDelete;
  remove.path = "/c7";
  ASSERT_TRUE(dfs.Execute(remove).status.ok());
  ExpectPinsFollowPaths(dfs);
}

TEST(CephBalancer, UpmapsAppearUnderSkew) {
  CephLikeCluster dfs;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(dfs.Execute(Create("/f" + std::to_string(i), 8 * kGiB)).status.ok());
  }
  BrickId victim = dfs.ListBricks().front();
  for (BrickId donor : dfs.ListBricks()) {
    if (donor != victim) {
      dfs.SkewBytes(donor, victim, 60 * kGiB);
    }
  }
  ASSERT_GT(dfs.StorageImbalance(), dfs.config().native_threshold);
  size_t upmaps_before = dfs.crush().upmap_count();
  ASSERT_TRUE(dfs.TriggerRebalance().ok());
  Drain(dfs);
  EXPECT_GT(dfs.crush().upmap_count(), upmaps_before)
      << "the upmap balancer pins PGs away from the overfull device";
  EXPECT_LE(dfs.StorageImbalance(), dfs.config().native_threshold + 0.03);
}

TEST(HdfsBalancer, LevelsWithinNativeThreshold) {
  HdfsLikeCluster dfs;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(dfs.Execute(Create("/f" + std::to_string(i), 6 * kGiB)).status.ok());
  }
  BrickId victim = dfs.ListBricks().front();
  for (BrickId donor : dfs.ListBricks()) {
    if (donor != victim) {
      dfs.SkewBytes(donor, victim, 30 * kGiB);
    }
  }
  ASSERT_GT(dfs.StorageImbalance(), 0.10);
  ASSERT_TRUE(dfs.TriggerRebalance().ok());
  Drain(dfs);
  EXPECT_LE(dfs.StorageImbalance(), 0.10 + 0.03)
      << "the HDFS balancer's contract is its 10% threshold";
}

TEST(PeriodicBalancer, FiresWithoutExplicitTrigger) {
  // The periodic discipline must notice imbalance on its own.
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 77);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(dfs->Execute(Create("/f" + std::to_string(i), 10 * kGiB)).status.ok());
  }
  BrickId victim = dfs->ListBricks().front();
  for (BrickId donor : dfs->ListBricks()) {
    if (donor != victim) {
      dfs->SkewBytes(donor, victim, 50 * kGiB);
    }
  }
  ASSERT_GT(dfs->StorageImbalance(), dfs->config().native_threshold);
  int rounds_before = dfs->completed_rebalance_rounds();
  // Idle time beyond the balancer period; no client activity at all.
  dfs->AdvanceTime(dfs->config().balancer_period * 4);
  EXPECT_GT(dfs->completed_rebalance_rounds(), rounds_before);
  EXPECT_LE(dfs->StorageImbalance(), dfs->config().native_threshold + 0.03);
}

TEST(FlavorDefaults, MatchPaperThresholds) {
  EXPECT_DOUBLE_EQ(HdfsLikeCluster::DefaultConfig().native_threshold, 0.10);
  EXPECT_DOUBLE_EQ(GlusterLikeCluster::DefaultConfig().native_threshold, 0.20);
  EXPECT_LT(CephLikeCluster::DefaultConfig().native_threshold, 0.15);
  EXPECT_EQ(HdfsLikeCluster::DefaultConfig().initial_storage_nodes +
                HdfsLikeCluster::DefaultConfig().initial_meta_nodes,
            10)
      << "the paper's clusters have 10 nodes";
}

TEST(GeoBalancer, ReplicasSpreadAcrossSites) {
  GeoLikeCluster dfs;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(dfs.Execute(Create("/f" + std::to_string(i), 4 * kGiB)).status.ok());
  }
  // Every replicated chunk lands on bricks whose nodes sit on distinct
  // sites: the within-group pick runs a distinct-site pass first and a
  // fresh cluster never needs the capacity-constrained fill pass.
  size_t replicated = 0;
  for (const auto& [file, layout] : dfs.file_layouts()) {
    (void)file;
    for (const ChunkPlacement& chunk : layout.chunks) {
      if (chunk.replicas.size() < 2) continue;
      ++replicated;
      std::set<uint16_t> sites;
      for (BrickId brick : chunk.replicas) {
        const Brick* b = dfs.FindBrick(brick);
        ASSERT_NE(b, nullptr);
        ASSERT_TRUE(dfs.engine().Contains(b->node));
        sites.insert(dfs.engine().TagOf(b->node).site);
      }
      EXPECT_GE(sites.size(), 2u) << "chunk replicas co-located on one site";
    }
  }
  EXPECT_GT(replicated, 0u);
}

TEST(GeoBalancer, SiteFailoverDrainsTheHotSite) {
  // A compact tree so a hand-made skew dominates total capacity: 12 nodes
  // over 3 sites, 64 GiB base bricks (heterogeneous 1x/2x/4x on top).
  ClusterConfig config = GeoLikeCluster::DefaultConfig();
  config.initial_storage_nodes = 12;
  config.geo_racks_per_site = 2;
  config.geo_group_size = 4;
  config.brick_capacity = 64 * kGiB;
  config.rng_seed = 7;
  GeoLikeCluster dfs(config);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(dfs.Execute(Create("/f" + std::to_string(i), 8 * kGiB)).status.ok());
  }
  // Pile bytes from the other sites onto site 0's bricks.
  std::vector<BrickId> hot, cold;
  for (BrickId id : dfs.ListBricks()) {
    const Brick* brick = dfs.FindBrick(id);
    if (dfs.engine().TagOf(brick->node).site == 0) {
      hot.push_back(id);
    } else {
      cold.push_back(id);
    }
  }
  ASSERT_FALSE(hot.empty());
  ASSERT_FALSE(cold.empty());
  for (size_t i = 0; i < cold.size(); ++i) {
    dfs.SkewBytes(cold[i], hot[i % hot.size()], 32 * kGiB);
  }

  auto site_gap = [&]() {
    double hottest = 0.0, coldest = 1.0;
    for (const auto& [used, cap] : dfs.PerSiteUsedCap()) {
      if (cap == 0) continue;
      double frac = static_cast<double>(used) / static_cast<double>(cap);
      hottest = std::max(hottest, frac);
      coldest = std::min(coldest, frac);
    }
    return hottest - coldest;
  };
  double before = site_gap();
  ASSERT_GT(before, dfs.config().native_threshold * 0.5)
      << "skew must exceed the site-failover trigger";
  // Each round's budget is half the remaining gap, so convergence takes a
  // few rounds — exactly how a periodic balancer runs in production.
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(dfs.TriggerRebalance().ok());
    Drain(dfs);
  }
  EXPECT_LT(site_gap(), before) << "site failover must narrow the gap";
  EXPECT_LE(site_gap(), dfs.config().native_threshold)
      << "sites must settle inside the flavor threshold";
}

TEST(FlavorFactory, BuildsEveryFlavor) {
  for (Flavor flavor :
       {Flavor::kHdfs, Flavor::kCeph, Flavor::kGluster, Flavor::kLeo,
        Flavor::kGeo}) {
    std::unique_ptr<DfsCluster> dfs = MakeCluster(flavor, 1, 6, 3);
    ASSERT_NE(dfs, nullptr);
    EXPECT_EQ(dfs->flavor(), flavor);
    EXPECT_EQ(dfs->ListStorageNodes().size(), 6u);
    EXPECT_EQ(dfs->ListMetaNodes().size(), 3u);
    EXPECT_FALSE(dfs->name().empty());
    EXPECT_FALSE(dfs->DescribeState().empty());
  }
  EXPECT_EQ(MakeCluster(Flavor::kCustom, 1), nullptr);
}

}  // namespace
}  // namespace themis

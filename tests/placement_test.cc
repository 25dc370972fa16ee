// Unit + property tests for the five placement algorithms.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/dfs/placement/crush_map.h"
#include "src/dfs/placement/dht_layout.h"
#include "src/dfs/placement/geo_tree.h"
#include "src/dfs/placement/hash_ring.h"
#include "src/dfs/placement/weighted_tree.h"

namespace themis {
namespace {

// ---- HashRing ----

TEST(HashRing, EmptyRingLocatesNothing) {
  HashRing ring;
  EXPECT_TRUE(ring.Locate(123, 2).empty());
  EXPECT_EQ(ring.Primary(123), kInvalidBrick);
}

TEST(HashRing, LocateReturnsDistinctTargets) {
  HashRing ring(32);
  for (BrickId b = 1; b <= 5; ++b) {
    ring.AddTarget(b);
  }
  for (uint64_t key = 0; key < 200; ++key) {
    std::vector<BrickId> located = ring.Locate(Mix64(key), 3);
    ASSERT_EQ(located.size(), 3u);
    std::set<BrickId> unique(located.begin(), located.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST(HashRing, ReplicasCappedByTargetCount) {
  HashRing ring;
  ring.AddTarget(1);
  ring.AddTarget(2);
  EXPECT_EQ(ring.Locate(99, 5).size(), 2u);
}

TEST(HashRing, AddTargetIsIdempotent) {
  HashRing ring(16);
  ring.AddTarget(7);
  int vnodes = ring.VnodeCount(7);
  ring.AddTarget(7);
  EXPECT_EQ(ring.VnodeCount(7), vnodes);
}

TEST(HashRing, RemoveTargetMovesOnlyItsArcs) {
  // Consistent-hashing property: removing a target only remaps keys that
  // were on the removed target.
  HashRing ring(64);
  for (BrickId b = 1; b <= 8; ++b) {
    ring.AddTarget(b);
  }
  std::map<uint64_t, BrickId> before;
  for (uint64_t key = 0; key < 500; ++key) {
    before[key] = ring.Primary(Mix64(key));
  }
  ring.RemoveTarget(4);
  int moved = 0;
  for (const auto& [key, primary] : before) {
    BrickId now = ring.Primary(Mix64(key));
    if (primary == 4) {
      EXPECT_NE(now, 4u);
    } else {
      EXPECT_EQ(now, primary) << "key not on removed target was remapped";
    }
    if (now != primary) {
      ++moved;
    }
  }
  // Roughly 1/8 of the keys should have moved.
  EXPECT_GT(moved, 20);
  EXPECT_LT(moved, 140);
}

TEST(HashRing, WeightScalesShare) {
  HashRing ring(64);
  ring.AddTarget(1, 1.0);
  ring.AddTarget(2, 4.0);
  int heavy = 0;
  const int kKeys = 4000;
  for (uint64_t key = 0; key < kKeys; ++key) {
    if (ring.Primary(Mix64(key)) == 2) {
      ++heavy;
    }
  }
  double share = static_cast<double>(heavy) / kKeys;
  EXPECT_GT(share, 0.65);
  EXPECT_LT(share, 0.92);
}

TEST(HashRing, BalancedDistribution) {
  HashRing ring(64);
  for (BrickId b = 1; b <= 4; ++b) {
    ring.AddTarget(b);
  }
  std::map<BrickId, int> counts;
  const int kKeys = 8000;
  for (uint64_t key = 0; key < kKeys; ++key) {
    ++counts[ring.Primary(Mix64(key))];
  }
  for (const auto& [brick, count] : counts) {
    EXPECT_GT(count, kKeys / 8) << "target " << brick << " starved";
    EXPECT_LT(count, kKeys / 2) << "target " << brick << " dominates";
  }
}

// ---- CrushMap ----

TEST(CrushMap, DeterministicMapping) {
  CrushMap crush(128);
  crush.SetTargetWeight(1, 1.0);
  crush.SetTargetWeight(2, 1.0);
  crush.SetTargetWeight(3, 1.0);
  for (uint32_t pg = 0; pg < 128; ++pg) {
    EXPECT_EQ(crush.RawMap(pg, 2), crush.RawMap(pg, 2));
  }
}

TEST(CrushMap, MapsDistinctReplicas) {
  CrushMap crush(64);
  for (BrickId b = 1; b <= 6; ++b) {
    crush.SetTargetWeight(b, 1.0);
  }
  for (uint32_t pg = 0; pg < 64; ++pg) {
    std::vector<BrickId> mapped = crush.RawMap(pg, 3);
    ASSERT_EQ(mapped.size(), 3u);
    std::set<BrickId> unique(mapped.begin(), mapped.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST(CrushMap, WeightProportionalPgShare) {
  CrushMap crush(2048);
  crush.SetTargetWeight(1, 1.0);
  crush.SetTargetWeight(2, 3.0);
  int heavy = 0;
  for (uint32_t pg = 0; pg < 2048; ++pg) {
    if (crush.RawMap(pg, 1).front() == 2) {
      ++heavy;
    }
  }
  EXPECT_NEAR(heavy / 2048.0, 0.75, 0.06);
}

TEST(CrushMap, WeightChangeMovesProportionalShare) {
  CrushMap crush(1024);
  for (BrickId b = 1; b <= 5; ++b) {
    crush.SetTargetWeight(b, 1.0);
  }
  std::map<uint32_t, BrickId> before;
  for (uint32_t pg = 0; pg < 1024; ++pg) {
    before[pg] = crush.RawMap(pg, 1).front();
  }
  crush.SetTargetWeight(5, 2.0);  // double one target's weight
  int moved = 0;
  for (const auto& [pg, primary] : before) {
    if (crush.RawMap(pg, 1).front() != primary) {
      ++moved;
    }
  }
  // Only pgs gained by the heavier target move (about 1/6 of the space);
  // nothing else reshuffles.
  EXPECT_GT(moved, 60);
  EXPECT_LT(moved, 350);
}

TEST(CrushMap, UpmapOverridesPrimary) {
  CrushMap crush(64);
  crush.SetTargetWeight(1, 1.0);
  crush.SetTargetWeight(2, 1.0);
  crush.SetTargetWeight(3, 1.0);
  crush.Upmap(10, 3);
  EXPECT_EQ(crush.Map(10, 2).front(), 3u);
  crush.ClearUpmap(10);
  EXPECT_EQ(crush.Map(10, 2), crush.RawMap(10, 2));
}

TEST(CrushMap, StaleUpmapIgnoredAfterTargetRemoval) {
  CrushMap crush(64);
  crush.SetTargetWeight(1, 1.0);
  crush.SetTargetWeight(2, 1.0);
  crush.Upmap(5, 2);
  crush.RemoveTarget(2);
  std::vector<BrickId> mapped = crush.Map(5, 1);
  ASSERT_EQ(mapped.size(), 1u);
  EXPECT_EQ(mapped.front(), 1u);
  EXPECT_EQ(crush.upmap_count(), 0u);
}

TEST(CrushMap, RemovingWeightRemovesTarget) {
  CrushMap crush(64);
  crush.SetTargetWeight(1, 1.0);
  crush.SetTargetWeight(1, 0.0);
  EXPECT_FALSE(crush.HasTarget(1));
  EXPECT_TRUE(crush.RawMap(3, 1).empty());
}

// ---- DhtLayout ----

TEST(DhtLayout, CoversFullHashSpace) {
  DhtLayout layout;
  layout.Recompute({{1, 100.0}, {2, 100.0}, {3, 100.0}});
  ASSERT_EQ(layout.ranges().size(), 3u);
  EXPECT_EQ(layout.ranges().front().start, 0u);
  EXPECT_EQ(layout.ranges().back().end, 0xffffffffu);
  for (size_t i = 1; i < layout.ranges().size(); ++i) {
    EXPECT_EQ(layout.ranges()[i].start, layout.ranges()[i - 1].end + 1);
  }
}

TEST(DhtLayout, RangesProportionalToWeight) {
  DhtLayout layout;
  layout.Recompute({{1, 300.0}, {2, 100.0}});
  double share1 = static_cast<double>(layout.ranges()[0].end) / 4294967295.0;
  EXPECT_NEAR(share1, 0.75, 0.01);
}

TEST(DhtLayout, LocateIsStableAcrossIdenticalRecompute) {
  DhtLayout layout;
  layout.Recompute({{1, 100.0}, {2, 100.0}});
  BrickId before = layout.Locate(12345);
  uint64_t generation = layout.generation();
  layout.Recompute({{1, 100.0}, {2, 100.0}});
  EXPECT_EQ(layout.Locate(12345), before);
  EXPECT_EQ(layout.generation(), generation + 1);
}

TEST(DhtLayout, ZeroWeightBricksGetNoRange) {
  DhtLayout layout;
  layout.Recompute({{1, 100.0}, {2, 0.0}, {3, 100.0}});
  for (const DhtRange& range : layout.ranges()) {
    EXPECT_NE(range.brick, 2u);
  }
}

TEST(DhtLayout, EmptyLayout) {
  DhtLayout layout;
  EXPECT_TRUE(layout.empty());
  EXPECT_EQ(layout.Locate(1), kInvalidBrick);
  layout.Recompute({});
  EXPECT_TRUE(layout.empty());
}

TEST(DhtLayout, HashNameDeterministicAndSpread) {
  EXPECT_EQ(DhtLayout::HashName("/a/b"), DhtLayout::HashName("/a/b"));
  EXPECT_NE(DhtLayout::HashName("/a/b"), DhtLayout::HashName("/a/c"));
  // Names spread roughly evenly over two equal ranges.
  DhtLayout layout;
  layout.Recompute({{1, 1.0}, {2, 1.0}});
  int first = 0;
  for (int i = 0; i < 2000; ++i) {
    if (layout.Locate(DhtLayout::HashName("/f" + std::to_string(i))) == 1) {
      ++first;
    }
  }
  EXPECT_NEAR(first / 2000.0, 0.5, 0.06);
}

// ---- WeightedTree ----

TEST(WeightedTree, SortsLightToHeavy) {
  WeightedTree tree(10);
  tree.Insert({1, 0.95});
  tree.Insert({2, 0.05});
  tree.Insert({3, 0.55});
  Rng rng(1);
  std::vector<BrickId> sorted = tree.SortByLoad(rng);
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], 2u);
  EXPECT_EQ(sorted[1], 3u);
  EXPECT_EQ(sorted[2], 1u);
}

TEST(WeightedTree, ShufflesWithinEqualBuckets) {
  // Nodes with the same weight must share placements (Collections.shuffle).
  WeightedTree tree(10);
  for (BrickId b = 1; b <= 6; ++b) {
    tree.Insert({b, 0.5});
  }
  Rng rng(2);
  std::map<BrickId, int> first_counts;
  for (int i = 0; i < 600; ++i) {
    ++first_counts[tree.ChooseLeastLoaded(1, rng).front()];
  }
  for (BrickId b = 1; b <= 6; ++b) {
    EXPECT_GT(first_counts[b], 30) << "target " << b << " never chosen first";
  }
}

TEST(WeightedTree, ChooseLeastLoadedTruncates) {
  WeightedTree tree;
  tree.Insert({1, 0.2});
  tree.Insert({2, 0.8});
  Rng rng(3);
  EXPECT_EQ(tree.ChooseLeastLoaded(1, rng).size(), 1u);
  EXPECT_EQ(tree.ChooseLeastLoaded(5, rng).size(), 2u);
}

TEST(WeightedTree, ClearEmptiesTree) {
  WeightedTree tree;
  tree.Insert({1, 0.5});
  tree.Clear();
  EXPECT_EQ(tree.size(), 0u);
  Rng rng(4);
  EXPECT_TRUE(tree.SortByLoad(rng).empty());
}

TEST(WeightedTree, ClampsOutOfRangeFractions) {
  WeightedTree tree(10);
  tree.Insert({1, -0.5});
  tree.Insert({2, 1.5});
  Rng rng(5);
  std::vector<BrickId> sorted = tree.SortByLoad(rng);
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0], 1u);  // clamped to lightest bucket
  EXPECT_EQ(sorted[1], 2u);  // clamped to heaviest bucket
}

// ---- GeoTreeEngine ----

TEST(GeoTree, FewestFirstAdmissionBalancesSitesAndRacks) {
  GeoTreeEngine engine(3, 4, 16);
  for (NodeId id = 0; id < 48; ++id) {
    engine.AssignNode(id);
  }
  EXPECT_EQ(engine.node_count(), 48u);
  for (uint16_t site = 0; site < 3; ++site) {
    EXPECT_EQ(engine.SiteNodeCount(site), 16u) << "site " << site;
  }
  // Racks fill evenly within each site: 16 nodes over 4 racks.
  std::map<std::pair<uint16_t, uint16_t>, int> rack_counts;
  for (NodeId id = 0; id < 48; ++id) {
    ASSERT_TRUE(engine.Contains(id));
    GeoTag tag = engine.TagOf(id);
    ++rack_counts[{tag.site, tag.rack}];
  }
  for (const auto& [rack, count] : rack_counts) {
    EXPECT_EQ(count, 4) << "site " << rack.first << " rack " << rack.second;
  }
  // Groups span sites: every full group holds members from all three.
  for (uint32_t group = 0; group < engine.group_count(); ++group) {
    std::set<uint16_t> sites;
    for (NodeId id : engine.GroupMembers(group)) {
      sites.insert(engine.TagOf(id).site);
    }
    EXPECT_EQ(sites.size(), 3u) << "group " << group;
  }
}

TEST(GeoTree, RemovalFreesTheSlotForTheNextAdmission) {
  GeoTreeEngine engine(3, 4, 16);
  for (NodeId id = 0; id < 9; ++id) {
    engine.AssignNode(id);
  }
  GeoTag victim_tag = engine.TagOf(4);
  engine.RemoveNode(4);
  EXPECT_FALSE(engine.Contains(4));
  EXPECT_EQ(engine.node_count(), 8u);
  // The vacated site is now the fewest-populated, so the next admission
  // lands exactly where the victim sat.
  engine.AssignNode(100);
  EXPECT_EQ(engine.TagOf(100).site, victim_tag.site);
  EXPECT_EQ(engine.TagOf(100).rack, victim_tag.rack);
}

TEST(GeoTree, RestoreReproducesAssignmentAndFutureHistory) {
  GeoTreeEngine original(3, 4, 8);
  for (NodeId id = 0; id < 30; ++id) {
    original.AssignNode(id);
  }
  original.RemoveNode(7);
  original.RemoveNode(19);

  GeoTreeEngine restored(3, 4, 8);
  for (NodeId id = 0; id < 30; ++id) {
    if (original.Contains(id)) {
      restored.RestoreNode(id, original.TagOf(id), original.GroupOf(id));
    }
  }
  EXPECT_EQ(restored.node_count(), original.node_count());
  EXPECT_EQ(restored.group_count(), original.group_count());
  for (NodeId id = 0; id < 30; ++id) {
    ASSERT_EQ(restored.Contains(id), original.Contains(id)) << id;
    if (!original.Contains(id)) continue;
    EXPECT_EQ(restored.TagOf(id).site, original.TagOf(id).site) << id;
    EXPECT_EQ(restored.TagOf(id).rack, original.TagOf(id).rack) << id;
    EXPECT_EQ(restored.GroupOf(id), original.GroupOf(id)) << id;
  }
  // History-dependence survives the round trip: both engines admit the next
  // node identically.
  uint32_t group_a = original.AssignNode(500);
  uint32_t group_b = restored.AssignNode(500);
  EXPECT_EQ(group_a, group_b);
  EXPECT_EQ(original.TagOf(500).site, restored.TagOf(500).site);
  EXPECT_EQ(original.TagOf(500).rack, restored.TagOf(500).rack);
}

TEST(GeoTree, ClearEmptiesEverything) {
  GeoTreeEngine engine(2, 2, 4);
  for (NodeId id = 0; id < 10; ++id) {
    engine.AssignNode(id);
  }
  engine.Clear();
  EXPECT_EQ(engine.node_count(), 0u);
  EXPECT_EQ(engine.group_count(), 0u);
  EXPECT_FALSE(engine.Contains(0));
  // Admission restarts from a blank history.
  engine.AssignNode(3);
  EXPECT_EQ(engine.TagOf(3).site, 0);
  EXPECT_EQ(engine.GroupOf(3), 0u);
}

// The group admission picks by scanning every group: fewest members among
// the non-full ones, lowest index on ties, a fresh group when all are full.
uint32_t BruteAdmissionGroup(const GeoTreeEngine& engine) {
  uint32_t group = engine.group_count();
  for (uint32_t g = 0; g < engine.group_count(); ++g) {
    size_t size = engine.GroupMembers(g).size();
    if (static_cast<int>(size) >= engine.group_size()) {
      continue;
    }
    if (group == engine.group_count() || size < engine.GroupMembers(group).size()) {
      group = g;
    }
  }
  return group;
}

TEST(GeoTree, AdmissionMatchesFullGroupScanUnderChurn) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    GeoTreeEngine engine(3, 4, 4);
    NodeId next_id = 0;
    std::vector<NodeId> members;
    for (int step = 0; step < 3000; ++step) {
      uint64_t action = rng.NextBelow(10);
      if (action < 6 || members.empty()) {
        uint32_t expected = BruteAdmissionGroup(engine);
        ASSERT_EQ(engine.AssignNode(next_id), expected) << "seed " << seed << " step " << step;
        members.push_back(next_id++);
      } else if (action < 9) {
        size_t index = rng.PickIndex(members.size());
        engine.RemoveNode(members[index]);
        members.erase(members.begin() + static_cast<std::ptrdiff_t>(index));
      } else {
        // Restore moves a member into any group, possibly past the end (the
        // skipped groups appear empty) or over capacity.
        NodeId id = members[rng.PickIndex(members.size())];
        uint32_t group = static_cast<uint32_t>(rng.NextBelow(engine.group_count() + 2));
        engine.RestoreNode(id, engine.TagOf(id), group);
        ASSERT_EQ(engine.GroupOf(id), group);
      }
      if (step % 1000 == 999) {
        engine.Clear();
        members.clear();
      }
    }
  }
}

// ---- Differential tests against the original algorithms ----
//
// The placement structures keep derived state between topology changes (a
// flat CRUSH target table and PG memo, a flat ring, counting-sort buffers).
// Each is checked against the straightforward algorithm it replaced, kept
// here as an oracle, under random churn.

namespace oracle {

// Straw2 recomputed from scratch on every call over a std::map of weights.
class Crush {
 public:
  explicit Crush(uint32_t pg_count) : pg_count_(pg_count) {}
  void SetTargetWeight(BrickId target, double weight) {
    if (weight <= 0.0) {
      weights_.erase(target);
    } else {
      weights_[target] = weight;
    }
  }
  void RemoveTarget(BrickId target) {
    weights_.erase(target);
    std::erase_if(upmaps_, [target](const auto& pin) { return pin.second == target; });
  }
  void Upmap(uint32_t pg, BrickId target) { upmaps_[pg % pg_count_] = target; }
  void ClearUpmap(uint32_t pg) { upmaps_.erase(pg % pg_count_); }

  std::vector<BrickId> RawMap(uint32_t pg, int replicas) const {
    std::vector<BrickId> out;
    if (weights_.empty() || replicas <= 0) {
      return out;
    }
    size_t want = std::min(static_cast<size_t>(replicas), weights_.size());
    for (uint32_t round = 0; out.size() < want && round < 8 * want; ++round) {
      BrickId best = kInvalidBrick;
      double best_draw = -1e300;
      for (const auto& [target, weight] : weights_) {
        if (std::find(out.begin(), out.end(), target) != out.end()) {
          continue;
        }
        uint64_t h =
            Mix64(HashCombine(HashCombine(Mix64(pg + 0x5bd1ULL), round), target));
        double u = (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
        double draw = std::log(u) / weight;
        if (draw > best_draw) {
          best_draw = draw;
          best = target;
        }
      }
      if (best == kInvalidBrick) {
        break;
      }
      out.push_back(best);
    }
    return out;
  }

  std::vector<BrickId> Map(uint32_t pg, int replicas) const {
    std::vector<BrickId> mapped = RawMap(pg, replicas);
    auto it = upmaps_.find(pg);
    if (it == upmaps_.end() || mapped.empty() || weights_.count(it->second) == 0) {
      return mapped;
    }
    auto at = std::find(mapped.begin(), mapped.end(), it->second);
    if (at != mapped.end()) {
      std::swap(mapped[0], *at);
    } else {
      mapped[0] = it->second;
    }
    return mapped;
  }

  std::map<BrickId, double> weights_;
  std::map<uint32_t, BrickId> upmaps_;
  uint32_t pg_count_;
};

// Consistent-hash ring as a std::map from position to target.
class Ring {
 public:
  explicit Ring(int vnodes) : vnodes_(vnodes) {}
  void AddTarget(BrickId target, double weight) {
    if (positions_.count(target) != 0) {
      return;
    }
    int vnodes = std::clamp(static_cast<int>(static_cast<double>(vnodes_) * weight), 4,
                            4 * vnodes_);
    std::vector<uint64_t>& planted = positions_[target];
    for (int v = 0; v < vnodes; ++v) {
      uint64_t pos = HashCombine(Mix64(target + 0x9e37ULL), static_cast<uint64_t>(v));
      while (ring_.count(pos) != 0) {
        pos = Mix64(pos);
      }
      ring_[pos] = target;
      planted.push_back(pos);
    }
  }
  void RemoveTarget(BrickId target) {
    auto it = positions_.find(target);
    if (it == positions_.end()) {
      return;
    }
    for (uint64_t pos : it->second) {
      ring_.erase(pos);
    }
    positions_.erase(it);
  }
  std::vector<BrickId> Locate(uint64_t key_hash, int replicas) const {
    std::vector<BrickId> out;
    if (ring_.empty() || replicas <= 0) {
      return out;
    }
    size_t want = std::min(static_cast<size_t>(replicas), positions_.size());
    auto it = ring_.lower_bound(key_hash);
    for (size_t steps = 0; out.size() < want && steps < 2 * ring_.size(); ++steps) {
      if (it == ring_.end()) {
        it = ring_.begin();
      }
      if (std::find(out.begin(), out.end(), it->second) == out.end()) {
        out.push_back(it->second);
      }
      ++it;
    }
    return out;
  }

  int vnodes_;
  std::map<uint64_t, BrickId> ring_;
  std::map<BrickId, std::vector<uint64_t>> positions_;
};

// sortByLoad over a std::map of buckets, shuffled bucket by bucket.
std::vector<BrickId> SortByLoad(const std::vector<WeightedTarget>& targets, int buckets,
                                Rng& rng) {
  std::map<int, std::vector<BrickId>> tree;
  for (const WeightedTarget& target : targets) {
    double f = std::clamp(target.used_fraction, 0.0, 1.0);
    tree[std::min(static_cast<int>(f * buckets), buckets - 1)].push_back(target.brick);
  }
  std::vector<BrickId> out;
  for (const auto& [bucket, members] : tree) {
    size_t start = out.size();
    out.insert(out.end(), members.begin(), members.end());
    for (size_t i = out.size(); i > start + 1; --i) {
      std::swap(out[i - 1], out[start + rng.PickIndex(i - start)]);
    }
  }
  return out;
}

}  // namespace oracle

TEST(PlacementDifferential, CrushMemoMatchesFromScratchStraw2) {
  constexpr uint32_t kPgs = 64;
  const double kWeights[] = {0.5, 1.0, 1.0, 2.0, 3.5};
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    CrushMap crush(kPgs);
    oracle::Crush expected(kPgs);
    for (int step = 0; step < 1500; ++step) {
      BrickId target = static_cast<BrickId>(rng.NextRange(1, 10));
      switch (rng.NextBelow(8)) {
        case 0:
        case 1: {
          double weight = kWeights[rng.PickIndex(std::size(kWeights))];
          crush.SetTargetWeight(target, weight);
          expected.SetTargetWeight(target, weight);
          break;
        }
        case 2: {
          // Re-set the current weight: must leave every mapping unchanged.
          double weight = crush.TargetWeight(target);
          crush.SetTargetWeight(target, weight);
          expected.SetTargetWeight(target, weight);
          break;
        }
        case 3:
          crush.RemoveTarget(target);
          expected.RemoveTarget(target);
          break;
        case 4: {
          uint32_t pg = static_cast<uint32_t>(rng.NextBelow(2 * kPgs));
          crush.Upmap(pg, target);
          expected.Upmap(pg, target);
          break;
        }
        case 5: {
          uint32_t pg = static_cast<uint32_t>(rng.NextBelow(kPgs));
          crush.ClearUpmap(pg);
          expected.ClearUpmap(pg);
          break;
        }
        default:
          break;
      }
      ASSERT_EQ(crush.target_count(), expected.weights_.size());
      ASSERT_EQ(crush.upmaps(), expected.upmaps_);
      for (int query = 0; query < 12; ++query) {
        // Mostly memoized pgs, now and then one past pg_count.
        uint32_t pg = static_cast<uint32_t>(rng.NextBelow(kPgs + 4));
        int replicas = static_cast<int>(rng.NextRange(0, 3));
        ASSERT_EQ(crush.Map(pg, replicas), expected.Map(pg, replicas))
            << "seed " << seed << " step " << step << " pg " << pg << " x" << replicas;
        ASSERT_EQ(crush.RawMap(pg, replicas), expected.RawMap(pg, replicas));
      }
    }
  }
}

TEST(PlacementDifferential, FlatRingMatchesMapRing) {
  const double kWeights[] = {0.05, 0.5, 1.0, 1.3, 6.0};
  for (uint64_t seed : {21u, 22u, 23u}) {
    Rng rng(seed);
    HashRing ring(16);
    oracle::Ring expected(16);
    for (int step = 0; step < 800; ++step) {
      // A small id range, so removed ids are often re-added.
      BrickId target = static_cast<BrickId>(rng.NextRange(1, 8));
      if (rng.Chance(0.6)) {
        double weight = kWeights[rng.PickIndex(std::size(kWeights))];
        ring.AddTarget(target, weight);
        expected.AddTarget(target, weight);
      } else {
        ring.RemoveTarget(target);
        expected.RemoveTarget(target);
      }
      ASSERT_EQ(ring.target_count(), expected.positions_.size());
      for (BrickId id = 1; id <= 8; ++id) {
        auto it = expected.positions_.find(id);
        int vnodes = it == expected.positions_.end() ? 0 : static_cast<int>(it->second.size());
        ASSERT_EQ(ring.VnodeCount(id), vnodes);
        ASSERT_EQ(ring.HasTarget(id), vnodes != 0);
      }
      for (int query = 0; query < 16; ++query) {
        uint64_t key = query == 0 ? ~uint64_t{0} : rng.NextU64();  // wraps past the end
        int replicas = static_cast<int>(rng.NextRange(0, 10));     // up to above the count
        std::vector<BrickId> located = ring.Locate(key, replicas);
        ASSERT_EQ(located, expected.Locate(key, replicas))
            << "seed " << seed << " step " << step << " x" << replicas;
        std::vector<BrickId> first = expected.Locate(key, 1);
        ASSERT_EQ(ring.Primary(key), first.empty() ? kInvalidBrick : first.front());
      }
    }
  }
}

TEST(PlacementDifferential, CountingSortMatchesMapSortAndDraws) {
  WeightedTree tree;  // reused across rounds, like the HDFS flavor's
  for (uint64_t seed : {31u, 32u, 33u}) {
    Rng pick(seed);
    Rng rng(seed + 100);
    Rng expected_rng(seed + 100);
    for (int round = 0; round < 400; ++round) {
      std::vector<WeightedTarget> targets;
      size_t count = pick.PickIndex(24);
      for (size_t i = 0; i < count; ++i) {
        // A coarse grid packs several targets into one bucket; a few fall
        // outside [0, 1] and clamp into the end buckets.
        double fraction = static_cast<double>(pick.NextRange(-2, 22)) / 20.0;
        targets.push_back({static_cast<BrickId>(pick.NextRange(1, 40)), fraction});
      }
      tree.Clear();
      for (const WeightedTarget& target : targets) {
        tree.Insert(target);
      }
      ASSERT_EQ(tree.size(), targets.size());
      ASSERT_EQ(tree.SortByLoad(rng), oracle::SortByLoad(targets, 20, expected_rng))
          << "seed " << seed << " round " << round;
      ASSERT_EQ(rng.NextU64(), expected_rng.NextU64()) << "draw sequences diverged";
    }
  }
}

}  // namespace
}  // namespace themis

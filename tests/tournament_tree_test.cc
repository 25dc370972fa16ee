// TournamentTree: the ordered load index behind DfsCluster's hottest-brick,
// max-fraction and least-capacity queries. Every answer must equal a strict
// scan in id order (the first, i.e. smallest, id wins ties).

#include "src/common/tournament_tree.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>

#include "src/common/rng.h"
#include "src/dfs/types.h"

namespace themis {
namespace {

using MaxTree = TournamentTree<double, std::greater<>>;
using MinTree = TournamentTree<uint64_t, std::less<>>;

// The id a strict scan in ascending id order picks: the first key that
// beats every earlier one.
template <typename Key, typename Beats>
uint32_t ScanTop(const std::map<uint32_t, Key>& keys) {
  uint32_t best = kInvalidNode;
  for (const auto& [id, key] : keys) {
    if (best == kInvalidNode || Beats{}(key, keys.at(best))) {
      best = id;
    }
  }
  return best;
}

TEST(TournamentTreeTest, EmptyTreeHasNoTop) {
  MaxTree max_tree;
  EXPECT_TRUE(max_tree.empty());
  EXPECT_EQ(max_tree.Top(), kInvalidBrick);
  max_tree.Clear(5);
  EXPECT_EQ(max_tree.Top(), kInvalidBrick);
  max_tree.Erase(7);  // absent: a no-op
  EXPECT_EQ(max_tree.Top(), kInvalidBrick);

  MinTree min_tree;
  min_tree.Clear(1, /*span=*/8);
  EXPECT_EQ(min_tree.Top(), kInvalidNode);
  min_tree.Set(3, 10);
  min_tree.Erase(3);
  EXPECT_TRUE(min_tree.empty());
  EXPECT_EQ(min_tree.Top(), kInvalidNode);
  // A bulk load of nothing releases to an empty tree.
  min_tree.Hold();
  min_tree.Release();
  EXPECT_EQ(min_tree.Top(), kInvalidNode);
}

TEST(TournamentTreeTest, TiesGoToTheSmallestId) {
  MaxTree tree;
  tree.Clear(1);
  for (uint32_t id : {9u, 4u, 7u, 12u, 5u}) {
    tree.Set(id, 0.5);
  }
  EXPECT_EQ(tree.Top(), 4u);
  EXPECT_EQ(tree.TopKey(), 0.5);
  tree.Set(12, 0.75);
  EXPECT_EQ(tree.Top(), 12u);
  tree.Set(6, 0.75);  // ties the holder with a smaller id
  EXPECT_EQ(tree.Top(), 6u);

  MinTree min_tree;
  min_tree.Clear(1);
  for (uint32_t id : {8u, 3u, 11u, 2u}) {
    min_tree.Set(id, 480);
  }
  EXPECT_EQ(min_tree.Top(), 2u);
  min_tree.Set(11, 240);
  EXPECT_EQ(min_tree.Top(), 11u);
  min_tree.Set(8, 240);
  EXPECT_EQ(min_tree.Top(), 8u);
}

TEST(TournamentTreeTest, RemovingTheHolderPromotesTheNextBest) {
  MaxTree tree;
  tree.Clear(1);
  tree.Set(1, 0.2);
  tree.Set(2, 0.9);
  tree.Set(3, 0.9);
  tree.Set(4, 0.4);
  EXPECT_EQ(tree.Top(), 2u);
  tree.Erase(2);
  EXPECT_EQ(tree.Top(), 3u);
  tree.Set(3, 0.1);  // the holder falls below the others
  EXPECT_EQ(tree.Top(), 4u);
  tree.Erase(4);
  EXPECT_EQ(tree.Top(), 1u);

  MinTree min_tree;
  min_tree.Clear(10);
  min_tree.Set(10, 5);
  min_tree.Set(11, 1);
  min_tree.Set(12, 1);
  EXPECT_EQ(min_tree.Top(), 11u);
  min_tree.Erase(11);
  EXPECT_EQ(min_tree.Top(), 12u);
  min_tree.Set(12, 9);  // the holder rises above the others
  EXPECT_EQ(min_tree.Top(), 10u);
}

TEST(TournamentTreeTest, GrowsPastPowersOfTwo) {
  MaxTree tree;
  tree.Clear(1, /*span=*/3);
  std::map<uint32_t, double> keys;
  // Ascending ids with a repeating key pattern: each growth (3, 4, 6, 9,
  // ... leaves) re-plays the matches over leaf counts that are and are not
  // powers of two.
  for (uint32_t id = 1; id <= 1100; ++id) {
    double key = static_cast<double>((id * 37) % 64) / 64.0;
    tree.Set(id, key);
    keys[id] = key;
    ASSERT_EQ(tree.Top(), (ScanTop<double, std::greater<>>(keys))) << "after set " << id;
  }
  // Erase every holder in turn.
  while (!keys.empty()) {
    uint32_t top = tree.Top();
    ASSERT_EQ(top, (ScanTop<double, std::greater<>>(keys)));
    tree.Erase(top);
    keys.erase(top);
  }
  EXPECT_EQ(tree.Top(), kInvalidBrick);
}

// Random point updates, bulk loads and re-bases against the scan.
TEST(TournamentTreeTest, RandomUpdatesMatchTheScan) {
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    MinTree tree;
    std::map<uint32_t, uint64_t> keys;
    uint32_t first = 1;
    tree.Clear(first);
    for (int step = 0; step < 20000; ++step) {
      uint64_t roll = rng.NextBelow(100);
      if (roll < 1) {
        // A reset retires every id below the new base.
        first += static_cast<uint32_t>(rng.NextBelow(300));
        tree.Clear(first, rng.NextBelow(64));
        keys.clear();
      } else if (roll < 3) {
        // A bulk load: leaves only, then one release.
        tree.Hold();
        for (int i = 0; i < 50; ++i) {
          uint32_t id = first + static_cast<uint32_t>(rng.NextBelow(700));
          uint64_t key = rng.NextBelow(8);
          tree.Set(id, key);
          keys[id] = key;
        }
        tree.Release();
      } else if (roll < 60) {
        uint32_t id = first + static_cast<uint32_t>(rng.NextBelow(700));
        uint64_t key = rng.NextBelow(8);  // few distinct keys: many ties
        tree.Set(id, key);
        keys[id] = key;
      } else {
        uint32_t id = first + static_cast<uint32_t>(rng.NextBelow(700));
        tree.Erase(id);
        keys.erase(id);
      }
      uint32_t want = ScanTop<uint64_t, std::less<>>(keys);
      ASSERT_EQ(tree.Top(), want) << "seed " << seed << " step " << step;
      if (want != kInvalidNode) {
        ASSERT_EQ(tree.TopKey(), keys.at(want));
      }
    }
  }
}

}  // namespace
}  // namespace themis

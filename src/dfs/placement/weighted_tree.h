// HDFS-style load-weighted target selection.
//
// Mirrors the NameNode's sortByLoad (paper Fig. 4): targets are bucketed into
// a TreeMap keyed by a coarse load weight; buckets are traversed from light
// to heavy, and targets inside a bucket (kept in insertion order) are
// shuffled so equally loaded nodes share new blocks. The paper's HDFS-13279 bug lives exactly here — a stale
// membership entry sorted into the array makes the migration calculation
// wrong — so the flavor feeds this structure from its (possibly stale)
// cluster map.

#ifndef SRC_DFS_PLACEMENT_WEIGHTED_TREE_H_
#define SRC_DFS_PLACEMENT_WEIGHTED_TREE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/dfs/types.h"

namespace themis {

struct WeightedTarget {
  BrickId brick = kInvalidBrick;
  double used_fraction = 0.0;  // load signal
};

class WeightedTree {
 public:
  // `buckets` controls how coarse the weight quantization is (HDFS uses
  // integer weights; we quantize used-fraction into this many levels).
  explicit WeightedTree(int buckets = 20);

  void Clear();
  void Insert(const WeightedTarget& target);

  // Sorted light-to-heavy target list with in-bucket shuffling. A counting
  // sort into buffers the tree keeps, so a tree reused across calls sorts
  // without allocating; the reference is valid until the next non-const
  // call.
  const std::vector<BrickId>& SortByLoad(Rng& rng);

  // First `n` distinct targets of SortByLoad.
  std::vector<BrickId> ChooseLeastLoaded(int n, Rng& rng);

  size_t size() const { return inserted_.size(); }

 private:
  int buckets_;
  std::vector<std::pair<int, BrickId>> inserted_;  // (weight bucket, target)
  std::vector<size_t> bucket_start_;               // counting-sort offsets
  std::vector<BrickId> sorted_;
};

}  // namespace themis

#endif  // SRC_DFS_PLACEMENT_WEIGHTED_TREE_H_

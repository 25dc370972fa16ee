// Consistent-hash ring with virtual nodes (LeoFS-style placement).
//
// Each target (brick) is inserted at `vnodes` pseudo-random points on a
// 64-bit ring; an object key is placed on the first target clockwise from
// its hash, replicas on the next distinct targets. Adding or removing a
// target moves only the keys in the affected arcs — the property LeoFS's
// rebalance relies on.
//
// The ring is one vector of (position, target) points sorted by position:
// a lookup is a binary search, and re-planting a target is a merge or an
// erase over a few hundred points instead of node-by-node tree surgery.

#ifndef SRC_DFS_PLACEMENT_HASH_RING_H_
#define SRC_DFS_PLACEMENT_HASH_RING_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/dfs/types.h"

namespace themis {

class HashRing {
 public:
  explicit HashRing(int vnodes_per_target = 64);

  // `weight` scales the target's share of the ring (its virtual-node count);
  // 1.0 = the configured vnodes_per_target.
  void AddTarget(BrickId target, double weight = 1.0);
  void RemoveTarget(BrickId target);
  // Virtual nodes currently planted for a target (0 if absent).
  int VnodeCount(BrickId target) const;
  bool HasTarget(BrickId target) const;
  size_t target_count() const { return targets_.size(); }

  // First `replicas` distinct targets clockwise from hash(key). Returns fewer
  // if the ring has fewer targets. Empty if the ring is empty.
  std::vector<BrickId> Locate(uint64_t key_hash, int replicas) const;

  // The primary target for a key (first element of Locate), or kInvalidBrick.
  BrickId Primary(uint64_t key_hash) const;

  std::vector<BrickId> Targets() const;

 private:
  struct Point {
    uint64_t pos;
    BrickId target;
  };

  // First point at or after `key_hash`, wrapping to the start.
  std::vector<Point>::const_iterator FirstAtOrAfter(uint64_t key_hash) const;

  int vnodes_;
  std::vector<Point> ring_;  // ascending position; positions are distinct
  // (target, planted vnode count), ascending target.
  std::vector<std::pair<BrickId, int>> targets_;
};

}  // namespace themis

#endif  // SRC_DFS_PLACEMENT_HASH_RING_H_

// CRUSH-style placement (CephFS flavor).
//
// Objects map to placement groups (PGs) by hash; each PG is mapped to an
// ordered set of targets with straw2 selection: every target draws
// ln(u) / weight for a deterministic pseudo-random u = hash(pg, round,
// target), and the largest draw wins. Weight changes move only a
// proportional share of PGs — CRUSH's signature property. An "upmap" overlay
// lets the balancer pin individual PGs elsewhere, mirroring Ceph's upmap
// balancer.
//
// Like Ceph's OSDMapMapping, the raw PG -> targets mapping is memoized and
// kept until a target weight really changes (a target added or removed, or
// a weight set to a different value); the upmap overlay is applied on top
// of the memo on every Map call.

#ifndef SRC_DFS_PLACEMENT_CRUSH_MAP_H_
#define SRC_DFS_PLACEMENT_CRUSH_MAP_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/dfs/types.h"

namespace themis {

class CrushMap {
 public:
  explicit CrushMap(uint32_t pg_count = 256);

  // weight<=0 removes; setting a target's current weight again is a no-op.
  void SetTargetWeight(BrickId target, double weight);
  void RemoveTarget(BrickId target);
  bool HasTarget(BrickId target) const;
  double TargetWeight(BrickId target) const;
  size_t target_count() const { return targets_.size(); }
  uint32_t pg_count() const { return pg_count_; }

  uint32_t PgOf(uint64_t object_hash) const { return object_hash % pg_count_; }

  // CRUSH mapping of `pg` onto `replicas` distinct targets (before upmap).
  std::vector<BrickId> RawMap(uint32_t pg, int replicas) const;

  // Mapping after applying upmap overrides.
  std::vector<BrickId> Map(uint32_t pg, int replicas) const;

  // Balancer interface: pin a PG's primary to `target` / clear a pin.
  void Upmap(uint32_t pg, BrickId target);
  void ClearUpmap(uint32_t pg);
  void ClearAllUpmaps();
  size_t upmap_count() const { return upmaps_.size(); }
  const std::map<uint32_t, BrickId>& upmaps() const { return upmaps_; }

  std::vector<BrickId> Targets() const;

 private:
  struct Target {
    BrickId id;
    double weight;
    uint64_t mix;  // Mix64(id), the per-target half of the straw2 hash
  };

  std::vector<Target>::const_iterator FindTarget(BrickId target) const;
  // Appends straw2 picks to `out` (already holding the first out.size()
  // picks of `pg`) until it holds `want`.
  void Straw2(uint32_t pg, size_t want, std::vector<BrickId>& out) const;
  void Invalidate();

  uint32_t pg_count_;
  std::vector<Target> targets_;  // ascending id: straw2 ties go to the smaller id
  // pg -> the first picks of its raw mapping (empty = not computed yet).
  // Round r of straw2 depends only on the r earlier picks, so a memo of k
  // picks is the prefix of every longer mapping of that pg.
  mutable std::vector<std::vector<BrickId>> pg_memo_;
  std::map<uint32_t, BrickId> upmaps_;  // pg -> pinned primary
};

}  // namespace themis

#endif  // SRC_DFS_PLACEMENT_CRUSH_MAP_H_

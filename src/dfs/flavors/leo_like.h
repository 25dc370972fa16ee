// LeoFS-like cluster: objects are placed on a consistent-hash ring with
// virtual nodes; gateway (metadata) nodes front the storage cluster; ring
// changes enqueue an asynchronous rebalance that moves the affected arcs'
// objects (takeover / rebalance-list semantics).

#ifndef SRC_DFS_FLAVORS_LEO_LIKE_H_
#define SRC_DFS_FLAVORS_LEO_LIKE_H_

#include <map>
#include <string>
#include <vector>

#include "src/dfs/cluster.h"
#include "src/dfs/placement/hash_ring.h"

namespace themis {

class LeoLikeCluster : public DfsCluster {
 public:
  explicit LeoLikeCluster(ClusterConfig config = DefaultConfig());

  static ClusterConfig DefaultConfig();

  const HashRing& ring() const { return ring_; }
  // Ring key of chunk `chunk_index` of the file at `path`.
  static uint64_t ObjectHash(const std::string& path, uint32_t chunk_index);
  uint32_t balancer_crashes() const { return balancer_crashes_; }

 protected:
  std::vector<BrickId> PlaceChunk(const std::string& path, uint32_t chunk_index,
                                  uint64_t bytes) override;
  MigrationPlan BuildRebalancePlan() override;
  void OnTopologyChangedInternal() override;
  void OnNamespaceRenamed() override;
  void OnFileDeleted(FileId file) override;
  void OnTopologyCleared() override;
  // Env-fault crash model (DESIGN.md §14): the ring is persisted per node in
  // LeoFS; a restarted manager reloads it from the stored plantings instead
  // of recomputing from capacity (which would lose the hysteresis history).
  void OnBalancerCrashed() override;
  void OnBalancerRestarted() override;
  bool ChunkPinnedToBrick(FileId file, uint32_t chunk_index, BrickId brick) const override;
  // Checkpointing: planted ring weights are history-dependent (the ±25%/−20%
  // hysteresis in OnTopologyChangedInternal), so the ring is rebuilt from the
  // saved weights, not recomputed from capacity.
  void SaveFlavorState(SnapshotWriter& writer) const override;
  Status RestoreFlavorState(SnapshotReader& reader) override;

 private:
  // Object hashes of the first `chunks` chunks of a stored file, from the
  // cache when it holds them, else through one PathOf. Null when the file
  // has no path. The ring primary of a chunk is then one binary search.
  const uint64_t* ObjectHashes(FileId file, size_t chunks) const;
  BrickId PrimaryFor(FileId file, uint32_t chunk_index) const;

  HashRing ring_;
  std::map<BrickId, double> ring_weights_;  // weight each target was planted with
  uint32_t balancer_crashes_ = 0;           // env-fault crash census (persisted)
  // FileId -> object hashes of its chunks, in chunk order. PathOf (a tree
  // walk plus a string build) and the per-character hash dominate rebalance
  // planning and the leveler's pin checks. A hash depends only on the
  // file's path, not on the ring, so the table outlives ring re-plants: a
  // rename (which can re-path a whole subtree), a reset or restore (which
  // reuse FileIds) and the file's deletion drop entries. Never saved.
  mutable std::vector<std::vector<uint64_t>> object_hashes_;
};

}  // namespace themis

#endif  // SRC_DFS_FLAVORS_LEO_LIKE_H_

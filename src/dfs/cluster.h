// The DFS cluster simulator.
//
// `DfsInterface` is the black-box surface Themis (and every baseline) tests
// against: execute an operation, sample per-node load, trigger / query
// rebalance — exactly the two integration points (`operation.send()` and
// `LoadMonitor()`) plus the rebalance APIs that the paper's Interaction
// Adaptor uses (§5). `DfsCluster` is the shared simulator engine; the four
// flavors in src/dfs/flavors/ plug in their placement policy, balancer
// discipline and native balance threshold.

#ifndef SRC_DFS_CLUSTER_H_
#define SRC_DFS_CLUSTER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/tournament_tree.h"
#include "src/coverage/coverage.h"
#include "src/coverage/model_coverage.h"
#include "src/dfs/brick.h"
#include "src/dfs/id_table.h"
#include "src/dfs/load_sample.h"
#include "src/dfs/migration.h"
#include "src/dfs/namespace_tree.h"
#include "src/dfs/node.h"
#include "src/dfs/operation.h"
#include "src/dfs/types.h"
#include "src/telemetry/event_log.h"

namespace themis {

class DfsCluster;

// Fault-injection hooks. The cluster calls these at well-defined points; the
// default implementation is a no-op (healthy system). src/faults implements
// them to plant the paper's 10 new bugs and the 53-bug historical corpus.
class FaultHooks {
 public:
  virtual ~FaultHooks() = default;

  // After an operation has been executed (successfully or not).
  virtual void OnOperationExecuted(DfsCluster& dfs, const Operation& op,
                                   const OpResult& result) {
    (void)dfs;
    (void)op;
    (void)result;
  }

  // A rebalance plan was built and is about to be enqueued. Hooks may mutate
  // it (drop moves, redirect targets) — load-calculation bugs live here.
  virtual void OnRebalancePlanned(DfsCluster& dfs, MigrationPlan& plan) {
    (void)dfs;
    (void)plan;
  }

  // One chunk move is about to execute. Migration bugs live here.
  enum class MigrateVerdict {
    kProceed,   // execute normally
    kSkip,      // silently skip the move (data stays put -> hotspot)
    kLoseData,  // remove from source without writing destination
  };
  virtual MigrateVerdict OnMigrateChunk(DfsCluster& dfs, const ChunkMove& move) {
    (void)dfs;
    (void)move;
    return MigrateVerdict::kProceed;
  }

  // A rebalance round finished draining.
  virtual void OnRebalanceDone(DfsCluster& dfs) { (void)dfs; }

  // Should the balancer trigger be suppressed right now? (hang faults)
  virtual bool SuppressRebalance(const DfsCluster& dfs) {
    (void)dfs;
    return false;
  }

  // Membership / volume topology changed.
  virtual void OnTopologyChanged(DfsCluster& dfs) { (void)dfs; }

  // Should this node's metadata anti-entropy be stalled? (metadata-desync
  // faults, the §7 extension)
  virtual bool SuppressMetadataSync(const DfsCluster& dfs, NodeId node) {
    (void)dfs;
    (void)node;
    return false;
  }

  // The cluster was reset to its initial state (after a confirmed failure).
  virtual void OnClusterReset(DfsCluster& dfs) { (void)dfs; }
};

// Environment-fault runtime (DESIGN.md §14). FaultHooks plant *bugs* —
// latent defects in balancer logic; this models the *environment* turning
// hostile: lossy/reordering networks, slow disks, node crashes followed by
// scheduled restarts. The cluster consults it at its message, disk and clock
// touch points. A null runtime (the default, and every fault-free campaign)
// leaves every path byte-identical, so wiring the hooks in cannot perturb
// fault-free digests.
class EnvFaultRuntime {
 public:
  virtual ~EnvFaultRuntime() = default;

  // Executes one env_fault grammar operation (Execute dispatches kEnv* ops
  // here instead of routing them to a metadata node — they are environment
  // controls, not client requests).
  virtual OpResult ExecuteEnvOp(DfsCluster& dfs, const Operation& op) = 0;

  // Verdict for one queued migration message (a chunk-move RPC) as it
  // reaches the head of the transfer queue.
  enum class MessageVerdict : uint8_t {
    kDeliver = 0,  // normal delivery
    kDrop,         // message lost: the move silently disappears
    kReorder,      // delivery deferred: the move rotates to the queue tail
    kDuplicate,    // delivered now, and a stale copy arrives again later
    kCorrupt,      // payload corrupt: bandwidth burned, nothing written
  };
  virtual MessageVerdict OnMigrationMessage(DfsCluster& dfs, const ChunkMove& move) {
    (void)dfs;
    (void)move;
    return MessageVerdict::kDeliver;
  }

  // Should this round's anti-entropy heartbeat toward `node` be lost?
  virtual bool DropHeartbeat(DfsCluster& dfs, NodeId node) {
    (void)dfs;
    (void)node;
    return false;
  }

  // Migration-throughput divisor for `node`'s disks (1.0 = healthy; a slow
  // disk makes every byte moved through the node cost `factor` budget bytes).
  virtual double DiskSlowdown(const DfsCluster& dfs, NodeId node) const {
    (void)dfs;
    (void)node;
    return 1.0;
  }

  // Virtual time advanced to `now`: fire scheduled events (crash restarts,
  // slow-disk window expiries).
  virtual void OnClockAdvanced(DfsCluster& dfs, SimTime now) {
    (void)dfs;
    (void)now;
  }

  // True while a scheduled crash-restart has not fired yet — the executor's
  // crash-recovery double-check waits this out before judging LBS.
  virtual bool RecoveryPending(const DfsCluster& dfs) const {
    (void)dfs;
    return false;
  }

  // The cluster was reset to its initial state: drop all injected fault
  // state (message rates, slow disks, pending restarts).
  virtual void OnClusterReset(DfsCluster& dfs) { (void)dfs; }
};

// What the testing tools see. Kept intentionally narrow: real deployments
// expose exactly this via FUSE + admin CLIs.
class DfsInterface {
 public:
  virtual ~DfsInterface() = default;

  virtual OpResult Execute(const Operation& op) = 0;

  // ---- load observation (DESIGN.md §13) ----
  // The primary observation surface is push/streaming: the cluster maintains
  // windowed per-dimension aggregates incrementally at every load mutation,
  // and SnapshotLoadStats reads them in O(1) — no per-node scan, no
  // allocation. AdvanceLoadWindow closes the current rate window (the states
  // monitor calls it after folding a snapshot into the variance model, the
  // push-era equivalent of remembering the previous cumulative sample).
  // Adapters that do not stream keep the defaults; consumers then fall back
  // to the SampleLoadInto scan path.
  virtual bool SnapshotLoadStats(LoadStatsSnapshot& out) const {
    (void)out;
    return false;
  }
  virtual void AdvanceLoadWindow() {}

  // Debug/oracle pull path: a full per-node scan of cumulative counters.
  // The streaming aggregates must match what the variance model derives
  // from this scan bit-for-bit (tests/streaming_stats_test.cc); failure
  // reports and ground-truth checks also read it for per-node detail.
  virtual void SampleLoadInto(std::vector<LoadSample>& out) const = 0;
  // Copying convenience wrapper over SampleLoadInto for cold callers
  // (reports, tests); deliberately non-virtual.
  std::vector<LoadSample> SampleLoad() const {
    std::vector<LoadSample> out;
    SampleLoadInto(out);
    return out;
  }

  // Admin APIs (paper §4.3: most DFSes provide rebalance / rebalance-state).
  virtual Status TriggerRebalance() = 0;
  virtual bool RebalanceDone() const = 0;

  // Admin views used to instantiate operands (gluster volume info, hdfs
  // dfsadmin -report, ...). Each returns its ids in strictly ascending
  // order; InputModel's membership checks binary-search these lists.
  virtual std::vector<NodeId> ListMetaNodes() const = 0;
  virtual std::vector<NodeId> ListStorageNodes() const = 0;
  virtual std::vector<BrickId> ListBricks() const = 0;
  virtual uint64_t FreeSpaceBytes() const = 0;
  // Sum of serving brick capacities. 0 means "unknown" (adapters that do not
  // track capacity); consumers treat unknown as "do not reason about space".
  virtual uint64_t TotalCapacityBytes() const { return 0; }

  // Monotonic counter that advances whenever the admin list views above may
  // have changed membership. Consumers (InputModel::SyncFromDfs) skip the
  // list copies while the epoch is unchanged. kMembershipEpochUnknown means
  // the implementation does not track membership; re-pull every time.
  static constexpr uint64_t kMembershipEpochUnknown = ~0ull;
  virtual uint64_t MembershipEpoch() const { return kMembershipEpochUnknown; }

  virtual SimTime Now() const = 0;
  // Lets a tester wait (background migration keeps progressing).
  virtual void AdvanceTime(SimDuration delta) = 0;

  // Environment-fault recovery: true while a scheduled crash-restart (or the
  // balancer resume it gates) has not completed. Fault-free adapters keep
  // the default — the crash-recovery double-check then never waits.
  virtual bool EnvRecoveryPending() const { return false; }

  virtual void ResetToInitial() = 0;
  virtual Flavor flavor() const = 0;
  virtual std::string_view name() const = 0;

  // Diagnostic snapshot of the storage topology (for failure reports).
  virtual std::string DescribeState() const { return {}; }
};

struct ClusterConfig {
  int initial_storage_nodes = 8;
  int initial_meta_nodes = 2;
  uint64_t brick_capacity = 480 * kGiB;
  int replication = 2;
  uint64_t chunk_size = 2 * kGiB;      // stripe unit (chunks stay migratable)
  // EFBIG-style admission cap on a single file (0 = unlimited). Production
  // flavors set this: without it, a boundary "write the whole free space"
  // scenario on a petabyte fleet turns one create into hundreds of thousands
  // of chunk placements — per-op cost would scale with fleet capacity.
  uint64_t max_file_size = 0;
  double native_threshold = 0.10;      // balance tolerance (max/mean - 1)
  bool continuous_balancing = false;   // CephFS balances in real time
  SimDuration balancer_period = Minutes(5);  // periodic flavors
  uint64_t migration_bandwidth_per_s = 1536 * kMiB;
  uint64_t client_bandwidth_per_s = 2 * kGiB;
  SimDuration base_op_latency = Millis(500);
  int min_storage_nodes = 4;
  int max_storage_nodes = 16;
  int min_meta_nodes = 1;
  int max_meta_nodes = 5;
  uint64_t rng_seed = 1;
  // ---- GeoFS geotag topology (0 everywhere else) ----
  int geo_sites = 0;           // sites in the geotag tree
  int geo_racks_per_site = 0;  // racks under each site
  int geo_group_size = 0;      // scheduling-group capacity, in nodes
};

class DfsCluster : public DfsInterface {
 public:
  DfsCluster(ClusterConfig config, Flavor flavor, std::string cluster_name);
  ~DfsCluster() override = default;

  DfsCluster(const DfsCluster&) = delete;
  DfsCluster& operator=(const DfsCluster&) = delete;

  // ---- DfsInterface ----
  OpResult Execute(const Operation& op) override;
  bool SnapshotLoadStats(LoadStatsSnapshot& out) const override;
  void AdvanceLoadWindow() override;
  void SampleLoadInto(std::vector<LoadSample>& out) const override;
  Status TriggerRebalance() override;
  // A crashed balancer (env fault) is "not done": the round it was running
  // is suspended until its node restarts and the resume re-triggers it.
  bool RebalanceDone() const override {
    return !rebalance_active_ && move_queue_.empty() && !balancer_crashed_ &&
           !balancer_resume_pending_;
  }
  std::vector<NodeId> ListMetaNodes() const override { return serving_meta_nodes_; }
  std::vector<NodeId> ListStorageNodes() const override { return serving_storage_nodes_; }
  std::vector<BrickId> ListBricks() const override { return serving_bricks_; }
  uint64_t FreeSpaceBytes() const override;
  uint64_t MembershipEpoch() const override { return membership_epoch_; }
  // Monotonic counter bumped by every mutation a TakeReplicas walk can see:
  // brick bytes and capacities, brick online and node serving flags, and
  // replica-index entries. While it is unchanged, a walk that moved nothing
  // would move nothing again. Never saved; only equality is meaningful.
  uint64_t PlacementEpoch() const { return placement_epoch_; }
  SimTime Now() const override { return clock_.now(); }
  void AdvanceTime(SimDuration delta) override;
  void ResetToInitial() override;
  Flavor flavor() const override { return flavor_; }
  std::string_view name() const override { return name_; }
  std::string DescribeState() const override;

  bool EnvRecoveryPending() const override;

  // ---- wiring ----
  void set_fault_hooks(FaultHooks* hooks) { hooks_ = hooks; }
  void set_env_faults(EnvFaultRuntime* env) { env_ = env; }
  EnvFaultRuntime* env_faults() const { return env_; }
  void set_coverage(CoverageRecorder* cov) { cov_ = cov; }
  CoverageRecorder* coverage() const { return cov_; }
  // Balancer state-machine transition recorder (DESIGN.md §16); null
  // disables emission. Recording draws no RNG: attaching it never changes
  // cluster behavior.
  void set_model_coverage(ModelCoverage* model_cov) { model_cov_ = model_cov; }
  ModelCoverage* model_coverage() const { return model_cov_; }
  // Campaign event sink for rebalance-round telemetry; null disables it.
  void set_telemetry(EventLog* telemetry) { telemetry_ = telemetry; }

  // ---- introspection (flavors, faults, tests, ground truth) ----
  const ClusterConfig& config() const { return config_; }
  const NamespaceTree& tree() const { return tree_; }
  // Ascending-id views of the topology and the file layouts. Removed
  // storage and metadata nodes stay listed (offline tombstones); GC'd
  // bricks and deleted files do not.
  auto bricks() const {
    return IdRange<BrickId, BrickSlot, &BrickSlot::Get<const BrickSlot>>(bricks_);
  }
  auto storage_nodes() const {
    return IdRange<NodeId, NodeRecord, &NodeRecord::Storage<const NodeRecord>>(nodes_);
  }
  auto meta_nodes() const {
    return IdRange<NodeId, NodeRecord, &NodeRecord::Meta<const NodeRecord>>(nodes_);
  }
  auto file_layouts() const { return IdRange<FileId, LayoutSlot, &LayoutOf>(layouts_); }

  // O(1) lookups into the dense tables; null when the id names nothing of
  // that kind. These sit on the placement/migration hot path at millions of
  // calls per campaign — keep them inline.
  Brick* FindBrick(BrickId id) { return BrickSlot::Get(bricks_.Find(id)); }
  const Brick* FindBrick(BrickId id) const { return BrickSlot::Get(bricks_.Find(id)); }
  StorageNode* FindStorageNode(NodeId id) { return NodeRecord::Storage(nodes_.Find(id)); }
  const StorageNode* FindStorageNode(NodeId id) const {
    return NodeRecord::Storage(nodes_.Find(id));
  }
  MetaNode* FindMetaNode(NodeId id) { return NodeRecord::Meta(nodes_.Find(id)); }
  const MetaNode* FindMetaNode(NodeId id) const { return NodeRecord::Meta(nodes_.Find(id)); }
  NodeBase* FindNode(NodeId id) {  // either kind
    return const_cast<NodeBase*>(std::as_const(*this).FindNode(id));
  }
  const NodeBase* FindNode(NodeId id) const { return NodeRecord::Base(nodes_.Find(id)); }
  const FileLayout* FindLayout(FileId file) const { return LayoutOf(layouts_.Find(file)); }
  // Chunk `index` of `file`; null when the file or the chunk is gone.
  ChunkPlacement* FindChunk(FileId file, uint32_t index) {
    return const_cast<ChunkPlacement*>(std::as_const(*this).FindChunk(file, index));
  }
  const ChunkPlacement* FindChunk(FileId file, uint32_t index) const {
    const FileLayout* layout = FindLayout(file);
    return layout != nullptr && index < layout->chunks.size() ? &layout->chunks[index]
                                                              : nullptr;
  }

  // Serving (online, not crashed, not draining) bricks. The returned
  // reference points at the maintained load index and stays valid until the
  // next membership mutation (brick/node add/remove/crash/restart); copy it
  // before mutating topology mid-iteration.
  const std::vector<BrickId>& ServingBricks() const { return serving_bricks_; }
  const std::vector<NodeId>& ServingStorageNodeIds() const { return serving_storage_nodes_; }

  // The hottest serving brick (max UsedFraction, smallest brick id on ties)
  // — the fault injector's hotspot probe and victim pick. The top of a
  // tournament tree over ServingBricks(), once the bricks changed since the
  // last read are re-keyed; exact against the flat scan. kInvalidBrick when
  // nothing serves.
  BrickId HottestServingBrick() const {
    RefreshHotBricks();
    return hot_brick_tree_.Top();
  }

  // The serving storage node whose bricks (offline and draining ones
  // included) add up to the least capacity, smallest id on ties — where
  // AddVolume attaches a volume whose requested node is not serving. O(1):
  // the top of a tournament tree over the serving nodes' capacity sums.
  // kInvalidNode when nothing serves.
  NodeId LeastCapacityServingNode() const { return least_cap_tree_.Top(); }

  uint64_t TotalCapacityBytes() const override { return fleet_cap_; }
  uint64_t TotalUsedBytes() const { return total_used_all_; }
  // Used bytes summed over serving bricks only (the balancers' view of fleet
  // utilization); TotalUsedBytes also counts draining/offline bricks.
  uint64_t TotalServingUsedBytes() const { return fleet_used_; }
  // Used bytes aggregated per serving storage node.
  std::vector<double> PerNodeUsedBytes() const;
  // Disk utilization (used/capacity) per serving storage node — the metric
  // real balancers level and `df` reports.
  std::vector<double> PerNodeUsedFraction() const;
  // Utilization spread (max - mean, in fraction points) over serving
  // storage nodes — the quantity balancers threshold on.
  double StorageImbalance() const;

  // Generic capacity-proportional leveling plan: moves chunks from bricks
  // above the fleet utilization (by more than `tolerance`) to bricks below
  // it. Flavors build their plans on top of / instead of this.
  // `extra_inflow` carries bytes the flavor's own plan section already
  // directed at each brick, so the combined plan respects one budget.
  // Chunks for which ChunkPinnedToBrick() holds are never moved — they sit
  // where the flavor's placement function says they belong, and moving them
  // would only make the next rebalance move them back.
  MigrationPlan PlanLevelingByUsage(
      double tolerance, const std::map<BrickId, uint64_t>* extra_inflow = nullptr) const;

  int completed_rebalance_rounds() const { return completed_rebalance_rounds_; }
  uint64_t rebalance_triggers() const { return rebalance_triggers_; }
  // Authoritative namespace mutation count; metadata replicas (MetaNode::
  // synced_epoch) trail it by at most the anti-entropy lag when healthy.
  uint64_t namespace_epoch() const { return namespace_epoch_; }
  uint64_t total_ops_executed() const { return total_ops_executed_; }
  uint64_t lost_bytes() const { return lost_bytes_; }

  // Replica index: chunks with a replica on `brick`. The reference stays
  // valid until a replica is added to or removed from `brick`.
  const std::vector<std::pair<FileId, uint32_t>>& ChunksOnBrickRef(BrickId brick) const;

  // ---- fault-effect mutators (used only by src/faults) ----
  void InjectCpuLoad(NodeId node, double cpu_seconds) {
    ChargeNode(node, 0, 0, 0, cpu_seconds);
  }
  void InjectNetLoad(NodeId node, uint64_t reads, uint64_t writes, uint64_t requests) {
    ChargeNode(node, requests, reads, writes, 0.0);
  }
  void CrashNode(NodeId node);
  // Moves `bytes` of stored data from `from` to `to` without a migration
  // round — models mis-placed / mis-migrated data accumulating on a hotspot.
  uint64_t SkewBytes(BrickId from, BrickId to, uint64_t bytes) {
    return FindBrick(to) == nullptr || from == to ? 0 : TakeReplicas(from, to, bytes);
  }
  // Deletes one replica without copying it anywhere (destructive unlink).
  void DestroyChunkReplica(FileId file, uint32_t chunk_index, BrickId brick);

  // ---- environment-fault mutators (used only by EnvFaultRuntime) ----
  // CrashNode plus balancer-halt semantics: an env crash of a metadata node
  // kills the balancer process mid-round — the round's queued rebalance
  // moves die with it, and the round resumes (from the flavor's persisted
  // state) only after RestartNode revives the node.
  void CrashNodeForEnvFault(NodeId node);
  // Reverses a crash: the node rejoins the serving set; a crashed balancer
  // restarts, reloads its persisted flavor state and re-triggers the
  // interrupted round.
  void RestartNode(NodeId node);
  bool balancer_crashed() const { return balancer_crashed_; }
  bool balancer_resume_pending() const { return balancer_resume_pending_; }

  // Virtual-time clock (shared with the campaign).
  VirtualClock& clock() { return clock_; }
  Rng& rng() { return rng_; }

  // ---- checkpointing (DESIGN.md §11) ----
  // Serializes the full mutable simulator state: clock, RNG, namespace,
  // topology tables, layouts, migration queue, balancer/rebalance counters and
  // the flavor's own state (via SaveFlavorState). Derived indexes (replica
  // index, load aggregates, class-window counters) are rebuilt on restore,
  // never serialized. Restore must be called on a freshly constructed
  // cluster with the same ClusterConfig and flavor.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 protected:
  // Flavor extension of SaveState/RestoreState: persistent flavor state that
  // cannot be recomputed from topology (Ceph upmaps, Leo ring weights,
  // Gluster linkfile census). Purely derived flavor state (HDFS cluster map,
  // Gluster DHT layout, CRUSH weights) is recomputed in RestoreFlavorState
  // instead.
  virtual void SaveFlavorState(SnapshotWriter& writer) const { (void)writer; }
  virtual Status RestoreFlavorState(SnapshotReader& reader) {
    (void)reader;
    return Status::Ok();
  }
  // ---- flavor extension points ----

  // Records a balancer state-machine transition (no-op without a recorder).
  // Flavors emit their planning phases from BuildRebalancePlan; the generic
  // lifecycle (move drain, settle, idle, crash, restart) is emitted by the
  // shared rebalance/crash paths in cluster.cc.
  void EmitBalancerState(BalancerState to) {
    if (model_cov_ != nullptr) {
      model_cov_->Transition(to);
    }
  }

  // Chooses replica bricks for one chunk of `path`. Must return serving
  // bricks with space, or empty to signal out-of-space.
  virtual std::vector<BrickId> PlaceChunk(const std::string& path, uint32_t chunk_index,
                                          uint64_t bytes) = 0;

  // Builds a migration plan that would bring the cluster back inside the
  // native threshold. Called by TriggerRebalance / the periodic balancer.
  virtual MigrationPlan BuildRebalancePlan() = 0;

  // Topology (nodes or bricks) changed: recompute layouts / rings / weights.
  virtual void OnTopologyChangedInternal() {}

  // A storage node was administratively decommissioned (remove_node op, as
  // opposed to a crash — crashed nodes may restart and keep their identity).
  // Fires before the topology-changed notification, with the node already
  // offline. Flavors that key state by node id can release it here in O(1)
  // instead of re-scanning the fleet on every topology change.
  virtual void OnStorageNodeDecommissioned(NodeId id) { (void)id; }

  // The topology is about to be rebuilt from scratch (construction or
  // ResetToInitial): flavors drop state keyed by node ids here, before the
  // initial nodes are re-added (GeoFS clears its geotag tree).
  virtual void OnTopologyCleared() {}

  // Flavor hook after a file rename (GlusterFS spawns linkfiles here).
  virtual void OnFileRenamed(FileId file, const std::string& from, const std::string& to) {
    (void)file;
    (void)from;
    (void)to;
  }

  // Flavor hook after a file was deleted (its layout already released).
  virtual void OnFileDeleted(FileId file) { (void)file; }

  // Flavor hook after ANY successful rename, including directory moves —
  // those re-path every descendant file without an OnFileRenamed call, so
  // flavors caching anything keyed by path must invalidate here.
  virtual void OnNamespaceRenamed() {}

  // Flavor hook when a rebalance round drains.
  virtual void OnRebalanceRoundDone() {}

  // The balancer process crashed mid-round (env crash of a metadata node).
  // Flavors persist whatever the real balancer writes to disk before dying
  // (upmap tables, layout census, ring weights); the base cluster keeps the
  // flavor state maps intact, so the default has nothing extra to save.
  virtual void OnBalancerCrashed() {}
  // The balancer restarted after a crash; flavors reload / revalidate their
  // persisted state here, before the interrupted round is re-triggered.
  virtual void OnBalancerRestarted() {}

  // True when this replica is exactly where the flavor's deterministic
  // placement (DHT range, hash ring) says it belongs; the generic leveler
  // then leaves it alone.
  virtual bool ChunkPinnedToBrick(FileId file, uint32_t chunk_index, BrickId brick) const {
    (void)file;
    (void)chunk_index;
    (void)brick;
    return false;
  }

  // Load-group assignment for a storage node being added (DESIGN.md §15).
  // The cluster keeps each group's serving members and (used, capacity)
  // sums for GeoFS's two-level placement. The default packs monotonically
  // assigned node ids into contiguous spans of kLoadGroupSpan; GeoFS
  // overrides it so the load groups coincide with its scheduling groups.
  // Called exactly once per node, from AddStorageNodeInternal; the
  // assignment is real state (persisted, snapshot v5), never recomputed.
  static constexpr uint32_t kLoadGroupSpan = 64;
  virtual uint32_t PickLoadGroup(NodeId id) { return id / kLoadGroupSpan; }

  // Brick capacity for a storage node being added. The default is the
  // homogeneous configured capacity; GeoFS overrides it to model a
  // heterogeneous-capacity fleet. Deterministic in the node id.
  virtual uint64_t BrickCapacityFor(NodeId id) const {
    (void)id;
    return config_.brick_capacity;
  }

  // ---- services available to flavors ----
  // Builds the initial topology; flavors call this at the end of their
  // constructor (virtual dispatch to OnTopologyChangedInternal is live by
  // then) and it backs ResetToInitial().
  void BuildInitialTopology();
  BrickId NewBrickOnNode(NodeId node, uint64_t capacity);
  NodeId AddStorageNodeInternal(uint64_t brick_capacity);
  // Balance check driven after each operation (periodic or continuous).
  void MaybeTriggerBalancer();
  // Runs OnTopologyChangedInternal + coverage + fault hooks.
  void NotifyTopologyChanged();

  // ---- incremental load accounting (DESIGN.md §10) ----
  // Every byte-level mutation of a brick goes through these two (and from
  // there through SetBrickBytes) so the running aggregates (per-node
  // used/capacity, fleet totals, imbalance) stay exact without per-op
  // rescans. Release clamps at zero, matching the `used -= min(used, bytes)`
  // idiom the scattered call sites used.
  void AccreteBrickBytes(Brick* brick, uint64_t bytes);
  void ReleaseBrickBytes(Brick* brick, uint64_t bytes);

  // ---- per-group load views (DESIGN.md §15) ----
  // Load group of a storage node (kInvalidLoadGroup before assignment).
  static constexpr uint32_t kInvalidLoadGroup = 0xffffffffu;
  uint32_t LoadGroupOf(NodeId id) const {
    return nodes_.Find(id) != nullptr ? nodes_[id].load_group : kInvalidLoadGroup;
  }
  // (used, capacity) bytes over one load group's serving nodes with online
  // capacity, read from maintained sums. This is the per-group index
  // GeoFS's two-level placement picks scheduling groups with.
  std::pair<uint64_t, uint64_t> LoadGroupUsedCap(uint32_t group) const {
    RefreshNodeFractions();
    return group < load_groups_.size()
               ? std::pair{load_groups_[group].used, load_groups_[group].cap}
               : std::pair<uint64_t, uint64_t>{0, 0};
  }
  // Serving storage nodes of one load group (sorted by id). The reference
  // stays valid until the next membership mutation.
  const std::vector<NodeId>& LoadGroupServingNodes(uint32_t group) const;

  ClusterConfig config_;

 private:
  // Operation handlers; ExecuteRequest dispatches a client request to one.
  OpResult ExecuteRequest(const Operation& op);
  OpResult DoCreate(const Operation& op);
  OpResult DoDelete(const Operation& op);
  OpResult DoAppend(const Operation& op);
  OpResult DoOverwrite(const Operation& op, bool truncate_first);
  OpResult DoOpen(const Operation& op);
  OpResult DoMkdir(const Operation& op);
  OpResult DoRmdir(const Operation& op);
  OpResult DoRename(const Operation& op);
  OpResult DoAddMetaNode(const Operation& op);
  OpResult DoRemoveMetaNode(const Operation& op);
  OpResult DoAddStorageNode(const Operation& op);
  OpResult DoRemoveStorageNode(const Operation& op);
  OpResult DoAddVolume(const Operation& op);
  OpResult DoRemoveVolume(const Operation& op);
  OpResult DoExpandVolume(const Operation& op);
  OpResult DoReduceVolume(const Operation& op);

  // Moves up to `bytes` of chunk replicas from `from` to `to` in
  // replica-index order, skipping chunks `to` has no room for or already
  // holds. Backs SkewBytes.
  uint64_t TakeReplicas(BrickId from, BrickId to, uint64_t bytes);
  // Places all chunks for `size` bytes of `path`; rolls back on failure.
  Result<FileLayout> PlaceFile(const std::string& path, uint64_t size);
  // Frees brick bytes and replica-index entries held by `layout`.
  void ReleaseLayout(FileId file, const FileLayout& layout);
  void EraseLayout(FileId file);  // ReleaseLayout, then drop the layout
  void IndexLayout(FileId file, const FileLayout& layout);
  void ChargeLayoutIo(const FileLayout& layout, bool is_write);

  // FreeSpaceBytes without `brick`'s share (what remains if it leaves).
  uint64_t FreeSpaceWithout(const Brick& brick) const;
  // Routes the request to a serving metadata node; returns kInvalidNode if
  // none are alive.
  NodeId RouteToMetaNode(const Operation& op);

  // Queues a move for each chunk replica on `brick`, in replica-index
  // order, to the target PickRecoveryTarget picks, until `limit` bytes are
  // scheduled. Recovery re-replicates a removed node's bricks, evacuation
  // drains a removed brick or the overflow of a shrunken one. Runs inside
  // the caller's BeginRecoveryPass.
  void ScheduleMoves(BrickId brick, MoveReason reason, uint64_t limit = UINT64_MAX);

  // Background migration: processes `dt` worth of queued chunk moves.
  void AdvanceBackground(SimDuration dt);
  void ExecuteMove(const ChunkMove& move);
  void FinishRebalanceIfDrained();

  void AddReplicaIndex(BrickId brick, FileId file, uint32_t chunk);
  void RemoveReplicaIndex(BrickId brick, FileId file, uint32_t chunk);

  // Candidate snapshot for recovery/evacuation target picking: the serving
  // bricks keyed by (utilization, serving order), taken once per pass. Each
  // per-chunk pick consumes only an ascending prefix, so the snapshot is a
  // min-heap popped lazily — O(bricks) to build plus O(log bricks) per
  // candidate actually inspected, never a full sort.
  struct RecoveryCandidate {
    double used_fraction;
    uint32_t order;  // index in ServingBricks() — the first-wins tie-break
    const Brick* brick;
  };
  // Heap comparator: true when `a` sorts after `b`. The (fraction, order)
  // key is a unique total order, so lazy heap pops replay exactly the fully
  // sorted sequence.
  static bool RecoveryCandidateAfter(const RecoveryCandidate& a,
                                     const RecoveryCandidate& b);
  void BeginRecoveryPass() const;
  // The rank-th least-used candidate of the current pass (pops lazily);
  // nullptr past the end.
  const RecoveryCandidate* RecoveryCandidateAt(size_t rank) const;
  // Picks a serving replacement brick for a chunk replica (placement-neutral
  // recovery used by evacuation / re-replication). Selects exactly the brick
  // the serving-order scan over UsedFraction() + same-node penalty would.
  BrickId PickRecoveryTarget(const ChunkPlacement& chunk, uint64_t bytes) const;

  // Returns op.path normalized, reusing op.path itself when it is already in
  // normalized form (the common case for generated operands) and a scratch
  // buffer otherwise — the flavor placement hashes consume these bytes, so
  // they must match NormalizePath(op.path) exactly.
  const std::string& NormalizedOpPath(const Operation& op);

  void RecordOpCoverage(const Operation& op, const OpResult& result);
  // 1..10: how many branches a state tuple unlocks at the current imbalance.
  int ImbalanceMultiplicity() const;

  // ---- load-index internals ----
  // The index is valid at every instant: each mutation below updates it in
  // place, in O(1) or O(bricks of one node).
  //
  // Empties every derived aggregate (topology reset, and the head of
  // RebuildLoadIndex) and starts a bulk load of the node trees, sized for
  // `nodes` ids from `first_node`: until ReleaseLoadTrees drains the node
  // queue into them, updates write only leaves, and the release plays every
  // match once (O(n), not O(n log n)). The brick queue waits for the first
  // HottestServingBrick() read.
  void ResetLoadIndex(NodeId first_node, size_t nodes, BrickId first_brick);
  void ReleaseLoadTrees();
  // Rebuilds every aggregate from the ground-truth node and brick tables.
  // Only RestoreState calls it: the node table holds every node ever
  // created, so a rebuild is O(all nodes ever) and never runs in steady
  // state.
  void RebuildLoadIndex();
  // The one funnel for brick byte and capacity changes: sets both and
  // applies the deltas to the node and fleet sums, queueing the node and
  // brick for the fraction sums and trees.
  void SetBrickBytes(Brick& brick, uint64_t used, uint64_t capacity);
  // Moves a storage node's all-brick capacity by `delta` (two's complement)
  // and its least-capacity leaf with it.
  void AddNodeCapAll(NodeId id, uint64_t delta);
  // Queue a storage node whose used_online, cap_online or serving flag
  // changed, or a brick whose fraction or serving state changed, for the
  // next read. Each is queued once until then, however often it changes.
  void MarkNodeStale(NodeId id);
  void MarkBrickStale(BrickId id);
  // Reads call these first. A queued node's last counted contribution
  // leaves the fleet FractionStats and its group's sums and its current one
  // joins them (a node counts while it serves with online capacity), and
  // its max-fraction leaf is rewritten; a queued brick's hot-brick leaf is
  // rewritten. O(queued · log n).
  void RefreshNodeFractions() const {
    if (!stale_nodes_.empty()) RefreshStaleNodes();
  }
  void RefreshHotBricks() const {
    if (!stale_bricks_.empty()) RefreshStaleBricks();
  }
  void RefreshStaleNodes() const;
  void RefreshStaleBricks() const;
  // Flips a brick's online flag. Offline bricks leave the node's online sums
  // and the fleet; they stay in the used-all sums until GC erases them.
  void SetBrickOnline(Brick& brick, bool online);
  // Moves one online brick of a serving node into or out of the fleet sums
  // and ServingBricks().
  void SetBrickInFleet(const Brick& brick, bool in);
  // Moves a node into or out of its kind's serving list and rate sums
  // (admission, crash, restart, decommission); a no-op when it is already
  // there. A storage node's online bricks join or leave the fleet but stay
  // in its per-node sums (SampleLoad reports crashed nodes' bricks).
  void SetNodeServing(NodeId id, bool serving);
  // Charges cumulative load counters to a storage or metadata node and
  // pushes the new rate-window deltas into the streaming aggregates.
  void ChargeNode(NodeId node, uint64_t requests, uint64_t reads, uint64_t writes,
                  double cpu_seconds);
  // Anti-entropy: serving metadata replicas catch up to the namespace epoch
  // (unless a fault stalls them).
  void SyncMetadataReplicas();
  SimDuration TransferCost(uint64_t bytes) const;
  SimDuration ParallelTransferCost(const FileLayout& layout) const;

  Flavor flavor_;
  std::string name_;
  VirtualClock clock_;
  Rng rng_;

  // ---- topology tables ----
  // Node, brick and file ids are small and never reused within a table's
  // lifetime, so each record lives in slot `id` of an IdTable (slot 0 and
  // ids retired by a reset stay vacant). Storage and metadata nodes share
  // one id space and one table.

  // Per-node load sums of the load index (DESIGN.md §10).
  struct NodeLoadAgg {
    uint64_t used_online = 0;  // bytes on this node's online bricks
    uint64_t cap_online = 0;   // capacity of this node's online bricks
    uint64_t used_all = 0;     // bytes on all of this node's bricks
    uint64_t cap_all = 0;      // capacity of all of this node's bricks
    bool serving = false;      // in its kind's serving list
    // What RefreshStaleNodes last added to the fraction sums (all 0 while
    // not counted; a counted node has online capacity), and whether the
    // node is queued for it. Never saved.
    mutable bool stale = false;
    mutable uint64_t counted_used = 0;
    mutable uint64_t counted_cap = 0;
    mutable uint64_t counted_ticks = 0;  // quantized used/cap fraction
  };
  // Windowed rate tracking of the cumulative compute/network counters
  // (DESIGN.md §13): the counters at the start of the current window and the
  // quantized deltas since. Bumping window_epoch_ invalidates every base in
  // O(1) and a node's first charge in the new window rebases it, so closing
  // a window never scans the fleet. Deltas are fixed-point integers
  // (src/common/stats.h), so the maintained sums are bit-identical to the
  // full-scan oracle's.
  struct NodeRateWindow {
    uint64_t epoch = 0;      // window_epoch_ the base belongs to
    double base_cpu = 0.0;   // cumulative cpu_seconds at window start
    double last_cpu = 0.0;   // cumulative cpu_seconds at last commit
    uint64_t base_net = 0;   // cumulative requests+read_ios+write_ios
    uint64_t cpu_ticks = 0;  // current window delta, quantized
    uint64_t net_delta = 0;  // current window delta
  };
  // One record per node id: the node itself and its load-index state.
  struct NodeRecord {
    std::variant<std::monostate, StorageNode, MetaNode> node;  // monostate: vacant
    NodeLoadAgg agg;
    NodeRateWindow window;
    uint32_t load_group = kInvalidLoadGroup;  // storage nodes; see AssignLoadGroup

    // The node `r` holds (R: NodeRecord or const NodeRecord); null when `r`
    // is null or holds no node of that kind. Base accepts either kind.
    template <typename R>
    static auto Storage(R* r) -> decltype(std::get_if<StorageNode>(&r->node)) {
      return r != nullptr ? std::get_if<StorageNode>(&r->node) : nullptr;
    }
    template <typename R>
    static auto Meta(R* r) -> decltype(std::get_if<MetaNode>(&r->node)) {
      return r != nullptr ? std::get_if<MetaNode>(&r->node) : nullptr;
    }
    static const NodeBase* Base(const NodeRecord* r) {
      if (const StorageNode* sn = Storage(r)) return sn;
      return Meta(r);
    }
  };
  struct BrickSlot {
    Brick brick;  // vacant while brick.id is kInvalidBrick
    // Replica index: the chunks with a replica on this brick, sorted by
    // (file, chunk) so scans run in a stable order over contiguous memory.
    std::vector<std::pair<FileId, uint32_t>> chunks;
    mutable bool stale = false;  // queued for RefreshStaleBricks

    template <typename S>  // BrickSlot or const BrickSlot
    static auto Get(S* s) -> decltype(&s->brick) {
      return s != nullptr && s->brick.id != kInvalidBrick ? &s->brick : nullptr;
    }
  };
  using LayoutSlot = std::optional<FileLayout>;
  static const FileLayout* LayoutOf(const LayoutSlot* slot) {
    return slot != nullptr && slot->has_value() ? &**slot : nullptr;
  }
  void AddMetaNodeInternal();
  // `file`'s layout, created empty when missing.
  FileLayout& LayoutFor(FileId file);

  NamespaceTree tree_;
  IdTable<NodeRecord> nodes_;
  IdTable<BrickSlot> bricks_;
  IdTable<LayoutSlot> layouts_;
  // Metadata nodes ever added, decommissioned ones included.
  uint64_t meta_node_count_ = 0;
  // Classes of the last 8 operations (coverage feature).
  std::deque<uint8_t> recent_classes_;

  NodeId next_node_id_ = 1;
  BrickId next_brick_id_ = 1;

  // Background migration queue (rebalance + recovery + evacuation).
  std::deque<ChunkMove> move_queue_;
  uint64_t current_move_done_bytes_ = 0;
  bool rebalance_active_ = false;
  uint64_t current_round_moves_ = 0;  // moves enqueued for the active round
  int completed_rebalance_rounds_ = 0;
  uint64_t rebalance_triggers_ = 0;
  SimTime last_balancer_check_ = 0;

  uint64_t total_ops_executed_ = 0;
  uint64_t lost_bytes_ = 0;
  uint64_t namespace_epoch_ = 0;

  FaultHooks* hooks_ = nullptr;
  EnvFaultRuntime* env_ = nullptr;
  CoverageRecorder* cov_ = nullptr;
  ModelCoverage* model_cov_ = nullptr;
  EventLog* telemetry_ = nullptr;

  // Balancer crash/resume state (env faults; DESIGN.md §14). Both are false
  // in every fault-free campaign — only CrashNodeForEnvFault sets them.
  bool balancer_crashed_ = false;
  bool balancer_resume_pending_ = false;

  // ---- incremental load accounting state ----
  // Integer running sums; every derived double (utilization fractions, the
  // imbalance spread) divides the same integers a from-scratch walk would
  // sum, so cached reads are bit-identical to recomputation.
  std::vector<BrickId> serving_bricks_;        // sorted by id
  std::vector<NodeId> serving_storage_nodes_;  // sorted by id
  uint64_t fleet_used_ = 0;      // over serving bricks
  uint64_t fleet_cap_ = 0;       // over serving bricks
  uint64_t fleet_overflow_ = 0;  // sum of max(0, used-cap), serving
  uint64_t total_used_all_ = 0;  // over every brick
  // Storage-dimension statistics over serving nodes with online capacity:
  // the sums the streaming LoadStatsSnapshot reports, moved by each node's
  // delta in RefreshStaleNodes. Integer sums are order-independent, so
  // they are bit-identical to a flat fleet walk.
  struct FractionStats {
    uint32_t nodes = 0;
    uint64_t used = 0;         // Σ used_online over `nodes`
    uint64_t cap = 0;          // Σ cap_online over `nodes`
    uint64_t frac_sum = 0;     // Σ quantized fraction, ticks
    Uint128 frac_sum_sq = 0;   // Σ quantized fraction², ticks²
  };
  mutable FractionStats fraction_stats_;
  mutable std::vector<NodeId> stale_nodes_;
  mutable std::vector<BrickId> stale_bricks_;
  // Largest used_online/cap_online over the counted nodes; 0 when none.
  double MaxNodeFraction() const {
    return node_fraction_tree_.empty() ? 0.0 : node_fraction_tree_.TopKey();
  }

  // ---- ordered load index (DESIGN.md §15) ----
  // Three tournament trees over the dense ids with O(log n) point updates;
  // ties go to the smallest id, exactly as a strict-max or strict-min scan
  // in id order. The first two are rewritten for the queued ids on read.
  // Counted nodes by fraction, largest first.
  mutable TournamentTree<double, std::greater<>> node_fraction_tree_;
  // ServingBricks() by UsedFraction(), hottest first.
  mutable TournamentTree<double, std::greater<>> hot_brick_tree_;
  // Serving storage nodes by cap_all, smallest first.
  TournamentTree<uint64_t, std::less<>> least_cap_tree_;
  static_assert(decltype(hot_brick_tree_)::kNone == kInvalidBrick);
  static_assert(decltype(least_cap_tree_)::kNone == kInvalidNode);

  // Per-load-group state for GeoFS placement: the serving members and the
  // (used, capacity) sums over the counted ones.
  struct LoadGroup {
    std::vector<NodeId> serving;  // serving members, sorted by id
    uint64_t used = 0;            // Σ used_online over counted members
    uint64_t cap = 0;             // Σ cap_online over counted members
  };
  // Group assignment (NodeRecord::load_group): real state, written once per
  // node by PickLoadGroup and persisted (snapshot v5) — GeoFS's assignment
  // is history-dependent. The group table is sized to the highest assigned
  // group + 1.
  void AssignLoadGroup(NodeId id);  // records PickLoadGroup(id)
  mutable std::vector<LoadGroup> load_groups_;
  // Serving metadata nodes, maintained at the (rare) membership changes so
  // per-op request routing / anti-entropy need not scan the ever-growing
  // node table (removed nodes stay in it as tombstones).
  std::vector<NodeId> serving_meta_nodes_;
  // The offline bricks, so the per-op drained-brick GC skips its sweep when
  // nothing is offline (the common case), and a long-lived drain (stuck
  // evacuation, under-replicated fleet) sweeps only its own bricks each op
  // instead of the whole ever-growing brick table. Entries leave when the GC
  // collects them.
  std::vector<BrickId> offline_brick_list_;
  // Bumped whenever the admin list views (serving meta/storage/brick lists)
  // may change membership; see DfsInterface::MembershipEpoch().
  uint64_t membership_epoch_ = 1;
  // See PlacementEpoch(). Starts at 1, so 0 never names a live epoch.
  uint64_t placement_epoch_ = 1;
  // Scratch for NormalizedOpPath (valid until the next call).
  std::string norm_scratch_;
  // Recovery-pass candidate stream: `recovery_sorted_` is the ascending
  // prefix popped so far, `recovery_heap_` a min-heap of the rest; both
  // empty until the pass's first candidate request.
  mutable std::vector<RecoveryCandidate> recovery_sorted_;
  mutable std::vector<RecoveryCandidate> recovery_heap_;
  // Scratch for PickRecoveryTarget's per-chunk replica-node set.
  mutable std::vector<NodeId> replica_nodes_scratch_;
  // Running view of the last-8-op class window (coverage feature); one slot
  // per OpClass (file, node, volume, env_fault).
  uint32_t class_counts_[4] = {0, 0, 0, 0};
  uint8_t recent_class_mask_ = 0;

  // ---- streaming load-stats state (DESIGN.md §13) ----
  // Per (node kind × dimension) window aggregate over the serving nodes.
  // Within a window a node's delta only grows (the counters are cumulative),
  // so the max is a plain monotone high-water mark — no ordered index, no
  // allocation; only the rare departure of the maximum (crash /
  // decommission) lowers it, and SetNodeInRateAggs rescans the serving list.
  struct RateDimAgg {
    uint64_t sum = 0;        // Σ delta, ticks
    Uint128 sum_sq = 0;      // Σ delta², ticks²
    uint64_t max_delta = 0;  // max over current members, ticks

    // Replaces one member's delta `from` with `to` (0 = not a member).
    void Update(uint64_t from, uint64_t to) {
      sum += to - from;
      sum_sq += static_cast<Uint128>(to) * to - static_cast<Uint128>(from) * from;
      max_delta = std::max(max_delta, to);
    }
  };
  struct RateAggs {
    RateDimAgg cpu_storage, cpu_meta, net_storage, net_meta;
  };
  RateDimAgg& RateAgg(bool is_storage, bool cpu_dim) {
    RateAggs& r = rate_aggs_;
    return is_storage ? (cpu_dim ? r.cpu_storage : r.net_storage)
                      : (cpu_dim ? r.cpu_meta : r.net_meta);
  }
  uint64_t WindowDelta(NodeId id, bool cpu_dim) const;
  // Adds or removes a node's current window deltas; the caller has already
  // updated the serving list a departing maximum is rescanned over.
  void SetNodeInRateAggs(NodeId id, bool is_storage, bool in);

  uint64_t window_epoch_ = 1;
  RateAggs rate_aggs_;
  // Count of nodes with crashed=true: the O(1) source of the snapshot's
  // any_crashed flag. Decremented only by RestartNode (env faults) and the
  // topology reset; fault-effect crashes (CrashNode) are permanent.
  int crashed_nodes_ = 0;
};

}  // namespace themis

#endif  // SRC_DFS_CLUSTER_H_

#include "src/dfs/cluster.h"

#include <algorithm>
#include <bit>

#include "src/common/log.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/telemetry/metrics.h"

namespace themis {

namespace {

// CPU cost model (virtual seconds of CPU work).
constexpr double kMetaCpuPerOp = 0.004;
constexpr double kStorageCpuPerGiB = 0.35;
constexpr double kBalancerCpuPerPlan = 0.05;
// One network IO is accounted per 64 MiB transferred (plus one per request).
constexpr uint64_t kBytesPerIo = 64 * kMiB;
// Minimum capacity a brick may be reduced to. Kept within one order of
// magnitude of the default brick so fraction-point balance targets remain
// achievable at chunk granularity (a 10 GiB brick next to 480 GiB peers can
// sit at 50% utilization holding a single chunk — no balancer can fix that).
constexpr uint64_t kMinBrickCapacity = 128 * kGiB;
// With replication 2, a donor brick's chunk is blocked from the one receiver
// that already holds its pair — leveling needs enough bricks that a second
// receiver always exists.
constexpr size_t kMinServingBricks = 5;

uint64_t IoCount(uint64_t bytes) { return 1 + bytes / kBytesPerIo; }

}  // namespace

DfsCluster::DfsCluster(ClusterConfig config, Flavor flavor, std::string cluster_name)
    : config_(config), flavor_(flavor), name_(std::move(cluster_name)),
      rng_(config.rng_seed) {}

void DfsCluster::BuildInitialTopology() {
  tree_.Clear();
  nodes_ = {};
  meta_node_count_ = 0;
  bricks_ = {};
  layouts_ = {};
  move_queue_.clear();
  current_move_done_bytes_ = 0;
  rebalance_active_ = false;
  current_round_moves_ = 0;
  last_balancer_check_ = clock_.now();
  recent_classes_.clear();
  class_counts_[0] = class_counts_[1] = class_counts_[2] = class_counts_[3] = 0;
  balancer_crashed_ = false;
  balancer_resume_pending_ = false;
  recent_class_mask_ = 0;
  offline_brick_list_.clear();
  serving_meta_nodes_.clear();
  window_epoch_ = 1;
  crashed_nodes_ = 0;
  load_groups_.clear();
  int storage_nodes = config_.initial_storage_nodes;
  ResetLoadIndex(next_node_id_, config_.initial_meta_nodes + storage_nodes, next_brick_id_);
  OnTopologyCleared();

  // The index starts empty; the admission paths below fill it.
  for (int i = 0; i < config_.initial_meta_nodes; ++i) {
    AddMetaNodeInternal();
  }
  for (int i = 0; i < storage_nodes; ++i) {
    AddStorageNodeInternal(BrickCapacityFor(next_node_id_));
  }
  ReleaseLoadTrees();
  OnTopologyChangedInternal();
}

void DfsCluster::ResetToInitial() {
  ++placement_epoch_;
  BuildInitialTopology();
  if (model_cov_ != nullptr) {
    model_cov_->ForceIdle();  // a topology rebuild is not a balancer action
  }
  namespace_epoch_ = 0;
  completed_rebalance_rounds_ = 0;
  rebalance_triggers_ = 0;
  lost_bytes_ = 0;
  if (hooks_ != nullptr) {
    hooks_->OnClusterReset(*this);
  }
  if (env_ != nullptr) {
    env_->OnClusterReset(*this);
  }
}

// ---------------------------------------------------------------------------
// Incremental load index
//
// Aggregates over bricks/nodes are maintained, not recomputed: the per-op
// read points (StorageImbalance in the balancer check and the coverage hash,
// SampleLoad in the monitor) run off integer running sums, while mutation
// points pay an O(1) delta (byte writes, charges) or an O(bricks-of-one-node)
// update (membership changes). The index is valid at every instant: removed
// nodes stay in the node table as tombstones, so anything that walks the
// whole table is O(all nodes ever created), and the one full rebuild runs only
// when a snapshot is restored. All sums are integers, so every cached double
// is bit-identical to a from-scratch walk (tests/cluster_cache_test.cc).

namespace {

uint64_t Excess(uint64_t used, uint64_t capacity) {
  return used > capacity ? used - capacity : 0;
}

// Inserts or erases `id` in a sorted id list; a no-op when it is already in
// the requested state. Ids are monotonic, so inserts are mostly appends.
template <typename Id>
void SetSortedMember(std::vector<Id>& ids, Id id, bool member) {
  auto pos = std::lower_bound(ids.begin(), ids.end(), id);
  bool present = pos != ids.end() && *pos == id;
  if (member && !present) {
    ids.insert(pos, id);
  } else if (!member && present) {
    ids.erase(pos);
  }
}

}  // namespace

void DfsCluster::ResetLoadIndex(NodeId first_node, size_t nodes, BrickId first_brick) {
  serving_bricks_.clear();
  serving_storage_nodes_.clear();
  fleet_used_ = 0;
  fleet_cap_ = 0;
  fleet_overflow_ = 0;
  total_used_all_ = 0;
  fraction_stats_ = FractionStats{};
  stale_nodes_.clear();
  stale_bricks_.clear();
  node_fraction_tree_.Clear(first_node, nodes);
  hot_brick_tree_.Clear(first_brick);
  least_cap_tree_.Clear(first_node, nodes);
  node_fraction_tree_.Hold();
  least_cap_tree_.Hold();
  for (LoadGroup& group : load_groups_) {
    group = LoadGroup{};
  }
  rate_aggs_ = RateAggs{};
}

void DfsCluster::ReleaseLoadTrees() {
  RefreshNodeFractions();
  node_fraction_tree_.Release();
  least_cap_tree_.Release();
}

void DfsCluster::RebuildLoadIndex() {
  ResetLoadIndex(static_cast<NodeId>(nodes_.first()), nodes_.size() - nodes_.first(),
                 static_cast<BrickId>(bricks_.first()));
  // The restored records start with empty sums; every brick is listed by
  // exactly one storage node.
  for (const auto& [id, node] : storage_nodes()) {
    NodeLoadAgg& agg = nodes_[id].agg;
    for (BrickId b : node.bricks) {
      const Brick* brick = FindBrick(b);
      if (brick == nullptr) {
        continue;
      }
      agg.used_all += brick->used_bytes;
      agg.cap_all += brick->capacity_bytes;
      if (brick->online) {
        agg.used_online += brick->used_bytes;
        agg.cap_online += brick->capacity_bytes;
      }
    }
    total_used_all_ += agg.used_all;
    if (node.Serving()) {
      SetNodeServing(id, true);
    }
  }
  // The serving metadata list is restored as saved; re-admit its members.
  std::vector<NodeId> serving_meta = std::move(serving_meta_nodes_);
  serving_meta_nodes_.clear();
  for (NodeId id : serving_meta) {
    SetNodeServing(id, true);
  }
  ReleaseLoadTrees();
  ++membership_epoch_;
}

uint64_t DfsCluster::WindowDelta(NodeId id, bool cpu_dim) const {
  const NodeRateWindow& window = nodes_[id].window;
  if (window.epoch != window_epoch_) {
    return 0;  // not charged this window: the base is the current counters
  }
  return cpu_dim ? window.cpu_ticks : window.net_delta;
}

void DfsCluster::SetNodeInRateAggs(NodeId id, bool is_storage, bool in) {
  const std::vector<NodeId>& members =
      is_storage ? serving_storage_nodes_ : serving_meta_nodes_;
  for (bool cpu_dim : {true, false}) {
    RateDimAgg& agg = RateAgg(is_storage, cpu_dim);
    uint64_t delta = WindowDelta(id, cpu_dim);
    if (in) {
      agg.Update(0, delta);
      continue;
    }
    agg.Update(delta, 0);
    // Only a departing maximum can lower the high-water mark.
    if (delta != 0 && delta == agg.max_delta) {
      agg.max_delta = 0;
      for (NodeId member : members) {
        agg.max_delta = std::max(agg.max_delta, WindowDelta(member, cpu_dim));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Load groups (DESIGN.md §15)
//
// Storage nodes are partitioned into load groups (id-range spans by default;
// GeoFS aligns them with scheduling groups via PickLoadGroup). Each group
// keeps its serving members and the (used, capacity) sums GeoFS placement
// reads; RefreshStaleNodes moves the sums with the fleet's.

void DfsCluster::AssignLoadGroup(NodeId id) {
  uint32_t group = PickLoadGroup(id);
  if (group == kInvalidLoadGroup) {
    group = 0;
  }
  nodes_[id].load_group = group;
  if (group >= load_groups_.size()) {
    load_groups_.resize(group + 1);
  }
}

const std::vector<NodeId>& DfsCluster::LoadGroupServingNodes(uint32_t group) const {
  static const std::vector<NodeId> kEmpty;
  return group < load_groups_.size() ? load_groups_[group].serving : kEmpty;
}

// ---------------------------------------------------------------------------
// Index updates

void DfsCluster::SetBrickBytes(Brick& brick, uint64_t used, uint64_t capacity) {
  ++placement_epoch_;
  // Two's-complement deltas: a decrease wraps, and the sums wrap back.
  uint64_t used_delta = used - brick.used_bytes;
  uint64_t cap_delta = capacity - brick.capacity_bytes;
  uint64_t over_delta =
      Excess(used, capacity) - Excess(brick.used_bytes, brick.capacity_bytes);
  brick.used_bytes = used;
  brick.capacity_bytes = capacity;
  total_used_all_ += used_delta;
  NodeLoadAgg& agg = nodes_[brick.node].agg;
  agg.used_all += used_delta;
  AddNodeCapAll(brick.node, cap_delta);
  if (!brick.online) {
    return;
  }
  agg.used_online += used_delta;
  agg.cap_online += cap_delta;
  if (agg.serving) {
    MarkNodeStale(brick.node);
    MarkBrickStale(brick.id);
    fleet_used_ += used_delta;
    fleet_cap_ += cap_delta;
    fleet_overflow_ += over_delta;
  }
}

void DfsCluster::AddNodeCapAll(NodeId id, uint64_t delta) {
  NodeLoadAgg& agg = nodes_[id].agg;
  agg.cap_all += delta;
  if (agg.serving && delta != 0) {
    least_cap_tree_.Set(id, agg.cap_all);
  }
}

void DfsCluster::MarkNodeStale(NodeId id) {
  NodeLoadAgg& agg = nodes_[id].agg;
  if (!agg.stale) {
    agg.stale = true;
    stale_nodes_.push_back(id);
  }
}

void DfsCluster::MarkBrickStale(BrickId id) {
  BrickSlot& slot = bricks_[id];
  if (!slot.stale) {
    slot.stale = true;
    stale_bricks_.push_back(id);
  }
}

void DfsCluster::RefreshStaleNodes() const {
  FractionStats& stats = fraction_stats_;
  for (NodeId id : stale_nodes_) {
    const NodeRecord& record = nodes_[id];
    const NodeLoadAgg& agg = record.agg;
    agg.stale = false;
    // Take out what the node last added (two's complement: the sums wrap
    // back exactly), then add what it holds now.
    LoadGroup& group = load_groups_[record.load_group];
    if (agg.counted_cap != 0) {
      stats.nodes -= 1;
      stats.used -= agg.counted_used;
      stats.cap -= agg.counted_cap;
      stats.frac_sum -= agg.counted_ticks;
      stats.frac_sum_sq -= static_cast<Uint128>(agg.counted_ticks) * agg.counted_ticks;
      group.used -= agg.counted_used;
      group.cap -= agg.counted_cap;
    }
    if (!agg.serving || agg.cap_online == 0) {
      agg.counted_used = agg.counted_cap = agg.counted_ticks = 0;
      node_fraction_tree_.Erase(id);
      continue;
    }
    double fraction =
        static_cast<double>(agg.used_online) / static_cast<double>(agg.cap_online);
    agg.counted_used = agg.used_online;
    agg.counted_cap = agg.cap_online;
    agg.counted_ticks = QuantizeLoadDelta(fraction, kUtilizationQuantum);
    node_fraction_tree_.Set(id, fraction);
    stats.nodes += 1;
    stats.used += agg.counted_used;
    stats.cap += agg.counted_cap;
    stats.frac_sum += agg.counted_ticks;
    stats.frac_sum_sq += static_cast<Uint128>(agg.counted_ticks) * agg.counted_ticks;
    group.used += agg.counted_used;
    group.cap += agg.counted_cap;
  }
  stale_nodes_.clear();
}

void DfsCluster::RefreshStaleBricks() const {
  for (BrickId id : stale_bricks_) {
    const BrickSlot& slot = bricks_[id];
    slot.stale = false;
    // Serving: online on a serving node. A GC'd slot is vacant.
    const Brick* brick = BrickSlot::Get(&slot);
    if (brick != nullptr && brick->online && nodes_[brick->node].agg.serving) {
      hot_brick_tree_.Set(id, brick->UsedFraction());
    } else {
      hot_brick_tree_.Erase(id);
    }
  }
  stale_bricks_.clear();
}

void DfsCluster::AccreteBrickBytes(Brick* brick, uint64_t bytes) {
  if (brick != nullptr && bytes != 0) {
    SetBrickBytes(*brick, brick->used_bytes + bytes, brick->capacity_bytes);
  }
}

void DfsCluster::ReleaseBrickBytes(Brick* brick, uint64_t bytes) {
  if (brick != nullptr && bytes != 0 && brick->used_bytes != 0) {
    SetBrickBytes(*brick, brick->used_bytes - std::min(brick->used_bytes, bytes),
                  brick->capacity_bytes);
  }
}

void DfsCluster::SetBrickInFleet(const Brick& brick, bool in) {
  uint64_t over = Excess(brick.used_bytes, brick.capacity_bytes);
  if (in) {
    fleet_used_ += brick.used_bytes;
    fleet_cap_ += brick.capacity_bytes;
    fleet_overflow_ += over;
  } else {
    fleet_used_ -= brick.used_bytes;
    fleet_cap_ -= brick.capacity_bytes;
    fleet_overflow_ -= over;
  }
  MarkBrickStale(brick.id);
  SetSortedMember(serving_bricks_, brick.id, in);
}

void DfsCluster::SetBrickOnline(Brick& brick, bool online) {
  brick.online = online;
  ++membership_epoch_;
  ++placement_epoch_;
  NodeLoadAgg& agg = nodes_[brick.node].agg;
  if (online) {
    agg.used_online += brick.used_bytes;
    agg.cap_online += brick.capacity_bytes;
  } else {
    offline_brick_list_.push_back(brick.id);
    agg.used_online -= brick.used_bytes;
    agg.cap_online -= brick.capacity_bytes;
  }
  if (agg.serving) {
    MarkNodeStale(brick.node);
    SetBrickInFleet(brick, online);
  }
}

void DfsCluster::SetNodeServing(NodeId id, bool serving) {
  ++membership_epoch_;
  ++placement_epoch_;
  NodeRecord& record = nodes_[id];
  if (record.agg.serving == serving) {
    return;
  }
  record.agg.serving = serving;
  const StorageNode* node = NodeRecord::Storage(&record);
  bool is_storage = node != nullptr;
  SetSortedMember(is_storage ? serving_storage_nodes_ : serving_meta_nodes_, id, serving);
  // The monitor only compares serving nodes, so the node's rate-window
  // deltas follow it into or out of the streaming aggregates.
  SetNodeInRateAggs(id, is_storage, serving);
  if (!is_storage) {
    return;
  }
  SetSortedMember(load_groups_[record.load_group].serving, id, serving);
  MarkNodeStale(id);
  if (serving) {
    least_cap_tree_.Set(id, record.agg.cap_all);
  } else {
    least_cap_tree_.Erase(id);
  }
  for (BrickId b : node->bricks) {
    const Brick* brick = FindBrick(b);
    if (brick != nullptr && brick->online) {
      SetBrickInFleet(*brick, serving);
    }
  }
}

uint64_t DfsCluster::FreeSpaceBytes() const {
  // capacity - sum(min(used, capacity)) over serving bricks; min(used, cap)
  // = used - max(0, used - cap), so the clamped sum falls out of the
  // maintained overflow aggregate.
  return fleet_cap_ - (fleet_used_ - fleet_overflow_);
}

uint64_t DfsCluster::FreeSpaceWithout(const Brick& brick) const {
  // The fleet aggregate sums the clamped FreeBytes of serving bricks; an
  // online brick is one of them exactly when its node serves.
  return FreeSpaceBytes() - (nodes_[brick.node].agg.serving ? brick.FreeBytes() : 0);
}

std::vector<double> DfsCluster::PerNodeUsedBytes() const {
  std::vector<double> out;
  out.reserve(serving_storage_nodes_.size());
  for (NodeId id : serving_storage_nodes_) {
    out.push_back(static_cast<double>(nodes_[id].agg.used_all));
  }
  return out;
}

std::vector<double> DfsCluster::PerNodeUsedFraction() const {
  std::vector<double> out;
  out.reserve(serving_storage_nodes_.size());
  for (NodeId id : serving_storage_nodes_) {
    const NodeLoadAgg& agg = nodes_[id].agg;
    if (agg.cap_online > 0) {
      out.push_back(static_cast<double>(agg.used_online) /
                    static_cast<double>(agg.cap_online));
    }
  }
  return out;
}

double DfsCluster::StorageImbalance() const {
  // Utilization *spread* in fraction points: hottest node vs the
  // capacity-weighted fleet utilization — the exact quantity real balancers
  // threshold on (the HDFS Balancer's "utilization differs from the cluster
  // average utilization by more than N%"). An unweighted node mean would
  // diverge from what the balancer can actually guarantee on
  // heterogeneous-capacity clusters.
  RefreshNodeFractions();
  if (fraction_stats_.nodes < 2 || fleet_cap_ == 0) {
    return 0.0;
  }
  double fleet = static_cast<double>(fleet_used_) / static_cast<double>(fleet_cap_);
  return std::max(0.0, MaxNodeFraction() - fleet);
}

MigrationPlan DfsCluster::PlanLevelingByUsage(
    double tolerance, const std::map<BrickId, uint64_t>* extra_inflow) const {
  MigrationPlan plan;
  const std::vector<BrickId>& serving = serving_bricks_;
  if (serving.size() < 2) {
    return plan;
  }
  uint64_t total_used = fleet_used_;
  uint64_t total_capacity = fleet_cap_;
  if (total_capacity == 0 || total_used == 0) {
    return plan;
  }
  double fleet = static_cast<double>(total_used) / static_cast<double>(total_capacity);
  // Donors: above fleet*(1+tolerance); receivers: below fleet.
  struct Receiver {
    BrickId brick;
    uint64_t headroom;  // bytes it may absorb before reaching fleet level
  };
  std::vector<Receiver> receivers;
  for (BrickId id : serving) {
    const Brick* brick = FindBrick(id);
    // Receivers sit below fleet + tolerance/2 and may absorb data up to
    // fleet + tolerance. The band (rather than "strictly below fleet")
    // matters: with replication, the only brick below the mean can be the
    // donor's replica partner, and draining then needs a slightly-above-mean
    // third brick.
    double limit = (fleet + tolerance) * static_cast<double>(brick->capacity_bytes);
    if (brick->UsedFraction() < fleet + tolerance * 0.5) {
      uint64_t committed = brick->used_bytes;
      if (extra_inflow != nullptr) {
        auto inflow_it = extra_inflow->find(id);
        if (inflow_it != extra_inflow->end()) {
          committed += inflow_it->second;
        }
      }
      if (static_cast<double>(committed) >= limit) {
        continue;
      }
      uint64_t headroom = static_cast<uint64_t>(limit) - committed;
      headroom = std::min(headroom, brick->FreeBytes());
      if (headroom > 0) {
        receivers.push_back(Receiver{id, headroom});
      }
    }
  }
  THEMIS_LOG(kDebug, "leveling: fleet=%.3f tolerance=%.3f receivers=%zu", fleet,
             tolerance, receivers.size());
  // Replica sets planned so far: both replicas of a chunk can be donated (by
  // different donors), and they must not land on the same receiver — the
  // second move would find its destination already holding the chunk and
  // silently skip, leaving its donor hot.
  std::map<std::pair<FileId, uint32_t>, std::vector<BrickId>> planned_targets;
  size_t receiver_cursor = 0;
  for (BrickId donor : serving) {
    const Brick* brick = FindBrick(donor);
    // Donor when its utilization exceeds the fleet level by `tolerance`
    // fraction points.
    double limit = (fleet + tolerance) * static_cast<double>(brick->capacity_bytes);
    if (static_cast<double>(brick->used_bytes) <= limit) {
      continue;
    }
    uint64_t excess =
        brick->used_bytes - static_cast<uint64_t>(fleet * static_cast<double>(
                                                              brick->capacity_bytes));
    THEMIS_LOG(kDebug, "leveling: donor brick%u (node %u) used=%.2f excess=%lluM chunks=%zu",
               donor, brick->node, brick->UsedFraction(),
               static_cast<unsigned long long>(excess >> 20), ChunksOnBrickRef(donor).size());
    for (const auto& [file, chunk_index] : ChunksOnBrickRef(donor)) {
      if (excess == 0 || receiver_cursor >= receivers.size()) {
        break;
      }
      const ChunkPlacement* chunk = FindChunk(file, chunk_index);
      if (chunk == nullptr) {
        continue;
      }
      if (ChunkPinnedToBrick(file, chunk_index, donor)) {
        THEMIS_LOG(kDebug, "leveling: file%llu#%u pinned to brick%u",
                   static_cast<unsigned long long>(file), chunk_index, donor);
        continue;  // hash-placed: the flavor plan owns this replica
      }
      // Find a receiver that can take this chunk (no duplicate replica).
      size_t probe = receiver_cursor;
      bool placed = false;
      std::vector<BrickId>& targets = planned_targets[{file, chunk_index}];
      while (probe < receivers.size()) {
        Receiver& recv = receivers[probe];
        bool collides = chunk->HasReplicaOn(recv.brick) ||
                        std::find(targets.begin(), targets.end(), recv.brick) !=
                            targets.end();
        if (recv.headroom >= chunk->bytes && !collides) {
          THEMIS_LOG(kDebug, "leveling: plan move file%llu#%u brick%u->brick%u %lluM",
                     static_cast<unsigned long long>(file), chunk_index, donor,
                     recv.brick, static_cast<unsigned long long>(chunk->bytes >> 20));
          targets.push_back(recv.brick);
          plan.push_back(ChunkMove{.file = file,
                                   .chunk_index = chunk_index,
                                   .from = donor,
                                   .to = recv.brick,
                                   .bytes = chunk->bytes,
                                   .reason = MoveReason::kRebalance});
          recv.headroom -= chunk->bytes;
          excess -= std::min(excess, chunk->bytes);
          placed = true;
          break;
        }
        ++probe;
      }
      while (receiver_cursor < receivers.size() &&
             receivers[receiver_cursor].headroom == 0) {
        ++receiver_cursor;
      }
      if (!placed && probe >= receivers.size() && receiver_cursor >= receivers.size()) {
        break;
      }
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Load accounting

// Every counter mutation goes through ChargeNode: it captures the rate-window
// base on the node's first charge of the window, then pushes the new window
// delta into the streaming aggregates — the push-based equivalent of the old
// scan-and-difference.
void DfsCluster::ChargeNode(NodeId node, uint64_t requests, uint64_t reads,
                            uint64_t writes, double cpu_seconds) {
  NodeBase* base = FindNode(node);
  if (base == nullptr) {
    return;
  }
  NodeLoadCounters* load = &base->load;
  bool is_storage = FindStorageNode(node) != nullptr;
  bool serving = base->Serving();
  NodeRateWindow& window = nodes_[node].window;
  if (window.epoch != window_epoch_) {
    window = NodeRateWindow{.epoch = window_epoch_,
                            .base_cpu = load->cpu_seconds,
                            .last_cpu = load->cpu_seconds,
                            .base_net = load->requests + load->read_ios + load->write_ios};
  }
  load->requests += requests;
  load->read_ios += reads;
  load->write_ios += writes;
  load->cpu_seconds += cpu_seconds;
  // The aggregates already hold this window's current deltas, so an
  // unchanged dimension needs no work at all. That lets the common partial
  // charges (net-only injections, sub-quantum CPU nudges) skip the
  // quantization and the 128-bit square updates entirely. Non-serving nodes
  // keep their windows current but stay out of the aggregates.
  uint64_t net_delta =
      load->requests + load->read_ios + load->write_ios - window.base_net;
  if (net_delta != window.net_delta) {
    if (serving) {
      RateAgg(is_storage, /*cpu_dim=*/false).Update(window.net_delta, net_delta);
    }
    window.net_delta = net_delta;
  }
  if (load->cpu_seconds != window.last_cpu) {
    window.last_cpu = load->cpu_seconds;
    uint64_t cpu_ticks =
        QuantizeLoadDelta(load->cpu_seconds - window.base_cpu, kCpuLoadQuantum);
    if (cpu_ticks != window.cpu_ticks) {
      if (serving) {
        RateAgg(is_storage, /*cpu_dim=*/true).Update(window.cpu_ticks, cpu_ticks);
      }
      window.cpu_ticks = cpu_ticks;
    }
  }
}

void DfsCluster::CrashNode(NodeId node) {
  NodeBase* base = FindNode(node);
  if (base == nullptr) {
    return;
  }
  if (!base->crashed) {
    ++crashed_nodes_;
  }
  base->crashed = true;
  SetNodeServing(node, false);
}

void DfsCluster::CrashNodeForEnvFault(NodeId node) {
  bool is_meta = FindMetaNode(node) != nullptr;
  CrashNode(node);
  if (!is_meta || balancer_crashed_) {
    return;
  }
  // The balancer runs on the metadata tier, so an env crash of any meta
  // node takes the balancer process down with it. A round in flight loses
  // its queued rebalance moves (they lived in the dead process's memory);
  // replication-repair moves survive — storage daemons drive those.
  COV_BRANCH(cov_, CovModule::kRecovery, 30);
  balancer_crashed_ = true;
  if (rebalance_active_) {
    COV_BRANCH(cov_, CovModule::kRecovery, 31);
    balancer_resume_pending_ = true;
  }
  rebalance_active_ = false;
  bool front_dropped = !move_queue_.empty() &&
                       move_queue_.front().reason == MoveReason::kRebalance;
  move_queue_.erase(std::remove_if(move_queue_.begin(), move_queue_.end(),
                                   [](const ChunkMove& move) {
                                     return move.reason == MoveReason::kRebalance;
                                   }),
                    move_queue_.end());
  if (front_dropped) {
    current_move_done_bytes_ = 0;  // the partial transfer died with the round
  }
  current_round_moves_ = 0;
  EmitBalancerState(BalancerState::kCrashed);
  OnBalancerCrashed();
}

void DfsCluster::RestartNode(NodeId node) {
  NodeBase* base = FindNode(node);
  if (base == nullptr || !base->crashed) {
    return;
  }
  bool is_storage = FindStorageNode(node) != nullptr;
  COV_BRANCH(cov_, CovModule::kRecovery, is_storage ? 32 : 33);
  base->crashed = false;
  --crashed_nodes_;
  // The inverse of the crash: the node (and its online bricks) rejoin the
  // serving set; a decommissioned node stays out.
  SetNodeServing(node, base->Serving());
  if (!is_storage && balancer_crashed_) {
    // First recovered meta node brings the balancer process back up; it
    // reloads its persisted flavor state and re-runs the interrupted round
    // from scratch against the current layout.
    balancer_crashed_ = false;
    // The restarted daemon comes back idle; a pending round re-enters the
    // planning chain via the TriggerRebalance below.
    EmitBalancerState(BalancerState::kIdle);
    OnBalancerRestarted();
    if (balancer_resume_pending_) {
      COV_BRANCH(cov_, CovModule::kRecovery, 34);
      balancer_resume_pending_ = false;
      (void)TriggerRebalance();
    }
  }
}

bool DfsCluster::EnvRecoveryPending() const {
  if (balancer_crashed_ || balancer_resume_pending_) {
    return true;
  }
  return env_ != nullptr && env_->RecoveryPending(*this);
}

uint64_t DfsCluster::TakeReplicas(BrickId from, BrickId to, uint64_t bytes) {
  Brick* src = FindBrick(from);
  Brick* dst = FindBrick(to);
  if (src == nullptr || dst == nullptr) {
    return 0;
  }
  uint64_t taken = 0;
  // Runs per op while a storage fault is active, so it walks the live list:
  // only the current entry is ever erased and inserts go to `to`'s list
  // (from != to), so the visit order equals a snapshot walk's.
  std::vector<std::pair<FileId, uint32_t>>& from_set = bricks_[from].chunks;
  auto it = from_set.begin();
  while (it != from_set.end() && taken < bytes && dst->FreeBytes() > 0) {
    const auto [file, chunk_index] = *it;
    ChunkPlacement* chunk = FindChunk(file, chunk_index);
    if (chunk == nullptr || chunk->HasReplicaOn(to) || chunk->bytes > dst->FreeBytes()) {
      ++it;
      continue;
    }
    auto replica = std::find(chunk->replicas.begin(), chunk->replicas.end(), from);
    if (replica == chunk->replicas.end()) {
      ++it;
      continue;
    }
    ReleaseBrickBytes(src, chunk->bytes);
    *replica = to;
    AccreteBrickBytes(dst, chunk->bytes);
    AddReplicaIndex(to, file, chunk_index);
    taken += chunk->bytes;
    it = from_set.erase(it);
    ++placement_epoch_;  // the erase bypasses RemoveReplicaIndex
  }
  return taken;
}

// ---------------------------------------------------------------------------
// Replica index

void DfsCluster::AddReplicaIndex(BrickId brick, FileId file, uint32_t chunk) {
  ++placement_epoch_;
  auto& vec = bricks_[brick].chunks;
  const std::pair<FileId, uint32_t> key{file, chunk};
  if (vec.empty() || vec.back() < key) {
    vec.push_back(key);  // monotonic file ids make append the common case
    return;
  }
  auto pos = std::lower_bound(vec.begin(), vec.end(), key);
  if (pos == vec.end() || *pos != key) {
    vec.insert(pos, key);
  }
}

void DfsCluster::RemoveReplicaIndex(BrickId brick, FileId file, uint32_t chunk) {
  ++placement_epoch_;
  auto& vec = bricks_[brick].chunks;  // every replica names a live brick
  const std::pair<FileId, uint32_t> key{file, chunk};
  auto pos = std::lower_bound(vec.begin(), vec.end(), key);
  if (pos != vec.end() && *pos == key) {
    vec.erase(pos);
  }
}

const std::vector<std::pair<FileId, uint32_t>>& DfsCluster::ChunksOnBrickRef(
    BrickId brick) const {
  static const std::vector<std::pair<FileId, uint32_t>> kEmpty;
  return bricks_.Find(brick) != nullptr ? bricks_[brick].chunks : kEmpty;
}

// ---------------------------------------------------------------------------
// Topology services

BrickId DfsCluster::NewBrickOnNode(NodeId node, uint64_t capacity) {
  StorageNode* sn = FindStorageNode(node);
  if (sn == nullptr) {
    return kInvalidBrick;
  }
  BrickId id = next_brick_id_++;
  Brick& brick = bricks_.Grow(id).brick;
  // Created offline and then brought online: a new brick holds no bytes, so
  // going online adds only its capacity to the sums.
  brick = Brick{.id = id, .node = node, .capacity_bytes = capacity, .online = false};
  sn->bricks.push_back(id);
  AddNodeCapAll(node, capacity);
  SetBrickOnline(brick, true);
  return id;
}

void DfsCluster::AddMetaNodeInternal() {
  NodeId id = next_node_id_++;
  nodes_.Grow(id).node.emplace<MetaNode>().id = id;
  ++meta_node_count_;
  SetNodeServing(id, true);
}

NodeId DfsCluster::AddStorageNodeInternal(uint64_t brick_capacity) {
  NodeId id = next_node_id_++;
  nodes_.Grow(id).node.emplace<StorageNode>().id = id;
  // Group membership is fixed at admission (GeoFS's fewest-members policy is
  // add-order-dependent, so the assignment is real state — snapshot v5
  // persists it) and must exist before the serving-list hooks run.
  AssignLoadGroup(id);
  SetNodeServing(id, true);
  NewBrickOnNode(id, brick_capacity);
  return id;
}

FileLayout& DfsCluster::LayoutFor(FileId file) {
  LayoutSlot& slot = layouts_.Grow(file);
  return slot.has_value() ? *slot : slot.emplace();
}

// ---------------------------------------------------------------------------
// Operation execution

SimDuration DfsCluster::TransferCost(uint64_t bytes) const {
  if (config_.client_bandwidth_per_s == 0) {
    return 0;
  }
  return static_cast<SimDuration>(
      static_cast<double>(bytes) / static_cast<double>(config_.client_bandwidth_per_s) * 1e6);
}

SimDuration DfsCluster::ParallelTransferCost(const FileLayout& layout) const {
  // Chunks stream to their bricks in parallel; the client's wall time is the
  // largest stripe times the replication factor.
  uint64_t max_chunk = 0;
  for (const ChunkPlacement& chunk : layout.chunks) {
    max_chunk = std::max(max_chunk, chunk.bytes);
  }
  return TransferCost(max_chunk * static_cast<uint64_t>(config_.replication));
}

NodeId DfsCluster::RouteToMetaNode(const Operation& op) {
  (void)op;
  if (serving_meta_nodes_.empty()) {
    return kInvalidNode;
  }
  // Round-robin request routing (front-end load balancing): a healthy
  // cluster spreads requests evenly, so network imbalance is a *signal*,
  // not sampling noise.
  NodeId chosen = serving_meta_nodes_[total_ops_executed_ % serving_meta_nodes_.size()];
  ChargeNode(chosen, 1, 0, 0, kMetaCpuPerOp);
  return chosen;
}

OpResult DfsCluster::Execute(const Operation& op) {
  OpResult result;
  if (IsEnvFaultOp(op.kind)) {
    // Environment ops bypass metadata routing: they model the test harness
    // (or the world) acting on the cluster from outside, so they succeed
    // even while every metadata node is down. Without an attached runtime
    // they are rejected — the fault-free grammar never generates them, so
    // this arm stays cold in every fault-free campaign.
    if (env_ != nullptr) {
      result = env_->ExecuteEnvOp(*this, op);
    } else {
      result.status = Status::Unavailable("no environment-fault runtime attached");
    }
  } else if (RouteToMetaNode(op) == kInvalidNode) {
    result.status = Status::Unavailable("no metadata node is serving");
  } else {
    result = ExecuteRequest(op);
  }
  result.cost += config_.base_op_latency;

  // The common tail. Env ops are OpClass::kEnvFault, so they never bump
  // the namespace epoch.
  ++total_ops_executed_;
  if (ClassOf(op.kind) == OpClass::kFile && op.kind != OpKind::kOpen &&
      result.status.ok()) {
    ++namespace_epoch_;
  }
  SyncMetadataReplicas();
  uint8_t op_class = static_cast<uint8_t>(ClassOf(op.kind));
  recent_classes_.push_back(op_class);
  ++class_counts_[op_class];
  recent_class_mask_ |= static_cast<uint8_t>(1u << op_class);
  if (recent_classes_.size() > 8) {
    uint8_t dropped = recent_classes_.front();
    recent_classes_.pop_front();
    if (--class_counts_[dropped] == 0) {
      recent_class_mask_ &= static_cast<uint8_t>(~(1u << dropped));
    }
  }

  clock_.Advance(result.cost);
  if (env_ != nullptr) {
    env_->OnClockAdvanced(*this, clock_.now());
  }
  AdvanceBackground(result.cost);
  MaybeTriggerBalancer();
  RecordOpCoverage(op, result);
  if (hooks_ != nullptr) {
    hooks_->OnOperationExecuted(*this, op, result);
  }
  return result;
}

OpResult DfsCluster::ExecuteRequest(const Operation& op) {
  switch (op.kind) {
    case OpKind::kCreate:
      return DoCreate(op);
    case OpKind::kDelete:
      return DoDelete(op);
    case OpKind::kAppend:
      return DoAppend(op);
    case OpKind::kOverwrite:
      return DoOverwrite(op, /*truncate_first=*/false);
    case OpKind::kTruncateOverwrite:
      return DoOverwrite(op, /*truncate_first=*/true);
    case OpKind::kOpen:
      return DoOpen(op);
    case OpKind::kMkdir:
      return DoMkdir(op);
    case OpKind::kRmdir:
      return DoRmdir(op);
    case OpKind::kRename:
      return DoRename(op);
    case OpKind::kAddMetaNode:
      return DoAddMetaNode(op);
    case OpKind::kRemoveMetaNode:
      return DoRemoveMetaNode(op);
    case OpKind::kAddStorageNode:
      return DoAddStorageNode(op);
    case OpKind::kRemoveStorageNode:
      return DoRemoveStorageNode(op);
    case OpKind::kAddVolume:
      return DoAddVolume(op);
    case OpKind::kRemoveVolume:
      return DoRemoveVolume(op);
    case OpKind::kExpandVolume:
      return DoExpandVolume(op);
    case OpKind::kReduceVolume:
      return DoReduceVolume(op);
    case OpKind::kEnvMsgLoss:
    case OpKind::kEnvMsgReorder:
    case OpKind::kEnvMsgDuplicate:
    case OpKind::kEnvMsgCorrupt:
    case OpKind::kEnvSlowDisk:
    case OpKind::kEnvCrashNode:
    case OpKind::kEnvClearFaults:
      // Unreachable: env ops are dispatched before metadata routing.
      break;
  }
  return OpResult{.status = Status::Internal("env op reached the request switch")};
}

void DfsCluster::SyncMetadataReplicas() {
  for (NodeId id : serving_meta_nodes_) {
    if (hooks_ != nullptr && hooks_->SuppressMetadataSync(*this, id)) {
      continue;
    }
    if (env_ != nullptr && env_->DropHeartbeat(*this, id)) {
      // The replication heartbeat for this epoch was lost in transit; the
      // replica catches up at the next sync (same recovery path the fault
      // hook's kMetadataDesync exercises, but transient).
      COV_BRANCH(cov_, CovModule::kReplication, 30);
      continue;
    }
    FindMetaNode(id)->synced_epoch = namespace_epoch_;
  }
}

void DfsCluster::AdvanceTime(SimDuration delta) {
  // Idle time still runs the periodic balancer and its migrations: advance
  // in period-sized steps so a trigger fired early in the window gets its
  // background work done within the same call.
  while (delta > 0) {
    SimDuration step = std::min(delta, config_.balancer_period);
    clock_.Advance(step);
    if (env_ != nullptr) {
      env_->OnClockAdvanced(*this, clock_.now());
    }
    AdvanceBackground(step);
    MaybeTriggerBalancer();
    delta -= step;
  }
}

// ---- file operations ----

Result<FileLayout> DfsCluster::PlaceFile(const std::string& path, uint64_t size) {
  FileLayout layout;
  layout.size = size;
  uint64_t remaining = size;
  // Every chunk stays within the stripe unit so the balancer can migrate at
  // chunk granularity.
  uint32_t chunk_count =
      size == 0 ? 1
                : static_cast<uint32_t>((size + config_.chunk_size - 1) / config_.chunk_size);
  uint64_t per_chunk = size / chunk_count;
  for (uint32_t i = 0; i < chunk_count; ++i) {
    uint64_t bytes = (i + 1 == chunk_count) ? remaining : per_chunk;
    remaining -= bytes;
    std::vector<BrickId> replicas = PlaceChunk(path, i, bytes);
    if (replicas.empty()) {
      // Roll back bricks already charged.
      for (ChunkPlacement& chunk : layout.chunks) {
        for (BrickId b : chunk.replicas) {
          ReleaseBrickBytes(FindBrick(b), chunk.bytes);
        }
      }
      return Status::OutOfSpace(Sprintf("no placement for chunk %u of %s", i, path.c_str()));
    }
    for (BrickId b : replicas) {
      AccreteBrickBytes(FindBrick(b), bytes);
    }
    layout.chunks.push_back(ChunkPlacement{bytes, std::move(replicas)});
  }
  return layout;
}

void DfsCluster::ReleaseLayout(FileId file, const FileLayout& layout) {
  ++placement_epoch_;
  for (const ChunkPlacement& chunk : layout.chunks) {
    for (BrickId b : chunk.replicas) {
      ReleaseBrickBytes(FindBrick(b), chunk.bytes);
      // A brick's index is sorted by (file, chunk), so the file's keys are
      // one run: the brick's first replica erases it, later ones find none.
      auto& vec = bricks_[b].chunks;
      vec.erase(std::lower_bound(vec.begin(), vec.end(), std::pair<FileId, uint32_t>{file, 0}),
                std::lower_bound(vec.begin(), vec.end(), std::pair<FileId, uint32_t>{file + 1, 0}));
    }
  }
}

void DfsCluster::EraseLayout(FileId file) {
  if (const FileLayout* layout = FindLayout(file)) {
    ReleaseLayout(file, *layout);
    layouts_[file].reset();
  }
}

void DfsCluster::IndexLayout(FileId file, const FileLayout& layout) {
  for (uint32_t i = 0; i < layout.chunks.size(); ++i) {
    for (BrickId b : layout.chunks[i].replicas) {
      // A freshly indexed file carries the largest (file, chunk) keys the
      // brick has seen, so AddReplicaIndex's append fast path makes this
      // amortized O(1).
      AddReplicaIndex(b, file, i);
    }
  }
}

void DfsCluster::ChargeLayoutIo(const FileLayout& layout, bool is_write) {
  for (const ChunkPlacement& chunk : layout.chunks) {
    // The charge is identical for every replica of the chunk.
    const double cpu = kStorageCpuPerGiB * static_cast<double>(chunk.bytes) /
                       static_cast<double>(kGiB);
    const uint64_t ios = IoCount(chunk.bytes);
    for (BrickId b : chunk.replicas) {
      const Brick* brick = FindBrick(b);
      if (brick == nullptr) {
        continue;
      }
      if (is_write) {
        ChargeNode(brick->node, 0, 0, ios, cpu);
      } else {
        ChargeNode(brick->node, 0, ios, 0, cpu * 0.5);
      }
    }
  }
}

// Placement policies hash the normalized path *string*; in the common case
// the generated operand is already normalized, so this is a no-alloc
// pass-through (the scratch buffer covers the rest).
const std::string& DfsCluster::NormalizedOpPath(const Operation& op) {
  if (IsNormalizedPath(op.path)) {
    return op.path;
  }
  norm_scratch_ = NormalizePath(op.path);
  return norm_scratch_;
}

OpResult DfsCluster::DoCreate(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kRequest, 0);
  PathId rid = tree_.ResolveOpPath(op);
  if (tree_.Find(rid) != nullptr) {
    result.status = Status::AlreadyExists(op.path);
    return result;
  }
  if (config_.max_file_size != 0 && op.size > config_.max_file_size) {
    // EFBIG: rejected at admission, before any placement work.
    COV_BRANCH(cov_, CovModule::kRequest, 35);
    result.status = Status::InvalidArgument(
        Sprintf("file size exceeds max_file_size (%llu > %llu)",
                static_cast<unsigned long long>(op.size),
                static_cast<unsigned long long>(config_.max_file_size)));
    return result;
  }
  Result<FileLayout> placed = PlaceFile(NormalizedOpPath(op), op.size);
  if (!placed.ok()) {
    COV_BRANCH(cov_, CovModule::kPlacement, 1);
    result.status = placed.status();
    return result;
  }
  Result<FileId> created = tree_.CreateFile(rid, op.size);
  if (!created.ok()) {
    ReleaseLayout(0, *placed);  // not yet indexed; brick bytes roll back only
    result.status = created.status();
    return result;
  }
  const FileLayout& layout = LayoutFor(*created) = placed.take();
  IndexLayout(*created, layout);
  ChargeLayoutIo(layout, /*is_write=*/true);
  result.bytes_moved = op.size * static_cast<uint64_t>(config_.replication);
  result.cost = ParallelTransferCost(layout);
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoDelete(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kRequest, 2);
  PathId rid = tree_.ResolveOpPath(op);
  Result<FileId> id = tree_.FileIdOf(rid);
  if (!id.ok()) {
    result.status = Status::NotFound(op.path);  // raw operand, as clients see
    return result;
  }
  EraseLayout(*id);
  result.status = tree_.RemoveFile(rid);
  OnFileDeleted(*id);
  return result;
}

OpResult DfsCluster::DoAppend(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kRequest, 3);
  PathId rid = tree_.ResolveOpPath(op);
  Result<FileId> id = tree_.FileIdOf(rid);
  if (!id.ok()) {
    result.status = Status::NotFound(op.path);  // raw operand, as clients see
    return result;
  }
  FileLayout& layout = LayoutFor(*id);
  uint64_t bytes = op.size;
  if (config_.max_file_size != 0 && layout.size + bytes > config_.max_file_size) {
    COV_BRANCH(cov_, CovModule::kRequest, 35);
    result.status = Status::InvalidArgument(
        Sprintf("append would exceed max_file_size (%llu + %llu > %llu)",
                static_cast<unsigned long long>(layout.size),
                static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(config_.max_file_size)));
    return result;
  }
  // Extend the last chunk while it stays within the stripe unit (chunks must
  // remain individually migratable); otherwise place a new chunk.
  if (!layout.chunks.empty() && layout.chunks.back().bytes + bytes <= config_.chunk_size) {
    ChunkPlacement& last = layout.chunks.back();
    auto has_room = [&](BrickId b) {
      const Brick* brick = FindBrick(b);
      return brick != nullptr && brick->FreeBytes() >= bytes;
    };
    if (std::all_of(last.replicas.begin(), last.replicas.end(), has_room)) {
      last.bytes += bytes;
      for (BrickId b : last.replicas) {
        Brick* brick = FindBrick(b);
        AccreteBrickBytes(brick, bytes);
        ChargeNode(brick->node, 0, 0, IoCount(bytes),
                   kStorageCpuPerGiB * static_cast<double>(bytes) / kGiB);
      }
      layout.size += bytes;
      result.status = tree_.SetFileSize(rid, layout.size);
      result.bytes_moved = bytes * config_.replication;
      result.cost = TransferCost(result.bytes_moved);
      return result;
    }
  }
  // Append as a run of stripe-sized chunks.
  uint64_t remaining = bytes;
  uint64_t appended = 0;
  while (remaining > 0) {
    uint64_t piece = std::min(remaining, config_.chunk_size);
    std::vector<BrickId> replicas = PlaceChunk(
        NormalizedOpPath(op), static_cast<uint32_t>(layout.chunks.size()), piece);
    if (replicas.empty()) {
      COV_BRANCH(cov_, CovModule::kPlacement, 4);
      break;  // partial append: the write hit ENOSPC mid-stream
    }
    uint32_t index = static_cast<uint32_t>(layout.chunks.size());
    for (BrickId b : replicas) {
      Brick* brick = FindBrick(b);
      AccreteBrickBytes(brick, piece);
      AddReplicaIndex(b, *id, index);
      ChargeNode(brick->node, 0, 0, IoCount(piece),
                 kStorageCpuPerGiB * static_cast<double>(piece) / kGiB);
    }
    layout.chunks.push_back(ChunkPlacement{piece, std::move(replicas)});
    layout.size += piece;
    appended += piece;
    remaining -= piece;
  }
  result.status = appended == bytes
                      ? tree_.SetFileSize(rid, layout.size)
                      : Status::OutOfSpace("append: no placement");
  if (appended > 0 && !result.status.ok()) {
    (void)tree_.SetFileSize(rid, layout.size);
  }
  result.bytes_moved = appended * config_.replication;
  result.cost = TransferCost(std::min<uint64_t>(appended, config_.chunk_size) *
                             config_.replication);
  return result;
}

OpResult DfsCluster::DoOverwrite(const Operation& op, bool truncate_first) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kRequest, truncate_first ? 6 : 5);
  PathId rid = tree_.ResolveOpPath(op);
  Result<FileId> id = tree_.FileIdOf(rid);
  if (!id.ok()) {
    result.status = Status::NotFound(op.path);  // raw operand, as clients see
    return result;
  }
  if (config_.max_file_size != 0 && op.size > config_.max_file_size) {
    // EFBIG before the truncate: the existing data stays untouched.
    COV_BRANCH(cov_, CovModule::kRequest, 35);
    result.status = Status::InvalidArgument(
        Sprintf("overwrite size exceeds max_file_size (%llu > %llu)",
                static_cast<unsigned long long>(op.size),
                static_cast<unsigned long long>(config_.max_file_size)));
    return result;
  }
  EraseLayout(*id);
  uint64_t new_size = op.size;
  Result<FileLayout> placed = PlaceFile(NormalizedOpPath(op), new_size);
  if (!placed.ok()) {
    // The file now exists with no data (the truncate landed, the write
    // failed) — exactly what happens on a full real system.
    (void)tree_.SetFileSize(rid, 0);
    LayoutFor(*id) = FileLayout{};
    result.status = placed.status();
    return result;
  }
  const FileLayout& layout = LayoutFor(*id) = placed.take();
  IndexLayout(*id, layout);
  ChargeLayoutIo(layout, /*is_write=*/true);
  result.status = tree_.SetFileSize(rid, new_size);
  result.bytes_moved = new_size * config_.replication;
  result.cost = ParallelTransferCost(layout);
  return result;
}

OpResult DfsCluster::DoOpen(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kRequest, 7);
  Result<FileId> id = tree_.FileIdOf(tree_.ResolveOpPath(op));
  if (!id.ok()) {
    result.status = Status::NotFound(op.path);  // raw operand, as clients see
    return result;
  }
  if (const FileLayout* layout = FindLayout(*id)) {
    ChargeLayoutIo(*layout, /*is_write=*/false);
    result.bytes_moved = layout->size;
    result.cost = TransferCost(layout->size) / 2;  // read path is lighter
  }
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoMkdir(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kNamespace, 8);
  result.status = tree_.MakeDir(tree_.ResolveOpPath(op));
  return result;
}

OpResult DfsCluster::DoRmdir(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kNamespace, 9);
  result.status = tree_.RemoveDir(tree_.ResolveOpPath(op));
  return result;
}

OpResult DfsCluster::DoRename(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kNamespace, 10);
  PathId src = tree_.ResolveOpPath(op);
  PathId dst = tree_.ResolveOpPath2(op);
  Result<FileId> id = tree_.FileIdOf(src);
  result.status = tree_.Rename(src, dst);
  if (result.status.ok()) {
    OnNamespaceRenamed();
    if (id.ok()) {
      OnFileRenamed(*id, NormalizePath(op.path), NormalizePath(op.path2));
    }
  }
  return result;
}

// ---- node operations ----

OpResult DfsCluster::DoAddMetaNode(const Operation& op) {
  (void)op;
  OpResult result;
  COV_BRANCH(cov_, CovModule::kMembership, 11);
  int serving = static_cast<int>(serving_meta_nodes_.size());
  if (serving >= config_.max_meta_nodes) {
    result.status = Status::FailedPrecondition("metadata node limit reached");
    return result;
  }
  AddMetaNodeInternal();
  result.cost = Seconds(5);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoRemoveMetaNode(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kMembership, 12);
  if (static_cast<int>(serving_meta_nodes_.size()) <= config_.min_meta_nodes) {
    result.status = Status::FailedPrecondition("metadata node minimum reached");
    return result;
  }
  MetaNode* node = FindMetaNode(op.node);
  if (node == nullptr || !node->Serving()) {
    result.status = Status::NotFound(Sprintf("meta node %u", op.node));
    return result;
  }
  node->online = false;
  SetNodeServing(op.node, false);
  result.cost = Seconds(3);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoAddStorageNode(const Operation& op) {
  (void)op;
  OpResult result;
  COV_BRANCH(cov_, CovModule::kMembership, 13);
  int serving = static_cast<int>(ServingStorageNodeIds().size());
  if (serving >= config_.max_storage_nodes) {
    result.status = Status::FailedPrecondition("storage node limit reached");
    return result;
  }
  AddStorageNodeInternal(BrickCapacityFor(next_node_id_));
  result.cost = Seconds(20);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoRemoveStorageNode(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kMembership, 14);
  if (static_cast<int>(ServingStorageNodeIds().size()) <= config_.min_storage_nodes) {
    result.status = Status::FailedPrecondition("storage node minimum reached");
    return result;
  }
  StorageNode* node = FindStorageNode(op.node);
  if (node == nullptr || !node->Serving()) {
    result.status = Status::NotFound(Sprintf("storage node %u", op.node));
    return result;
  }
  // The node is serving, so exactly its online bricks sit in the serving
  // list — count the rest by subtraction instead of a fleet walk.
  auto serving_brick = [&](BrickId b) {
    const Brick* brick = FindBrick(b);
    return brick != nullptr && brick->online;
  };
  size_t own_serving = std::count_if(node->bricks.begin(), node->bricks.end(), serving_brick);
  size_t bricks_elsewhere = ServingBricks().size() - own_serving;
  if (bricks_elsewhere < kMinServingBricks) {
    result.status = Status::FailedPrecondition("too few bricks would remain");
    return result;
  }
  node->online = false;
  SetNodeServing(op.node, false);
  for (BrickId b : node->bricks) {
    Brick* brick = FindBrick(b);
    if (brick != nullptr && brick->online) {
      SetBrickOnline(*brick, false);
    }
  }
  OnStorageNodeDecommissioned(op.node);
  // Re-replicate the chunks that lost a replica with the node.
  COV_BRANCH(cov_, CovModule::kRecovery, 20);
  BeginRecoveryPass();
  for (BrickId b : node->bricks) {
    ScheduleMoves(b, MoveReason::kRecovery);
  }
  result.cost = Seconds(10);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

// ---- volume operations ----

OpResult DfsCluster::DoAddVolume(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kVolume, 15);
  NodeId target = op.node;
  if (FindStorageNode(target) == nullptr || !FindStorageNode(target)->Serving()) {
    target = LeastCapacityServingNode();
  }
  if (target == kInvalidNode) {
    result.status = Status::Unavailable("no serving storage node for new volume");
    return result;
  }
  uint64_t capacity = op.size == 0 ? config_.brick_capacity
                                   : std::clamp(op.size, kMinBrickCapacity,
                                                2 * config_.brick_capacity);
  NewBrickOnNode(target, capacity);
  result.cost = Seconds(15);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoRemoveVolume(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kVolume, 16);
  Brick* brick = FindBrick(op.brick);
  if (brick == nullptr || !brick->online) {
    result.status = Status::NotFound(Sprintf("brick %u", op.brick));
    return result;
  }
  // Refuse if the remaining bricks cannot absorb the data.
  if (ServingBricks().size() <= kMinServingBricks ||
      FreeSpaceWithout(*brick) < brick->used_bytes) {
    result.status = Status::FailedPrecondition("insufficient space to evacuate brick");
    return result;
  }
  SetBrickOnline(*brick, false);  // draining: no new placements
  COV_BRANCH(cov_, CovModule::kMigration, 22);
  BeginRecoveryPass();
  ScheduleMoves(op.brick, MoveReason::kEvacuation);
  result.cost = Seconds(10);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoExpandVolume(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kVolume, 17);
  Brick* brick = FindBrick(op.brick);
  if (brick == nullptr || !brick->online) {
    result.status = Status::NotFound(Sprintf("brick %u", op.brick));
    return result;
  }
  uint64_t delta = op.size == 0 ? config_.brick_capacity / 4 : op.size;
  // A device grows to at most 2x the standard brick: balance targets must
  // stay reachable at chunk granularity across the capacity spread.
  uint64_t cap_limit = 2 * config_.brick_capacity;
  if (brick->capacity_bytes >= cap_limit) {
    result.status = Status::FailedPrecondition("volume already at maximum size");
    return result;
  }
  SetBrickBytes(*brick, brick->used_bytes,
                std::min(brick->capacity_bytes + delta, cap_limit));
  result.cost = Seconds(8);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

OpResult DfsCluster::DoReduceVolume(const Operation& op) {
  OpResult result;
  COV_BRANCH(cov_, CovModule::kVolume, 18);
  Brick* brick = FindBrick(op.brick);
  if (brick == nullptr || !brick->online) {
    result.status = Status::NotFound(Sprintf("brick %u", op.brick));
    return result;
  }
  uint64_t delta = op.size == 0 ? brick->capacity_bytes / 4 : op.size;
  // A single resize shrinks a device by at most 40%: one random operation
  // cannot crater a brick; sustained shrinking takes deliberate repetition.
  delta = std::min(delta, brick->capacity_bytes * 2 / 5);
  uint64_t new_capacity =
      std::max(brick->capacity_bytes - delta, kMinBrickCapacity);
  // Shrinking below the stored data strands it; refuse unless the rest of
  // the cluster can absorb the overflow (what lvreduce/remove-brick
  // preflights enforce).
  uint64_t overflow = Excess(brick->used_bytes, new_capacity);
  if (overflow > 0 && FreeSpaceWithout(*brick) < overflow) {
    COV_BRANCH(cov_, CovModule::kVolume, 19);
    result.status = Status::FailedPrecondition("reduction would strand data");
    return result;
  }
  SetBrickBytes(*brick, brick->used_bytes, new_capacity);
  if (overflow > 0) {
    BeginRecoveryPass();
    ScheduleMoves(op.brick, MoveReason::kEvacuation, overflow);
  }
  result.cost = Seconds(8);
  NotifyTopologyChanged();
  result.status = Status::Ok();
  return result;
}

void DfsCluster::NotifyTopologyChanged() {
  OnTopologyChangedInternal();
  if (cov_ != nullptr) {
    uint64_t features = HashCombine(ServingBricks().size(), ServingStorageNodeIds().size());
    features = HashCombine(features, meta_node_count_);
    cov_->HitState(CovModule::kMembership, features);
  }
  if (hooks_ != nullptr) {
    hooks_->OnTopologyChanged(*this);
  }
}

// ---------------------------------------------------------------------------
// Recovery / evacuation / migration

// Snapshots the serving bricks once per scheduling pass as a min-heap keyed
// by (utilization, serving order). Nothing in a scheduling pass mutates
// brick bytes or membership, so one snapshot serves every chunk of the pass.
// Each pick consumes only an ascending prefix (it stops once no later
// candidate can win), so candidates are popped lazily instead of paying a
// full O(B log B) sort for a handful of inspected entries.
bool DfsCluster::RecoveryCandidateAfter(const RecoveryCandidate& a,
                                        const RecoveryCandidate& b) {
  return a.used_fraction != b.used_fraction
             ? b.used_fraction < a.used_fraction
             : b.order < a.order;
}

void DfsCluster::BeginRecoveryPass() const {
  recovery_heap_.clear();
  recovery_sorted_.clear();
}

// The snapshot is taken at the pass's first candidate request (a pass that
// schedules nothing costs nothing). The (fraction, order) key is a unique
// total order, so the pop sequence is exactly the fully sorted order.
const DfsCluster::RecoveryCandidate* DfsCluster::RecoveryCandidateAt(
    size_t rank) const {
  if (recovery_heap_.empty() && recovery_sorted_.empty()) {
    uint32_t order = 0;
    for (BrickId id : ServingBricks()) {
      const Brick* brick = FindBrick(id);
      recovery_heap_.push_back(RecoveryCandidate{brick->UsedFraction(), order++, brick});
    }
    std::make_heap(recovery_heap_.begin(), recovery_heap_.end(), RecoveryCandidateAfter);
  }
  while (recovery_sorted_.size() <= rank) {
    if (recovery_heap_.empty()) {
      return nullptr;
    }
    std::pop_heap(recovery_heap_.begin(), recovery_heap_.end(),
                  RecoveryCandidateAfter);
    recovery_sorted_.push_back(recovery_heap_.back());
    recovery_heap_.pop_back();
  }
  return &recovery_sorted_[rank];
}

// Equivalent to the historical full scan (least-used serving brick, +0.5
// penalty for co-locating with an existing replica's node, first in serving
// order on ties) but over the pre-sorted candidate list, so it can stop as
// soon as no later candidate can beat the incumbent: a candidate's key is at
// least its used_fraction, and used_fractions only grow from here.
BrickId DfsCluster::PickRecoveryTarget(const ChunkPlacement& chunk,
                                       uint64_t bytes) const {
  BrickId best = kInvalidBrick;
  double best_used = 2.0;
  uint32_t best_order = 0xffffffffu;
  // The replica node set is per chunk, not per candidate — resolve it once.
  replica_nodes_scratch_.clear();
  for (BrickId other : chunk.replicas) {
    const Brick* other_brick = FindBrick(other);
    if (other_brick != nullptr) {
      replica_nodes_scratch_.push_back(other_brick->node);
    }
  }
  for (size_t rank = 0;; ++rank) {
    const RecoveryCandidate* cand = RecoveryCandidateAt(rank);
    if (cand == nullptr || cand->used_fraction > best_used) {
      break;
    }
    const Brick* cand_brick = cand->brick;
    if (cand_brick->FreeBytes() < bytes || chunk.HasReplicaOn(cand_brick->id)) {
      continue;
    }
    // Keep replicas on distinct nodes when possible.
    bool same_node = false;
    for (NodeId other_node : replica_nodes_scratch_) {
      if (other_node == cand_brick->node) {
        same_node = true;
        break;
      }
    }
    double used = cand->used_fraction + (same_node ? 0.5 : 0.0);
    if (used < best_used || (used == best_used && cand->order < best_order)) {
      best_used = used;
      best_order = cand->order;
      best = cand_brick->id;
    }
  }
  return best;
}

void DfsCluster::ScheduleMoves(BrickId brick, MoveReason reason, uint64_t limit) {
  uint64_t scheduled = 0;
  for (const auto& [file, chunk_index] : ChunksOnBrickRef(brick)) {
    if (scheduled >= limit) {
      break;
    }
    const ChunkPlacement* chunk = FindChunk(file, chunk_index);
    if (chunk == nullptr) {
      continue;
    }
    BrickId target = PickRecoveryTarget(*chunk, chunk->bytes);
    if (target == kInvalidBrick) {
      if (reason == MoveReason::kRecovery) {
        COV_BRANCH(cov_, CovModule::kRecovery, 21);  // under-replicated for now
      }
      continue;
    }
    move_queue_.push_back(ChunkMove{.file = file,
                                    .chunk_index = chunk_index,
                                    .from = brick,
                                    .to = target,
                                    .bytes = chunk->bytes,
                                    .reason = reason});
    scheduled += chunk->bytes;
  }
}

Status DfsCluster::TriggerRebalance() {
  if (balancer_crashed_) {
    // The balancer process is down (env crash of its host): the command has
    // nobody to talk to. The round resumes when the node restarts.
    balancer_resume_pending_ = true;
    return Status::Unavailable("balancer process is down");
  }
  COV_BRANCH(cov_, CovModule::kAdmin, 23);
  ++rebalance_triggers_;
  if (hooks_ != nullptr && hooks_->SuppressRebalance(*this)) {
    COV_BRANCH(cov_, CovModule::kAdmin, 24);
    return Status::Ok();  // the hang fault swallows the command silently
  }
  if (rebalance_active_) {
    return Status::Ok();  // already running
  }
  MigrationPlan plan = BuildRebalancePlan();
  if (hooks_ != nullptr) {
    hooks_->OnRebalancePlanned(*this, plan);
  }
  // Charge the balancer's own computation to a metadata node. Reads the
  // serving list in place — same contents and order as ListMetaNodes(), and
  // PickIndex fires iff the list is non-empty, so the RNG stream is
  // unchanged.
  if (!serving_meta_nodes_.empty()) {
    ChargeNode(serving_meta_nodes_[rng_.PickIndex(serving_meta_nodes_.size())],
               0, 0, 0, kBalancerCpuPerPlan);
  }
  if (cov_ != nullptr) {
    uint64_t features = HashCombine(plan.size() / 4, static_cast<uint64_t>(
                                                        StorageImbalance() * 20.0));
    features = HashCombine(features, ServingBricks().size());
    features = HashCombine(features, PlanBytes(plan) / (16 * kGiB));
    cov_->HitState(CovModule::kBalancer, features, 2 * ImbalanceMultiplicity());
  }
  if (plan.empty()) {
    ++completed_rebalance_rounds_;
    THEMIS_COUNTER_INC("cluster.rebalance_rounds", 1);
    if (telemetry_ != nullptr) {
      telemetry_->Record(CampaignEventKind::kRebalanceRound, "empty",
                         StorageImbalance());
    }
    // Empty plan: the round settles without a migration phase.
    EmitBalancerState(BalancerSettleState(flavor_));
    EmitBalancerState(BalancerState::kIdle);
    OnRebalanceRoundDone();
    if (hooks_ != nullptr) {
      hooks_->OnRebalanceDone(*this);
    }
    return Status::Ok();
  }
  current_round_moves_ = plan.size();
  if (telemetry_ != nullptr) {
    telemetry_->Record(CampaignEventKind::kRebalanceRound, "planned",
                       StorageImbalance(), 0.0, current_round_moves_);
  }
  for (ChunkMove& move : plan) {
    move_queue_.push_back(move);
  }
  EmitBalancerState(BalancerMoveState(flavor_));
  rebalance_active_ = true;
  return Status::Ok();
}

void DfsCluster::MaybeTriggerBalancer() {
  bool due = config_.continuous_balancing ||
             clock_.now() - last_balancer_check_ >= config_.balancer_period;
  if (!due) {
    return;
  }
  last_balancer_check_ = clock_.now();
  if (balancer_crashed_) {
    return;  // nobody is running the periodic check
  }
  if (hooks_ != nullptr && hooks_->SuppressRebalance(*this)) {
    return;
  }
  if (StorageImbalance() > config_.native_threshold && !rebalance_active_) {
    COV_BRANCH(cov_, CovModule::kBalancer, 25);
    (void)TriggerRebalance();
  }
}

void DfsCluster::ExecuteMove(const ChunkMove& move) {
  ChunkPlacement* chunk = FindChunk(move.file, move.chunk_index);
  if (chunk == nullptr || !chunk->HasReplicaOn(move.from)) {
    return;  // the file vanished, or the replica moved elsewhere, while queued
  }
  Brick* from = FindBrick(move.from);
  Brick* to = FindBrick(move.to);
  if (to == nullptr || !to->online || chunk->HasReplicaOn(move.to) ||
      to->FreeBytes() < chunk->bytes) {
    COV_BRANCH(cov_, CovModule::kMigration, 26);
    THEMIS_LOG(kDebug, "migration: skip %s", move.ToString().c_str());
    return;
  }
  *std::find(chunk->replicas.begin(), chunk->replicas.end(), move.from) = move.to;
  if (from != nullptr) {
    ReleaseBrickBytes(from, chunk->bytes);
    ChargeNode(from->node, 0, IoCount(chunk->bytes), 0,
               kStorageCpuPerGiB * static_cast<double>(chunk->bytes) / kGiB * 0.5);
  }
  AccreteBrickBytes(to, chunk->bytes);
  ChargeNode(to->node, 0, 0, IoCount(chunk->bytes),
             kStorageCpuPerGiB * static_cast<double>(chunk->bytes) / kGiB);
  RemoveReplicaIndex(move.from, move.file, move.chunk_index);
  AddReplicaIndex(move.to, move.file, move.chunk_index);
  if (cov_ != nullptr) {
    // Migration branches are the bulk of a load balancer's code: each
    // distinct (reason, donor-level, receiver-level, imbalance, round-phase)
    // combination corresponds to a different path through planning, pairing,
    // throttling and verification logic.
    uint64_t h = HashCombine(static_cast<uint64_t>(move.reason), move.is_linkfile);
    if (from != nullptr) {
      h = HashCombine(h, static_cast<uint64_t>(from->UsedFraction() * 16.0));
    }
    h = HashCombine(h, static_cast<uint64_t>(to->UsedFraction() * 16.0));
    h = HashCombine(h, static_cast<uint64_t>(std::min(StorageImbalance(), 1.0) * 16.0));
    h = HashCombine(h, static_cast<uint64_t>(completed_rebalance_rounds_ % 16));
    h = HashCombine(h, move_queue_.size() / 8);
    // Only balancer-initiated moves walk the imbalance-dependent planning
    // code; recovery and evacuation are replication-repair paths.
    int multiplicity = 1;
    if (move.reason == MoveReason::kRebalance && !move.hash_driven) {
      // Load-driven leveling walks the imbalance-dependent balancer logic;
      // hash-driven relocation and replica repair are mechanical.
      multiplicity = 2 * ImbalanceMultiplicity();
    }
    cov_->HitState(CovModule::kMigration, h, multiplicity);
  }
}

void DfsCluster::AdvanceBackground(SimDuration dt) {
  if (move_queue_.empty()) {
    FinishRebalanceIfDrained();
    return;
  }
  uint64_t budget = static_cast<uint64_t>(
      static_cast<double>(dt) / 1e6 * static_cast<double>(config_.migration_bandwidth_per_s));
  // Each reorder verdict rotates the head message to the back of the queue;
  // budgeting the rotations to the queue length bounds one pass, so a
  // reorder-everything schedule degrades to delivery in arrival order
  // instead of livelocking.
  size_t reorder_budget = move_queue_.size();
  while (!move_queue_.empty() && budget > 0) {
    ChunkMove move = move_queue_.front();
    FaultHooks::MigrateVerdict verdict =
        hooks_ != nullptr ? hooks_->OnMigrateChunk(*this, move)
                          : FaultHooks::MigrateVerdict::kProceed;
    if (verdict == FaultHooks::MigrateVerdict::kSkip) {
      COV_BRANCH(cov_, CovModule::kMigration, 27);
      move_queue_.pop_front();
      current_move_done_bytes_ = 0;
      continue;
    }
    if (verdict == FaultHooks::MigrateVerdict::kLoseData) {
      COV_BRANCH(cov_, CovModule::kMigration, 28);
      DestroyChunkReplica(move.file, move.chunk_index, move.from);
      move_queue_.pop_front();
      current_move_done_bytes_ = 0;
      continue;
    }
    // Environment message verdicts fire once per transfer, at the message
    // boundary — a partially transferred chunk already survived its draw.
    if (env_ != nullptr && current_move_done_bytes_ == 0) {
      EnvFaultRuntime::MessageVerdict mv = env_->OnMigrationMessage(*this, move);
      if (mv == EnvFaultRuntime::MessageVerdict::kDrop) {
        // Lost in transit: the source keeps its replica (copy-then-delete
        // migration is idempotent), the balancer just never completes this
        // move in the round.
        COV_BRANCH(cov_, CovModule::kMigration, 30);
        move_queue_.pop_front();
        continue;
      }
      if (mv == EnvFaultRuntime::MessageVerdict::kReorder &&
          move_queue_.size() > 1 && reorder_budget > 0) {
        COV_BRANCH(cov_, CovModule::kMigration, 31);
        move_queue_.pop_front();
        move_queue_.push_back(move);
        --reorder_budget;
        continue;
      }
      if (mv == EnvFaultRuntime::MessageVerdict::kDuplicate) {
        // The retransmitted copy lands at the back of the queue; by the
        // time it is serviced the chunk has already moved, so ExecuteMove
        // treats it as an already-moved no-op — it only wastes bandwidth.
        COV_BRANCH(cov_, CovModule::kMigration, 32);
        move_queue_.push_back(move);
      } else if (mv == EnvFaultRuntime::MessageVerdict::kCorrupt) {
        // Checksum failure on arrival: the transfer's bandwidth is burned,
        // the source re-reads the chunk (IO charge), and the move is
        // abandoned for this round.
        COV_BRANCH(cov_, CovModule::kMigration, 33);
        uint64_t burned = std::min(budget, move.bytes);
        budget -= burned;
        if (Brick* src = FindBrick(move.from)) {
          ChargeNode(src->node, 0, IoCount(move.bytes), 0, 0.0);
        }
        move_queue_.pop_front();
        continue;
      }
    }
    // A degraded disk on either endpoint stretches the transfer: the same
    // bytes consume `slow`x the bandwidth budget. Factor 1.0 (no fault
    // runtime, or no slow-disk window covering these nodes) takes the
    // integer-only path, bit-identical to the fault-free arithmetic.
    double slow = 1.0;
    if (env_ != nullptr) {
      if (const Brick* src = FindBrick(move.from)) {
        slow = std::max(slow, env_->DiskSlowdown(*this, src->node));
      }
      if (const Brick* dst = FindBrick(move.to)) {
        slow = std::max(slow, env_->DiskSlowdown(*this, dst->node));
      }
    }
    uint64_t remaining = move.bytes > current_move_done_bytes_
                             ? move.bytes - current_move_done_bytes_
                             : 0;
    uint64_t effective = slow > 1.0 ? static_cast<uint64_t>(
                                          static_cast<double>(remaining) * slow)
                                    : remaining;
    if (effective > budget) {
      uint64_t progress = slow > 1.0 ? static_cast<uint64_t>(
                                           static_cast<double>(budget) / slow)
                                     : budget;
      current_move_done_bytes_ += progress;
      budget = 0;
      break;
    }
    budget -= effective;
    ExecuteMove(move);
    move_queue_.pop_front();
    current_move_done_bytes_ = 0;
  }
  FinishRebalanceIfDrained();
}

void DfsCluster::DestroyChunkReplica(FileId file, uint32_t chunk_index, BrickId brick) {
  ChunkPlacement* chunk = FindChunk(file, chunk_index);
  if (chunk == nullptr || !chunk->HasReplicaOn(brick)) {
    return;
  }
  chunk->replicas.erase(std::find(chunk->replicas.begin(), chunk->replicas.end(), brick));
  ReleaseBrickBytes(FindBrick(brick), chunk->bytes);
  RemoveReplicaIndex(brick, file, chunk_index);
  if (chunk->replicas.empty()) {
    lost_bytes_ += chunk->bytes;
  }
}

void DfsCluster::FinishRebalanceIfDrained() {
  if (!move_queue_.empty()) {
    return;
  }
  if (rebalance_active_) {
    rebalance_active_ = false;
    ++completed_rebalance_rounds_;
    COV_BRANCH(cov_, CovModule::kBalancer, 29);
    EmitBalancerState(BalancerSettleState(flavor_));
    EmitBalancerState(BalancerState::kIdle);
    THEMIS_COUNTER_INC("cluster.rebalance_rounds", 1);
    if (telemetry_ != nullptr) {
      telemetry_->Record(CampaignEventKind::kRebalanceRound, "drained",
                         StorageImbalance(), 0.0, current_round_moves_);
    }
    current_round_moves_ = 0;
    OnRebalanceRoundDone();
    if (hooks_ != nullptr) {
      hooks_->OnRebalanceDone(*this);
    }
  }
  // Garbage-collect fully drained offline bricks, sweeping only the tracked
  // offline bricks (none in healthy steady state). Collection decisions are
  // mutually independent, so the sweep order does not matter.
  size_t kept = 0;
  for (size_t i = 0; i < offline_brick_list_.size(); ++i) {
    BrickId id = offline_brick_list_[i];
    const Brick* brick = FindBrick(id);
    if (brick->used_bytes == 0 && bricks_[id].chunks.empty()) {
      StorageNode* node = FindStorageNode(brick->node);
      if (node != nullptr) {
        node->bricks.erase(
            std::remove(node->bricks.begin(), node->bricks.end(), id),
            node->bricks.end());
      }
      // A drained offline brick contributes zero to every byte sum (offline
      // => not in the online/fleet sums, used_bytes == 0 => nothing in the
      // used-all sums); only its owner's all-brick capacity drops.
      AddNodeCapAll(brick->node, 0 - brick->capacity_bytes);
      bricks_[id] = BrickSlot{};
    } else {
      offline_brick_list_[kept++] = id;
    }
  }
  offline_brick_list_.resize(kept);
}

// ---------------------------------------------------------------------------
// Load sampling / coverage

void DfsCluster::SampleLoadInto(std::vector<LoadSample>& out) const {
  out.clear();
  out.reserve(nodes_.size());
  // Storage nodes first, then metadata nodes, each in id order.
  for (bool storage : {true, false}) {
    for (NodeId id = nodes_.first(); id < nodes_.size(); ++id) {
      const NodeBase* node = FindNode(id);
      if (node == nullptr || (FindStorageNode(id) != nullptr) != storage) {
        continue;
      }
      LoadSample& sample = out.emplace_back();
      sample.node = id;
      sample.is_storage = storage;
      sample.online = node->online;
      sample.crashed = node->crashed;
      // Draining (offline) bricks are unmounted from the balancer's point of
      // view; the load index's per-node aggregates already exclude them, so
      // the monitor's fleet utilization matches what the balancer can level.
      // (A metadata node's brick sums are zero.)
      sample.used_bytes = nodes_[id].agg.used_online;
      sample.capacity_bytes = nodes_[id].agg.cap_online;
      sample.requests = node->load.requests;
      sample.read_ios = node->load.read_ios;
      sample.write_ios = node->load.write_ios;
      sample.cpu_seconds = node->load.cpu_seconds;
      sample.taken_at = clock_.now();
    }
  }
}

bool DfsCluster::SnapshotLoadStats(LoadStatsSnapshot& out) const {
  RefreshNodeFractions();
  const FractionStats& frac = fraction_stats_;
  out = LoadStatsSnapshot{};
  out.taken_at = clock_.now();
  uint32_t storage_count = static_cast<uint32_t>(serving_storage_nodes_.size());
  uint32_t meta_count = static_cast<uint32_t>(serving_meta_nodes_.size());
  const RateAggs& rates = rate_aggs_;
  out.cpu_storage = {rates.cpu_storage.sum, rates.cpu_storage.sum_sq,
                     rates.cpu_storage.max_delta, storage_count};
  out.cpu_meta = {rates.cpu_meta.sum, rates.cpu_meta.sum_sq, rates.cpu_meta.max_delta,
                  meta_count};
  out.net_storage = {rates.net_storage.sum, rates.net_storage.sum_sq,
                     rates.net_storage.max_delta, storage_count};
  out.net_meta = {rates.net_meta.sum, rates.net_meta.sum_sq, rates.net_meta.max_delta,
                  meta_count};
  out.fraction_nodes = frac.nodes;
  out.max_fraction = MaxNodeFraction();
  out.storage_used = frac.used;
  out.storage_cap = frac.cap;
  out.frac_sum = frac.frac_sum;
  out.frac_sum_sq = frac.frac_sum_sq;
  out.serving_storage_nodes = storage_count;
  out.any_crashed = crashed_nodes_ > 0;
  return true;
}

void DfsCluster::AdvanceLoadWindow() {
  // O(1) close of the rate window: bumping the epoch invalidates every
  // per-node base lazily (the next charge rebases), and the group aggregates
  // of the now-empty window are all zero.
  ++window_epoch_;
  rate_aggs_ = RateAggs{};
}

std::string DfsCluster::DescribeState() const {
  std::string out;
  for (const auto& [id, brick] : bricks()) {
    const StorageNode* node = FindStorageNode(brick.node);
    out += Sprintf("brick%u(n%u%s%s %lluG/%lluG) ", id, brick.node,
                   brick.online ? "" : ",off",
                   (node != nullptr && node->Serving()) ? "" : ",dead",
                   static_cast<unsigned long long>(brick.used_bytes >> 30),
                   static_cast<unsigned long long>(brick.capacity_bytes >> 30));
  }
  return out;
}

int DfsCluster::ImbalanceMultiplicity() const {
  // Branches unlocked scale super-linearly with how far the system is from
  // balance when the code runs: near-balanced operation stays on the fast
  // path, while deep imbalance walks multi-round planning, throttling and
  // emergency-handling code that is never touched otherwise.
  double spread = std::min(StorageImbalance(), 0.6);
  return 1 + static_cast<int>(40.0 * spread * spread);
}

void DfsCluster::RecordOpCoverage(const Operation& op, const OpResult& result) {
  if (cov_ == nullptr) {
    return;
  }
  cov_->HitStatic(CovModule::kRequest,
                  static_cast<uint32_t>(op.kind) * 10 +
                      static_cast<uint32_t>(result.status.code()));
  // State-feature tuple: what the system looked like when this operator ran.
  // Distinct tuples correspond to distinct exercised branches in a real code
  // base (see DESIGN.md). The class mask and file bucket are maintained
  // incrementally (Execute's window push/pop, bit_width) — same values as the
  // loops they replaced, without the per-op rescans.
  uint8_t class_mask = recent_class_mask_;
  int imbalance_decile = static_cast<int>(std::min(StorageImbalance(), 2.0) * 12.0);
  uint64_t file_bucket =
      std::bit_width(static_cast<uint64_t>(tree_.file_count()));
  uint64_t h = HashCombine(static_cast<uint64_t>(op.kind),
                           static_cast<uint64_t>(result.status.code()));
  h = HashCombine(h, class_mask);
  h = HashCombine(h, static_cast<uint64_t>(imbalance_decile));
  h = HashCombine(h, ServingStorageNodeIds().size());
  h = HashCombine(h, meta_node_count_);
  h = HashCombine(h, file_bucket);
  h = HashCombine(h, rebalance_active_ ? 1u : 0u);
  h = HashCombine(h, static_cast<uint64_t>(completed_rebalance_rounds_ % 8));
  cov_->HitState(CovModule::kRequest, h);
}

// ---------------------------------------------------------------------------
// Checkpointing (DESIGN.md §11)

namespace {

void SaveLoadCounters(SnapshotWriter& writer, const NodeLoadCounters& load) {
  writer.U64(load.requests);
  writer.U64(load.read_ios);
  writer.U64(load.write_ios);
  writer.F64(load.cpu_seconds);
}

void RestoreLoadCounters(SnapshotReader& reader, NodeLoadCounters* load) {
  load->requests = reader.U64();
  load->read_ios = reader.U64();
  load->write_ios = reader.U64();
  load->cpu_seconds = reader.F64();
}

void SaveChunkMove(SnapshotWriter& writer, const ChunkMove& move) {
  writer.U64(move.file);
  writer.U32(move.chunk_index);
  writer.U32(move.from);
  writer.U32(move.to);
  writer.U64(move.bytes);
  writer.U8(static_cast<uint8_t>(move.reason));
  writer.Bool(move.is_linkfile);
  writer.Bool(move.hash_driven);
}

void RestoreChunkMove(SnapshotReader& reader, ChunkMove* move) {
  move->file = reader.U64();
  move->chunk_index = reader.U32();
  move->from = reader.U32();
  move->to = reader.U32();
  move->bytes = reader.U64();
  uint8_t reason = reader.U8();
  if (reader.ok() && reason > static_cast<uint8_t>(MoveReason::kEvacuation)) {
    reader.Fail(Sprintf("chunk move reason %u out of range", reason));
    return;
  }
  move->reason = static_cast<MoveReason>(reason);
  move->is_linkfile = reader.Bool();
  move->hash_driven = reader.Bool();
}

}  // namespace

void DfsCluster::SaveState(SnapshotWriter& writer) const {
  writer.I64(clock_.now());
  rng_.SaveState(writer);
  tree_.SaveState(writer);

  auto save_nodes = [&](auto nodes, auto save_fields) {
    writer.U64(nodes.count());
    for (const auto& [id, node] : nodes) {
      writer.U32(id);
      writer.Bool(node.online);
      writer.Bool(node.crashed);
      save_fields(node);
      SaveLoadCounters(writer, node.load);
    }
  };
  save_nodes(meta_nodes(), [&](const MetaNode& node) { writer.U64(node.synced_epoch); });
  save_nodes(storage_nodes(), [&](const StorageNode& node) {
    writer.U64(node.bricks.size());
    for (BrickId brick : node.bricks) writer.U32(brick);
  });
  writer.U64(bricks().count());
  for (const auto& [id, brick] : bricks()) {
    writer.U32(id);
    writer.U32(brick.node);
    writer.U64(brick.capacity_bytes);
    writer.U64(brick.used_bytes);
    writer.Bool(brick.online);
    writer.U32(brick.linkfiles);
  }
  writer.U64(file_layouts().count());
  for (const auto& [file, layout] : file_layouts()) {
    writer.U64(file);
    writer.U64(layout.size);
    writer.U64(layout.chunks.size());
    for (const ChunkPlacement& chunk : layout.chunks) {
      writer.U64(chunk.bytes);
      writer.U64(chunk.replicas.size());
      for (BrickId replica : chunk.replicas) writer.U32(replica);
    }
  }
  writer.U64(recent_classes_.size());
  for (uint8_t cls : recent_classes_) writer.U8(cls);
  writer.U32(next_node_id_);
  writer.U32(next_brick_id_);

  writer.U64(move_queue_.size());
  for (const ChunkMove& move : move_queue_) SaveChunkMove(writer, move);
  writer.U64(current_move_done_bytes_);
  writer.Bool(rebalance_active_);
  // v4: balancer crash/resume state — a checkpoint taken between an env
  // crash and its scheduled restart must resume with the round suspended.
  writer.Bool(balancer_crashed_);
  writer.Bool(balancer_resume_pending_);
  writer.U64(current_round_moves_);
  writer.I64(completed_rebalance_rounds_);
  writer.U64(rebalance_triggers_);
  writer.I64(last_balancer_check_);

  writer.U64(total_ops_executed_);
  writer.U64(lost_bytes_);
  writer.U64(namespace_epoch_);
  writer.U64(serving_meta_nodes_.size());
  for (NodeId id : serving_meta_nodes_) writer.U32(id);

  // v3: streaming rate-window bases (DESIGN.md §13). Only nodes active in
  // the current window carry state — a node with a stale epoch behaves
  // exactly like a default-constructed window (rebased at its next charge),
  // so saving it would be redundant. The quantized deltas and the group
  // aggregates are derived (recomputed from base + counters on restore).
  std::vector<NodeId> active;
  for (NodeId id = nodes_.first(); id < nodes_.size(); ++id) {
    if (FindNode(id) != nullptr && nodes_[id].window.epoch == window_epoch_) {
      active.push_back(id);
    }
  }
  writer.U64(active.size());
  for (NodeId id : active) {
    const NodeRateWindow& window = nodes_[id].window;
    writer.U32(id);
    writer.F64(window.base_cpu);
    writer.U64(window.base_net);
  }

  // v5: load-group assignment table (DESIGN.md §15). Real state, not derived:
  // GeoFS assigns nodes to the scheduling group with the fewest members at
  // admission time, so the mapping depends on add/remove history and cannot
  // be recomputed from the restored topology. Exactly the storage nodes
  // carry one.
  writer.U64(storage_nodes().count());
  for (const auto& [id, node] : storage_nodes()) {
    (void)node;
    writer.U32(id);
    writer.U32(nodes_[id].load_group);
  }

  SaveFlavorState(writer);
}

Status DfsCluster::RestoreState(SnapshotReader& reader) {
  ++placement_epoch_;
  // The clock only moves forward; a fresh cluster starts at 0, so a plain
  // Reset + Advance lands exactly on the saved instant.
  SimTime now = reader.I64();
  if (reader.ok() && now < 0) {
    reader.Fail("negative clock value");
    return reader.status();
  }
  Status status = rng_.RestoreState(reader);
  if (!status.ok()) return status;
  status = tree_.RestoreState(reader);
  if (!status.ok()) return status;

  // Both node lists hold (id, flags, kind fields, load counters) records.
  // One record per node id: an id listed twice (in either list) is corrupt.
  nodes_ = {};
  stale_nodes_.clear();  // queued ids named the replaced records
  crashed_nodes_ = 0;
  auto restore_nodes = [&](auto kind, auto restore_fields) {
    uint64_t count = reader.Count(4 + 2 + 8 + 28);
    for (uint64_t i = 0; i < count && reader.ok(); ++i) {
      decltype(kind) node;
      node.id = reader.U32();
      node.online = reader.Bool();
      node.crashed = reader.Bool();
      restore_fields(node);
      RestoreLoadCounters(reader, &node.load);
      if (!reader.ok()) break;
      if (node.id >= kMaxTableId || FindNode(node.id) != nullptr) {
        reader.Fail(Sprintf("node %u out of range or listed twice", node.id));
        break;
      }
      crashed_nodes_ += node.crashed ? 1 : 0;
      nodes_.Grow(node.id).node = std::move(node);
    }
    return count;
  };
  meta_node_count_ = restore_nodes(MetaNode{}, [&](MetaNode& node) {
    node.synced_epoch = reader.U64();
  });
  restore_nodes(StorageNode{}, [&](StorageNode& node) {
    uint64_t brick_count = reader.Count(4);
    for (uint64_t b = 0; b < brick_count && reader.ok(); ++b) {
      node.bricks.push_back(reader.U32());
    }
  });
  bricks_ = {};
  stale_bricks_.clear();
  offline_brick_list_.clear();
  uint64_t brick_count = reader.Count(4 + 4 + 8 + 8 + 1 + 4);
  for (uint64_t i = 0; i < brick_count && reader.ok(); ++i) {
    Brick brick;
    brick.id = reader.U32();
    brick.node = reader.U32();
    brick.capacity_bytes = reader.U64();
    brick.used_bytes = reader.U64();
    brick.online = reader.Bool();
    brick.linkfiles = reader.U32();
    if (reader.ok() && FindStorageNode(brick.node) == nullptr) {
      reader.Fail(Sprintf("brick %u on unknown storage node %u", brick.id, brick.node));
      break;
    }
    if (reader.ok() && (brick.id >= kMaxTableId || FindBrick(brick.id) != nullptr)) {
      reader.Fail(Sprintf("brick %u out of range or listed twice", brick.id));
      break;
    }
    if (!brick.online) {
      offline_brick_list_.push_back(brick.id);
    }
    bricks_.Grow(brick.id).brick = brick;
  }
  layouts_ = {};
  uint64_t layout_count = reader.Count(8 + 8 + 8);
  for (uint64_t i = 0; i < layout_count && reader.ok(); ++i) {
    FileId file = reader.U64();
    if (reader.ok() &&
        (file >= std::min(tree_.next_file_id(), kMaxTableId) || FindLayout(file))) {
      reader.Fail(Sprintf("layout of file %llu is unknown or listed twice",
                          static_cast<unsigned long long>(file)));
      break;
    }
    FileLayout layout;
    layout.size = reader.U64();
    uint64_t chunk_count = reader.Count(8 + 8);
    layout.chunks.resize(static_cast<size_t>(chunk_count));
    for (ChunkPlacement& chunk : layout.chunks) {
      chunk.bytes = reader.U64();
      uint64_t replica_count = reader.Count(4);
      chunk.replicas.reserve(static_cast<size_t>(replica_count));
      for (uint64_t r = 0; r < replica_count && reader.ok(); ++r) {
        BrickId replica = reader.U32();
        if (reader.ok() && FindBrick(replica) == nullptr) {
          reader.Fail(Sprintf("chunk replica references unknown brick %u", replica));
        }
        chunk.replicas.push_back(replica);
      }
      if (!reader.ok()) break;
    }
    if (!reader.ok()) break;
    // The replica index is derived, never serialized.
    IndexLayout(file, LayoutFor(file) = std::move(layout));
  }
  recent_classes_.clear();
  class_counts_[0] = class_counts_[1] = class_counts_[2] = class_counts_[3] = 0;
  recent_class_mask_ = 0;
  uint64_t class_count = reader.Count(1);
  for (uint64_t i = 0; i < class_count && reader.ok(); ++i) {
    uint8_t cls = reader.U8();
    if (reader.ok() && cls > 3) {
      reader.Fail(Sprintf("operation class %u out of range", cls));
      break;
    }
    recent_classes_.push_back(cls);
    ++class_counts_[cls];
    recent_class_mask_ |= static_cast<uint8_t>(1u << cls);
  }
  next_node_id_ = reader.U32();
  next_brick_id_ = reader.U32();

  move_queue_.clear();
  uint64_t move_count = reader.Count(8 + 4 + 4 + 4 + 8 + 1 + 2);
  for (uint64_t i = 0; i < move_count && reader.ok(); ++i) {
    ChunkMove move;
    RestoreChunkMove(reader, &move);
    move_queue_.push_back(move);
  }
  current_move_done_bytes_ = reader.U64();
  rebalance_active_ = reader.Bool();
  balancer_crashed_ = reader.Bool();
  balancer_resume_pending_ = reader.Bool();
  if (reader.ok() && balancer_crashed_ && rebalance_active_) {
    reader.Fail("balancer recorded as both crashed and actively rebalancing");
    return reader.status();
  }
  current_round_moves_ = reader.U64();
  completed_rebalance_rounds_ = static_cast<int>(reader.I64());
  rebalance_triggers_ = reader.U64();
  last_balancer_check_ = reader.I64();

  total_ops_executed_ = reader.U64();
  lost_bytes_ = reader.U64();
  namespace_epoch_ = reader.U64();
  serving_meta_nodes_.clear();
  uint64_t serving_meta_count = reader.Count(4);
  for (uint64_t i = 0; i < serving_meta_count && reader.ok(); ++i) {
    NodeId id = reader.U32();
    if (reader.ok() && FindMetaNode(id) == nullptr) {
      reader.Fail(Sprintf("serving meta node %u is not a metadata node", id));
      break;
    }
    serving_meta_nodes_.push_back(id);
  }
  if (!reader.ok()) return reader.status();

  // v3: streaming rate-window bases. Deltas are recomputed from the restored
  // cumulative counters, and the aggregates are rebuilt with the rest of the
  // load index — so the streaming state resumes bit-exactly (fixed-point
  // sums are order-independent).
  window_epoch_ = 1;
  uint64_t window_count = reader.Count(4 + 8 + 8);
  for (uint64_t i = 0; i < window_count && reader.ok(); ++i) {
    NodeId id = reader.U32();
    double base_cpu = reader.F64();
    uint64_t base_net = reader.U64();
    if (!reader.ok()) break;
    const NodeBase* node = FindNode(id);
    if (node == nullptr) {
      reader.Fail(Sprintf("rate window references unknown node %u", id));
      break;
    }
    const NodeLoadCounters& load = node->load;
    uint64_t net_total = load.requests + load.read_ios + load.write_ios;
    if (base_net > net_total) {
      reader.Fail(Sprintf("rate window base exceeds counters for node %u", id));
      break;
    }
    nodes_[id].window = NodeRateWindow{
        .epoch = window_epoch_,
        .base_cpu = base_cpu,
        .last_cpu = load.cpu_seconds,
        .base_net = base_net,
        .cpu_ticks = QuantizeLoadDelta(load.cpu_seconds - base_cpu, kCpuLoadQuantum),
        .net_delta = net_total - base_net};
  }
  if (!reader.ok()) return reader.status();

  // v5: load-group assignment table. Validated strictly — every storage node
  // must carry exactly one assignment, and group indices are bounded (a
  // corrupt group id would silently mis-route nodes and skew the rollup).
  load_groups_.clear();
  uint64_t group_entries = reader.Count(4 + 4);
  for (uint64_t i = 0; i < group_entries && reader.ok(); ++i) {
    NodeId id = reader.U32();
    uint32_t group = reader.U32();
    if (!reader.ok()) break;
    if (FindStorageNode(id) == nullptr) {
      reader.Fail(Sprintf("load group assigns unknown storage node %u", id));
      break;
    }
    if (group >= (1u << 20)) {
      reader.Fail(Sprintf("load group %u for node %u out of range", group, id));
      break;
    }
    if (nodes_[id].load_group != kInvalidLoadGroup) {
      reader.Fail(Sprintf("duplicate load group assignment for node %u", id));
      break;
    }
    nodes_[id].load_group = group;
    if (group >= load_groups_.size()) {
      load_groups_.resize(group + 1);
    }
  }
  for (const auto& [id, node] : storage_nodes()) {
    if (reader.ok() && nodes_[id].load_group == kInvalidLoadGroup) {
      reader.Fail(Sprintf("storage node %u missing load group assignment", id));
    }
  }
  if (!reader.ok()) return reader.status();

  clock_.Reset();
  clock_.Advance(now);
  RebuildLoadIndex();
  // Recompute derived flavor structures against the restored topology, then
  // let the flavor restore its persistent extras. This is deliberately
  // OnTopologyChangedInternal() and not NotifyTopologyChanged(): the public
  // notifier also fires coverage and fault hooks, which would corrupt the
  // separately restored coverage bitmap and fault runtime.
  OnTopologyChangedInternal();
  status = RestoreFlavorState(reader);
  if (!status.ok()) return status;
  return reader.status();
}

}  // namespace themis

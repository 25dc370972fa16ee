// The runtime fault injector.
//
// Implements the cluster's FaultHooks: it watches the execution history
// (recent operations, completed rebalance rounds, current storage variance),
// trips dormant FaultSpecs whose trigger predicate becomes satisfied, and
// then applies their effect — mutating migration plans, dropping or
// corrupting chunk moves, skewing CPU/network/storage load, hanging the
// rebalance command, or crashing a node. Effects persist until the cluster
// is reset (an imbalance failure, by definition §2.2, cannot self-recover).
//
// The injector is also the evaluation's ground truth: the campaign harness
// asks which faults were active when the detector confirmed a failure, to
// label reports as true/false positives. The *detector never reads this
// state* — it sees only load samples.

#ifndef SRC_FAULTS_INJECTOR_H_
#define SRC_FAULTS_INJECTOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/dfs/cluster.h"
#include "src/faults/fault_spec.h"

namespace themis {

struct FaultRuntime {
  FaultSpec spec;
  bool active = false;
  SimTime triggered_at = -1;
  int trigger_count = 0;  // across cluster resets
  BrickId victim_brick = kInvalidBrick;
  NodeId victim_node = kInvalidNode;
  // Sustained-variance tracking (min_variance_streak): consecutive ops with
  // storage imbalance >= spec.trigger.min_variance, and the completed round
  // count when the streak began.
  int variance_streak = 0;
  int rounds_at_streak_start = 0;
  // Number of operations at which the full predicate (minus the probability
  // gate) held — calibration telemetry.
  uint64_t satisfied_evals = 0;
  // Storage effects: the cluster's PlacementEpoch() after the last step
  // that moved nothing, 0 when none is known. While the epoch still equals
  // it, the next step would move nothing too, so it is skipped. Not saved:
  // a restored or re-picked fault walks once and relearns it.
  uint64_t idle_epoch = 0;
};

class FaultInjector : public FaultHooks {
 public:
  FaultInjector(std::vector<FaultSpec> specs, uint64_t seed);

  // ---- FaultHooks ----
  void OnOperationExecuted(DfsCluster& dfs, const Operation& op,
                           const OpResult& result) override;
  void OnRebalancePlanned(DfsCluster& dfs, MigrationPlan& plan) override;
  MigrateVerdict OnMigrateChunk(DfsCluster& dfs, const ChunkMove& move) override;
  bool SuppressRebalance(const DfsCluster& dfs) override;
  bool SuppressMetadataSync(const DfsCluster& dfs, NodeId node) override;
  void OnClusterReset(DfsCluster& dfs) override;

  // ---- ground truth for the campaign harness ----
  const std::vector<FaultRuntime>& faults() const { return faults_; }
  std::vector<std::string> ActiveFaultIds() const;
  bool AnyActive() const;
  // Ids of faults that have triggered at least once over the whole campaign.
  std::vector<std::string> EverTriggeredIds() const;

  // Checkpointing (DESIGN.md §11): per-fault runtime (matched by spec id —
  // restore fails descriptively if the configured fault set differs), the
  // rolling execution history windows, and the injector's own RNG stream.
  // The specs themselves are configuration, rebuilt from the campaign config.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  // Length of the rolling execution history, in ops.
  static constexpr size_t kHistoryLimit = 16;

  void EvaluateTriggers(DfsCluster& dfs);
  void UpdateVarianceStreaks(const DfsCluster& dfs);
  // Operator-multiset overlap between the two most recent 8-op windows.
  double Steadiness() const;
  // Whether a file operation touched data resident on the hottest brick.
  bool TouchesHottestBrick(const DfsCluster& dfs, const Operation& op) const;
  bool TriggerSatisfied(const FaultRuntime& fault, const DfsCluster& dfs) const;
  void Activate(FaultRuntime& fault, DfsCluster& dfs);
  void PickVictim(FaultRuntime& fault, DfsCluster& dfs);
  void ApplyContinuousEffects(DfsCluster& dfs);
  bool EffectTargetsStorage(EffectKind effect) const;

  std::vector<FaultRuntime> faults_;
  // Rolling execution history: the newest kHistoryLimit ops, one record
  // each, in a fixed ring.
  struct HistoryEntry {
    OpKind kind = OpKind::kCreate;
    bool hot_touch = false;  // op touched data on the hottest brick
    int rounds = 0;          // completed rebalance rounds when the op ran
    double imbalance = 0.0;  // storage imbalance after the op
  };
  std::array<HistoryEntry, kHistoryLimit> history_{};
  size_t history_size_ = 0;  // entries held, at most kHistoryLimit
  size_t history_next_ = 0;  // ring slot the next op is written to
  // The `back`-th newest entry, 1 <= back <= history_size_.
  const HistoryEntry& Recent(size_t back) const {
    return history_[(history_next_ + kHistoryLimit - back) % kHistoryLimit];
  }
  // What the newest w history entries hold, for w = 0..kHistoryLimit (an
  // entry past the history's length repeats the whole history). Rebuilt
  // once per op after the history push, so every inactive fault's trigger
  // reads its window in O(1) instead of rescanning it.
  struct WindowSummary {
    uint32_t kind_mask = 0;  // one bit per OpKind
    uint8_t class_mask = 0;  // one bit per OpClass
    int hot_touches = 0;     // entries with hot_touch set
  };
  void SummarizeWindows();
  std::array<WindowSummary, kHistoryLimit + 1> windows_{};
  Rng rng_;
};

}  // namespace themis

#endif  // SRC_FAULTS_INJECTOR_H_

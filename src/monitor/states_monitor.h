// The States Monitor (paper Fig. 9): observes the DFS's load data and feeds
// the Load Variance Model.
//
// Observation is push-based (DESIGN.md §13): the cluster streams windowed
// load aggregates and Sample() reads them in O(1) via SnapshotLoadStats,
// then closes the rate window. Adapters that do not stream (or the
// force-scan debug mode) fall back to the SampleLoadInto full scan; both
// paths feed the model through the same aggregate type, so they produce
// bit-identical snapshots.

#ifndef SRC_MONITOR_STATES_MONITOR_H_
#define SRC_MONITOR_STATES_MONITOR_H_

#include <vector>

#include "src/dfs/cluster.h"
#include "src/monitor/load_model.h"

namespace themis {

class StatesMonitor {
 public:
  explicit StatesMonitor(LoadVarianceWeights weights) : weights_(weights) {}

  // Observes the DFS, folds the reading into the variance model and closes
  // the rate window. Non-const: closing the window mutates the DFS's
  // streaming state (the scan fallback leaves the DFS untouched).
  LoadVarianceSnapshot Sample(DfsInterface& dfs);

  // O(1) mid-window reading for per-op feedback: what Sample() would return
  // right now, without closing the window or committing the EMA fold.
  // Falls back to the last committed snapshot for non-streaming adapters.
  LoadVarianceSnapshot Peek(const DfsInterface& dfs) const;

  const LoadVarianceWeights& weights() const { return weights_; }
  const LoadVarianceSnapshot& latest() const { return latest_; }
  // Raw aggregates behind latest() — variance numerators for feedback.
  const LoadStatsSnapshot& latest_stats() const { return latest_stats_; }
  // True when the last Sample() used the streaming path.
  bool last_sample_streamed() const { return last_sample_streamed_; }

  // Debug mode: force the full-scan oracle path even on streaming adapters
  // (differential testing). Set before the first Sample() and leave it: the
  // scan path does not close the DFS's rate windows, so alternating modes on
  // one monitor would compare mismatched windows.
  void set_force_scan(bool force) { force_scan_ = force; }

  // Forgets windowed state after a cluster reset.
  void ResetWindow();

  // Checkpointing (DESIGN.md §11): the variance model window and the latest
  // snapshot. latest_stats_ only feeds live per-op peeks and is
  // deliberately NOT snapshotted.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  LoadVarianceWeights weights_;
  LoadVarianceModel model_;
  LoadVarianceSnapshot latest_;
  LoadStatsSnapshot latest_stats_;
  bool force_scan_ = false;
  bool last_sample_streamed_ = false;
  std::vector<LoadSample> sample_scratch_;  // reused across scan fallbacks
};

}  // namespace themis

#endif  // SRC_MONITOR_STATES_MONITOR_H_

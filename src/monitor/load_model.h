// The Load Variance Model (paper Fig. 8).
//
// Node load data has three components: computation (CPU), network (requests
// + read/write IOs) and storage. Cumulative counters are differenced against
// the previous sampling window to obtain rates; each component's imbalance
// is summarized as max/mean across the relevant node group (the LBS quantity
// of §2.2), and the weighted combination is the variance score that guides
// the fuzzer.
//
// Since the push-based streaming API (DESIGN.md §13) the model consumes a
// LoadStatsSnapshot — an O(1) aggregate reading the cluster maintains
// incrementally. The full-scan path (OracleStats over LoadSample vectors)
// survives as the differential oracle: it must produce bit-identical
// aggregates, which is why both paths share FinalizeLoadStats and all sums
// are fixed-point integers.

#ifndef SRC_MONITOR_LOAD_MODEL_H_
#define SRC_MONITOR_LOAD_MODEL_H_

#include <vector>

#include "src/common/clock.h"
#include "src/common/snapshot_io.h"
#include "src/common/stats.h"
#include "src/dfs/load_sample.h"

namespace themis {

// Weighting factors of the three variance components (§7, Table 8 sweeps the
// storage weight). Defaults to the paper's 1/3 each.
struct LoadVarianceWeights {
  double computation = 1.0 / 3.0;
  double network = 1.0 / 3.0;
  double storage = 1.0 / 3.0;

  bool operator==(const LoadVarianceWeights&) const = default;
};

struct LoadVarianceSnapshot {
  SimTime taken_at = 0;
  // Per-component imbalance, each expressed so the detector's test
  // "ratio > 1 + t" is meaningful (1.0 = perfectly even).
  //  - storage: 1 + utilization spread (max - mean, fraction points) —
  //    the percentage-point semantics of real balancer thresholds;
  //  - computation / network: max/mean of windowed rates, compared within
  //    node groups (management vs storage) and reporting the worse group.
  double storage_ratio = 1.0;
  // Smoothed (EMA) ratios: stable under bursty per-window rates; persistent
  // skew (a faulty node absorbing every request) keeps them elevated, while
  // one heavy write burst decays away. These drive fuzzing guidance and the
  // detector's streak check.
  double computation_ratio = 1.0;
  double network_ratio = 1.0;
  // Raw single-window ratios: what a clean probe window shows. The
  // double-check's post-rebalance re-check uses these.
  double instant_computation_ratio = 1.0;
  double instant_network_ratio = 1.0;
  bool any_crashed = false;
  int serving_storage_nodes = 0;

  // Weighted variance score used as fuzzing feedback: sum of w_i * (ratio-1).
  double Score(const LoadVarianceWeights& weights) const;
  // The largest component ratio (what the anomaly detectors test against t).
  double MaxRatio() const;
};

// Derives the per-component instant ratios from one aggregate reading. The
// single place ratio math lives: the streaming path and the scan oracle both
// feed it, so their LoadVarianceSnapshots can only differ if the aggregates
// differ. EMA fields are left at their defaults — the model folds those in.
LoadVarianceSnapshot FinalizeLoadStats(const LoadStatsSnapshot& stats);

class LoadVarianceModel {
 public:
  LoadVarianceModel() = default;

  // Streaming path: folds one O(1) aggregate reading into the EMA state and
  // produces the current snapshot.
  LoadVarianceSnapshot UpdateFromStats(const LoadStatsSnapshot& stats);

  // Read-only variant for mid-window peeks (per-op feedback): returns what
  // UpdateFromStats would, without committing the EMA fold or the window.
  LoadVarianceSnapshot PreviewFromStats(const LoadStatsSnapshot& stats) const;

  // Debug/oracle scan path: rebuilds the aggregate reading from cumulative
  // samples, differencing against the previous call (and rebasing the
  // remembered window, mirroring DfsCluster::AdvanceLoadWindow).
  LoadStatsSnapshot OracleStats(const std::vector<LoadSample>& samples);

  // Scan-path convenience: OracleStats + UpdateFromStats. Adapters that do
  // not stream (SnapshotLoadStats returns false) land here.
  LoadVarianceSnapshot Update(const std::vector<LoadSample>& samples);

  // Forgets the previous window (after a cluster reset).
  void Reset();

  // Checkpointing (DESIGN.md §11): the previous sampling window and the EMA
  // accumulators — everything the next Update() differences against.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  // Previous-window cumulative counters, dense by NodeId (ids are small and
  // monotonic — the same flat-index idiom as the cluster's node indexes).
  struct PrevCounters {
    double cpu_seconds = 0.0;
    uint64_t net = 0;  // requests + read_ios + write_ios
    bool valid = false;
  };
  std::vector<PrevCounters> previous_;
  double ema_computation_ = 1.0;
  double ema_network_ = 1.0;
};

// max/mean helper treating tiny means as "no signal" (ratio 1).
double RatioWithFloor(const std::vector<double>& values, double min_mean);

// Checkpoint serializers for the snapshot value type.
void SaveLoadVarianceSnapshot(SnapshotWriter& writer,
                              const LoadVarianceSnapshot& snapshot);
void RestoreLoadVarianceSnapshot(SnapshotReader& reader,
                                 LoadVarianceSnapshot* snapshot);

}  // namespace themis

#endif  // SRC_MONITOR_LOAD_MODEL_H_

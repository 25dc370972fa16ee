// Layer tracing for the campaign benchmark, built entirely from outside the
// engine.
//
// TimedDfs is a forwarding DfsInterface that times every call the engine
// makes into the simulated cluster. RunTracedCampaign rebuilds the loop of
// Campaign::Run from public headers with that wrapper between the executor
// and the cluster, and times the strategy, the executor and the checkpoint
// writer around their calls. The rebuilt loop must reproduce the untraced
// campaign exactly; the benchmark compares the two and refuses a layer table
// that describes a different program.

#ifndef CAMPAIGN_BENCH_TRACED_CAMPAIGN_H_
#define CAMPAIGN_BENCH_TRACED_CAMPAIGN_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/dfs/cluster.h"
#include "src/harness/campaign.h"

namespace campaign_bench {

using Nanos = int64_t;

inline Nanos NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// FNV-1a 64 over a snapshot payload, to compare checkpoints across runs.
uint64_t PayloadHash(std::string_view bytes);

// DfsInterface entry points, grouped by the layer they belong to. Trivial
// accessors (Now, flavor, name) are forwarded untimed: a clock read would
// cost more than the call, and their time stays with the caller.
enum class DfsCall : int {
  kExecute = 0,    // Execute: placement, charge bookkeeping, coverage, fault hooks
  kStream,         // SnapshotLoadStats + AdvanceLoadWindow (monitor stream)
  kScan,           // SampleLoadInto (monitor full scan)
  kSync,           // FreeSpaceBytes, MembershipEpoch, List* (input-model sync)
  kTrigger,        // TriggerRebalance
  kRebalanceDone,  // RebalanceDone polls
  kAdvanceTime,    // AdvanceTime (double-check waits, background migration)
  kEnvRecovery,    // EnvRecoveryPending
  kReset,          // ResetToInitial
  kOther,          // TotalCapacityBytes, DescribeState
  kCount,
};

struct CallTally {
  uint64_t calls = 0;
  Nanos ns = 0;
};

using DfsTallies = std::array<CallTally, static_cast<size_t>(DfsCall::kCount)>;

class TimedDfs final : public themis::DfsInterface {
 public:
  explicit TimedDfs(themis::DfsInterface& inner) : inner_(inner) {}

  themis::OpResult Execute(const themis::Operation& op) override;
  bool SnapshotLoadStats(themis::LoadStatsSnapshot& out) const override;
  void AdvanceLoadWindow() override;
  void SampleLoadInto(std::vector<themis::LoadSample>& out) const override;
  themis::Status TriggerRebalance() override;
  bool RebalanceDone() const override;
  std::vector<themis::NodeId> ListMetaNodes() const override;
  std::vector<themis::NodeId> ListStorageNodes() const override;
  std::vector<themis::BrickId> ListBricks() const override;
  uint64_t FreeSpaceBytes() const override;
  uint64_t TotalCapacityBytes() const override;
  uint64_t MembershipEpoch() const override;
  themis::SimTime Now() const override { return inner_.Now(); }
  void AdvanceTime(themis::SimDuration delta) override;
  bool EnvRecoveryPending() const override;
  void ResetToInitial() override;
  themis::Flavor flavor() const override { return inner_.flavor(); }
  std::string_view name() const override { return inner_.name(); }
  std::string DescribeState() const override;

  const DfsTallies& tallies() const { return tallies_; }
  Nanos total_ns() const { return total_ns_; }

  // The double-check starts with the executor's first rebalance-state or
  // recovery poll of a test case; it ends when TestCaseExecutor::Run returns.
  // Rearm before each test case; 0 means no poll happened since.
  void RearmDoubleCheckMarker() { double_check_start_ = 0; }
  Nanos double_check_start() const { return double_check_start_; }

 private:
  class Timer;
  void MarkDoubleCheck() const;

  themis::DfsInterface& inner_;
  // Mutable: const DfsInterface calls are timed too.
  mutable DfsTallies tallies_{};
  mutable Nanos total_ns_ = 0;
  mutable Nanos double_check_start_ = 0;
};

// One traced campaign: the result the rebuilt loop produced plus the time
// each layer took. Loop times cover the testing loop only; set-up is split
// into cluster construction and the initial file population.
struct TracedCampaign {
  themis::CampaignResult result;
  Nanos setup_ns = 0;  // everything before the loop
  Nanos make_cluster_ns = 0;
  Nanos seed_initial_ns = 0;
  Nanos loop_ns = 0;           // loop entry to loop exit
  Nanos boundary_span_ns = 0;  // first to last test-case boundary
  Nanos next_ns = 0;           // Strategy::Next
  Nanos on_outcome_ns = 0;     // Strategy::OnOutcome
  Nanos executor_ns = 0;       // TestCaseExecutor::Run, DFS calls included
  Nanos executor_dfs_ns = 0;   // the DFS calls made inside Run
  Nanos double_check_ns = 0;   // first poll to Run's return, per test case
  Nanos serialize_ns = 0;      // mid-campaign snapshot payload encoding
  Nanos write_ns = 0;          // WriteSnapshotFile + PruneMidSnapshots
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  std::vector<uint64_t> checkpoint_hashes;  // PayloadHash per mid snapshot
  DfsTallies loop_dfs{};                    // DFS calls made inside the loop
};

// Runs one campaign like Campaign(config).Run(strategy_name), traced.
// Telemetry collection and resume are not supported (no workload uses them).
// Every snapshot written is read back and compared with the bytes written;
// a mismatch is an error. With `setup_only`, returns right before the loop.
themis::Result<TracedCampaign> RunTracedCampaign(const themis::CampaignConfig& config,
                                                 std::string_view strategy_name,
                                                 bool setup_only = false);

}  // namespace campaign_bench

#endif  // CAMPAIGN_BENCH_TRACED_CAMPAIGN_H_

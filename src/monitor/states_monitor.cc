#include "src/monitor/states_monitor.h"

#include "src/telemetry/metrics.h"

namespace themis {

LoadVarianceSnapshot StatesMonitor::Sample(DfsInterface& dfs) {
  if (!force_scan_ && dfs.SnapshotLoadStats(latest_stats_)) {
    last_sample_streamed_ = true;
    THEMIS_COUNTER_INC("monitor.stream_samples", 1);
    latest_ = model_.UpdateFromStats(latest_stats_);
    dfs.AdvanceLoadWindow();
  } else {
    last_sample_streamed_ = false;
    THEMIS_COUNTER_INC("monitor.scan_samples", 1);
    dfs.SampleLoadInto(sample_scratch_);
    latest_stats_ = model_.OracleStats(sample_scratch_);
    latest_ = model_.UpdateFromStats(latest_stats_);
  }
  return latest_;
}

LoadVarianceSnapshot StatesMonitor::Peek(const DfsInterface& dfs) const {
  LoadStatsSnapshot stats;
  if (!force_scan_ && dfs.SnapshotLoadStats(stats)) {
    return model_.PreviewFromStats(stats);
  }
  // Non-streaming adapter: a scan here would consume the model's window
  // (OracleStats rebases previous_), so the best side-effect-free answer is
  // the last committed snapshot.
  return latest_;
}

void StatesMonitor::ResetWindow() { model_.Reset(); }

void StatesMonitor::SaveState(SnapshotWriter& writer) const {
  model_.SaveState(writer);
  SaveLoadVarianceSnapshot(writer, latest_);
}

Status StatesMonitor::RestoreState(SnapshotReader& reader) {
  Status status = model_.RestoreState(reader);
  if (!status.ok()) return status;
  RestoreLoadVarianceSnapshot(reader, &latest_);
  return reader.status();
}

}  // namespace themis

// Serialization of campaign telemetry to files.
//
// Two formats:
//   * JSONL event streams (WriteTelemetryJsonl): every campaign event of
//     every job, one JSON object per line, in canonical job order — followed
//     by one `job_summary` line per job carrying the wall/cpu timings. The
//     event lines are a pure function of the matrix config and seed, so the
//     file is byte-identical for any --jobs value once the job_summary lines
//     (the only wall-clock-dependent records) are filtered out.
//   * BENCH_*.json metrics summaries (WriteMetricsSummaryJson): a snapshot
//     of the global metrics registry plus matrix totals, machine-readable so
//     perf trajectories can be tracked across runs.
//
// Every file is written atomically (WriteFileAtomically: temp file, then
// rename).

#ifndef SRC_HARNESS_TELEMETRY_EXPORT_H_
#define SRC_HARNESS_TELEMETRY_EXPORT_H_

#include <string>

#include "src/common/status.h"
#include "src/harness/runner.h"
#include "src/telemetry/metrics.h"

namespace themis {

// Renders the full event stream (see file comment) without touching disk.
std::string RenderTelemetryJsonl(const MatrixResult& result);

// Writes RenderTelemetryJsonl(result) to `path`. Jobs must have been run
// with CampaignConfig::collect_telemetry=true for event lines to appear;
// job_summary lines are always written.
Status WriteTelemetryJsonl(const MatrixResult& result, const std::string& path);

// Writes a single JSON object summarizing the global metrics registry and
// the matrix roll-up. `bench_name` tags the producing binary/experiment
// (e.g. "table3_methods" for BENCH_table3_methods.json).
Status WriteMetricsSummaryJson(const std::string& bench_name,
                               const MatrixResult& result,
                               const std::string& path);

// Registry-only variant for contexts without a MatrixResult at hand (the
// bench binaries, which run experiments through the driver layer): matrix
// totals are still visible through the runner.* counters.
Status WriteMetricsSummaryJson(const std::string& bench_name, double wall_seconds,
                               const std::string& path);

// The renderer behind both summaries (and the fleet's merged metrics):
// `head` opens the object and ends with ",\n"; the snapshot's counters,
// gauges and histograms follow.
std::string RenderMetricsSummaryJson(std::string head,
                                     const MetricsSnapshot& snapshot);

// Deterministic campaign summary: one JSON document with a per-job record
// (strategy, flavor, seed, result counters and the CampaignResult digest)
// in ascending job-index order, plus matrix totals. Unlike the metrics
// summary above it contains NO wall-clock fields and reads NO global
// registry state, so the rendered bytes are identical for any --jobs count
// and across kill/resume cycles — the resume-determinism tests diff it
// byte-for-byte.
std::string RenderCampaignSummaryJson(const MatrixResult& result);
Status WriteCampaignSummaryJson(const MatrixResult& result, const std::string& path);

}  // namespace themis

#endif  // SRC_HARNESS_TELEMETRY_EXPORT_H_

#include "src/harness/telemetry_export.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/snapshot_io.h"
#include "src/common/strings.h"
#include "src/dfs/types.h"
#include "src/telemetry/event_log.h"

namespace themis {

namespace {

std::string JobSummaryJson(const JobResult& job_result) {
  const CampaignJob& job = job_result.job;
  std::string status =
      job_result.status.ok() ? "ok" : JsonEscape(job_result.status.ToString());
  std::string out = Sprintf(
      "{\"job\":%llu,\"event\":\"job_summary\",\"strategy\":\"%s\","
      "\"flavor\":\"%s\",\"repetition\":%d,\"status\":\"%s\"",
      static_cast<unsigned long long>(job.index), JsonEscape(job.strategy).c_str(),
      std::string(FlavorName(job.config.flavor)).c_str(), job.repetition,
      status.c_str());
  if (job_result.status.ok()) {
    const CampaignResult& r = job_result.result;
    out += Sprintf(
        ",\"testcases\":%d,\"total_ops\":%llu,\"candidates\":%d,"
        "\"distinct_failures\":%d,\"false_positives\":%d,"
        "\"final_coverage\":%zu,\"events\":%zu",
        r.testcases, static_cast<unsigned long long>(r.total_ops), r.candidates,
        r.DistinctTruePositives(), r.false_positives, r.final_coverage,
        r.telemetry.size());
  }
  out += Sprintf(",\"wall_seconds\":%.6f,\"cpu_seconds\":%.6f}",
                 job_result.wall_seconds, job_result.cpu_seconds);
  return out;
}

// Canonical order: ascending job index, independent of the order the job
// vector was handed to RunJobs in.
std::vector<const JobResult*> SortedJobs(const MatrixResult& result) {
  std::vector<const JobResult*> jobs;
  jobs.reserve(result.jobs.size());
  for (const JobResult& job_result : result.jobs) {
    jobs.push_back(&job_result);
  }
  std::sort(jobs.begin(), jobs.end(), [](const JobResult* a, const JobResult* b) {
    return a->job.index < b->job.index;
  });
  return jobs;
}

std::string HistogramJson(const HistogramSnapshot& snapshot) {
  std::string out = Sprintf(
      "{\"count\":%llu,\"sum\":%.17g,\"mean\":%.6g,\"p50\":%.6g,\"p90\":%.6g,"
      "\"p99\":%.6g,\"buckets\":[",
      static_cast<unsigned long long>(snapshot.count), snapshot.sum,
      snapshot.mean(), snapshot.Quantile(0.5), snapshot.Quantile(0.9),
      snapshot.Quantile(0.99));
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    out += Sprintf("%s%llu", i == 0 ? "" : ",",
                   static_cast<unsigned long long>(snapshot.buckets[i]));
  }
  out += "]}";
  return out;
}

}  // namespace

std::string RenderTelemetryJsonl(const MatrixResult& result) {
  std::vector<const JobResult*> jobs = SortedJobs(result);
  std::string out;
  // Deterministic event lines first, then the wall-clock job_summary block,
  // so a determinism comparison can just drop the file's tail.
  for (const JobResult* job_result : jobs) {
    for (const CampaignEvent& event : job_result->result.telemetry) {
      out += event.ToJson(static_cast<int64_t>(job_result->job.index));
      out += '\n';
    }
  }
  for (const JobResult* job_result : jobs) {
    out += JobSummaryJson(*job_result);
    out += '\n';
  }
  return out;
}

Status WriteTelemetryJsonl(const MatrixResult& result, const std::string& path) {
  return WriteFileAtomically(path, RenderTelemetryJsonl(result));
}

std::string RenderMetricsSummaryJson(std::string head,
                                     const MetricsSnapshot& snapshot) {
  std::string out = std::move(head);
  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += Sprintf("%s\n    \"%s\": %llu", first ? "" : ",",
                   JsonEscape(name).c_str(), static_cast<unsigned long long>(value));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += Sprintf("%s\n    \"%s\": %lld", first ? "" : ",",
                   JsonEscape(name).c_str(), static_cast<long long>(value));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : snapshot.histograms) {
    out += Sprintf("%s\n    \"%s\": %s", first ? "" : ",",
                   JsonEscape(name).c_str(), HistogramJson(histogram).c_str());
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

Status WriteMetricsSummaryJson(const std::string& bench_name,
                               const MatrixResult& result,
                               const std::string& path) {
  std::string head = Sprintf(
      "{\n  \"bench\": \"%s\",\n  \"jobs\": %zu,\n  \"failed_jobs\": %d,\n"
      "  \"threads\": %d,\n  \"wall_seconds\": %.6f,\n  \"total_ops\": %llu,\n"
      "  \"distinct_failures\": %d,\n  \"false_positives\": %d,\n",
      JsonEscape(bench_name).c_str(), result.jobs.size(), result.FailedJobs(),
      result.threads, result.wall_seconds,
      static_cast<unsigned long long>(result.overall.total_ops),
      result.overall.DistinctTruePositives(), result.overall.false_positives);
  return WriteFileAtomically(
      path, RenderMetricsSummaryJson(std::move(head),
                                     MetricsRegistry::Global().Snapshot()));
}

Status WriteMetricsSummaryJson(const std::string& bench_name, double wall_seconds,
                               const std::string& path) {
  std::string head = Sprintf("{\n  \"bench\": \"%s\",\n  \"wall_seconds\": %.6f,\n",
                             JsonEscape(bench_name).c_str(), wall_seconds);
  return WriteFileAtomically(
      path, RenderMetricsSummaryJson(std::move(head),
                                     MetricsRegistry::Global().Snapshot()));
}

std::string RenderCampaignSummaryJson(const MatrixResult& result) {
  std::vector<const JobResult*> jobs = SortedJobs(result);
  std::string out = "{\n  \"jobs\": [";
  bool first_job = true;
  for (const JobResult* job_result : jobs) {
    const CampaignJob& job = job_result->job;
    out += Sprintf("%s\n    {\"job\":%llu,\"strategy\":\"%s\",\"flavor\":\"%s\","
                   "\"repetition\":%d,\"seed\":%llu",
                   first_job ? "" : ",", static_cast<unsigned long long>(job.index),
                   JsonEscape(job.strategy).c_str(),
                   std::string(FlavorName(job.config.flavor)).c_str(),
                   job.repetition, static_cast<unsigned long long>(job.config.seed));
    first_job = false;
    if (!job_result->status.ok()) {
      out += Sprintf(",\"status\":\"%s\"}",
                     JsonEscape(job_result->status.ToString()).c_str());
      continue;
    }
    const CampaignResult& r = job_result->result;
    out += Sprintf(
        ",\"status\":\"ok\",\"digest\":\"%016llx\",\"testcases\":%d,"
        "\"total_ops\":%llu,\"candidates\":%d,\"false_positives\":%d,"
        "\"final_coverage\":%zu,\"transition_coverage\":%zu,"
        "\"telemetry_events\":%zu,\"distinct_failures\":{",
        static_cast<unsigned long long>(r.Digest()), r.testcases,
        static_cast<unsigned long long>(r.total_ops), r.candidates,
        r.false_positives, r.final_coverage, r.transition_coverage,
        r.telemetry.size());
    bool first_failure = true;
    for (const auto& [id, at] : r.distinct_failures) {
      out += Sprintf("%s\"%s\":%lld", first_failure ? "" : ",",
                     JsonEscape(id).c_str(), static_cast<long long>(at));
      first_failure = false;
    }
    out += "}}";
  }
  int failed = 0;
  uint64_t total_ops = 0;
  for (const JobResult* job_result : jobs) {
    if (!job_result->status.ok()) {
      ++failed;
    } else {
      total_ops += job_result->result.total_ops;
    }
  }
  out += Sprintf("\n  ],\n  \"job_count\": %zu,\n  \"failed_jobs\": %d,\n"
                 "  \"total_ops\": %llu\n}\n",
                 jobs.size(), failed, static_cast<unsigned long long>(total_ops));
  return out;
}

Status WriteCampaignSummaryJson(const MatrixResult& result, const std::string& path) {
  return WriteFileAtomically(path, RenderCampaignSummaryJson(result));
}

}  // namespace themis

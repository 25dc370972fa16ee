// Lock-cheap process-wide metrics (counters, gauges, fixed-bucket
// histograms) for the campaign engine's operational telemetry.
//
// Design: every metric is striped across kMetricShards cache-line-padded
// atomic slots; a writer touches only the slot its thread hashes to, with one
// relaxed atomic RMW per event — no lock, no contention between the campaign
// runner's workers. Readers merge the shards on demand (Snapshot), which is
// the rare path. Metric handles are created once through the registry (the
// only mutex, cold path) and stay valid for the process lifetime, so hot
// loops cache a reference.
//
// The whole subsystem compiles to no-ops when THEMIS_TELEMETRY_DISABLED is
// defined (CMake: -DTHEMIS_TELEMETRY=OFF): recording functions become empty
// inlines and the instrumentation macros expand to nothing, so a disabled
// build pays zero cycles and perturbs nothing. Telemetry never draws from
// any Rng, preserving the campaign engine's bit-identical --jobs guarantee.

#ifndef SRC_TELEMETRY_METRICS_H_
#define SRC_TELEMETRY_METRICS_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace themis {

#if defined(THEMIS_TELEMETRY_DISABLED)
inline constexpr bool kTelemetryEnabled = false;
#else
inline constexpr bool kTelemetryEnabled = true;
#endif

// Shard count for write striping. A power of two; 16 covers far more
// hardware threads than the runner's pool ever uses while keeping the merge
// on read trivial.
inline constexpr size_t kMetricShards = 16;

// Index of the calling thread's shard (stable per thread).
size_t MetricShardIndex();

namespace internal {
struct alignas(64) PaddedAtomicU64 {
  std::atomic<uint64_t> value{0};
};
struct alignas(64) PaddedAtomicI64 {
  std::atomic<int64_t> value{0};
};
}  // namespace internal

// Monotonically increasing event count.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
#if !defined(THEMIS_TELEMETRY_DISABLED)
    shards_[MetricShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  // Merged value across shards.
  uint64_t Value() const;

 private:
#if !defined(THEMIS_TELEMETRY_DISABLED)
  internal::PaddedAtomicU64 shards_[kMetricShards];
#endif
};

// Up/down instantaneous quantity (pool sizes, in-flight jobs).
class Gauge {
 public:
  void Add(int64_t delta) {
#if !defined(THEMIS_TELEMETRY_DISABLED)
    shards_[MetricShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  void Inc() { Add(1); }
  void Dec() { Add(-1); }

  int64_t Value() const;

 private:
#if !defined(THEMIS_TELEMETRY_DISABLED)
  internal::PaddedAtomicI64 shards_[kMetricShards];
#endif
};

// Fixed-bucket histogram. Bucket i counts samples in (bounds[i-1], bounds[i]];
// the last bucket is the +inf overflow. The default layout is exponential in
// powers of 4 starting at 1 (values are typically microseconds or counts):
//   1, 4, 16, ..., 4^14, +inf  — kHistogramBuckets buckets total.
inline constexpr size_t kHistogramBuckets = 16;

struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  // Smallest and largest recorded sample; unbounded when unknown.
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  uint64_t buckets[kHistogramBuckets] = {};

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  // Upper bound of bucket i (+inf for the last); shared fixed layout.
  static double BucketBound(size_t i);
  // Linear-interpolated quantile estimate from the bucket counts, q in [0,1],
  // clamped to [min, max].
  double Quantile(double q) const;
};

class Histogram {
 public:
  void Record(double value);

  HistogramSnapshot Snapshot() const;

 private:
#if !defined(THEMIS_TELEMETRY_DISABLED)
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_bits{0};  // double bits, CAS-accumulated
    std::atomic<uint64_t> min_bits{
        std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity())};
    std::atomic<uint64_t> max_bits{
        std::bit_cast<uint64_t>(-std::numeric_limits<double>::infinity())};
    std::atomic<uint64_t> buckets[kHistogramBuckets]{};
  };
  Shard shards_[kMetricShards];
#endif
};

// One merged view of every registered metric, for the --metrics-summary
// table and the machine-readable bench summary.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Handles are created on first use and live for the process lifetime;
  // callers cache the reference (the THEMIS_* macros do).
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  // Plain-text summary table ("--metrics-summary"): one row per metric,
  // histograms rendered as count/mean/p50/p99.
  std::string RenderSummary() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  // std::map: node-based, so handle references stay stable across inserts.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// Instrumentation macros: cache the handle in a function-local static so the
// registry lookup happens once per site; expand to nothing when disabled.
#if !defined(THEMIS_TELEMETRY_DISABLED)
#define THEMIS_COUNTER_INC(name, n)                                    \
  do {                                                                 \
    static ::themis::Counter& themis_counter_handle =                  \
        ::themis::MetricsRegistry::Global().GetCounter(name);          \
    themis_counter_handle.Inc(n);                                      \
  } while (0)
#define THEMIS_HISTOGRAM_RECORD(name, value)                           \
  do {                                                                 \
    static ::themis::Histogram& themis_histogram_handle =              \
        ::themis::MetricsRegistry::Global().GetHistogram(name);        \
    themis_histogram_handle.Record(value);                             \
  } while (0)
#else
#define THEMIS_COUNTER_INC(name, n) \
  do {                              \
  } while (0)
#define THEMIS_HISTOGRAM_RECORD(name, value) \
  do {                                       \
  } while (0)
#endif

}  // namespace themis

#endif  // SRC_TELEMETRY_METRICS_H_

#include "src/telemetry/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <thread>

#include "src/common/strings.h"

namespace themis {

size_t MetricShardIndex() {
  // Hash the thread id once per thread; the pool's workers land on distinct
  // shards with high probability and never migrate.
  static thread_local const size_t index =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kMetricShards;
  return index;
}

uint64_t Counter::Value() const {
#if !defined(THEMIS_TELEMETRY_DISABLED)
  uint64_t total = 0;
  for (const internal::PaddedAtomicU64& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
#else
  return 0;
#endif
}

int64_t Gauge::Value() const {
#if !defined(THEMIS_TELEMETRY_DISABLED)
  int64_t total = 0;
  for (const internal::PaddedAtomicI64& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
#else
  return 0;
#endif
}

double HistogramSnapshot::BucketBound(size_t i) {
  if (i + 1 >= kHistogramBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  // 1, 4, 16, ..., 4^14.
  return std::pow(4.0, static_cast<double>(i));
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(count);
  double estimate = BucketBound(kHistogramBuckets - 2);
  uint64_t seen = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    uint64_t in_bucket = buckets[i];
    if (static_cast<double>(seen + in_bucket) >= target && in_bucket > 0) {
      double lo = i == 0 ? 0.0 : BucketBound(i - 1);
      double hi = BucketBound(i);
      // The overflow bucket has no upper edge to interpolate to.
      double fraction = (target - static_cast<double>(seen)) /
                        static_cast<double>(in_bucket);
      estimate = std::isinf(hi) ? lo : lo + fraction * (hi - lo);
      break;
    }
    seen += in_bucket;
  }
  // Interpolation spreads a bucket's samples over its whole width; the
  // recorded extremes bound every true quantile (min > max only after a NaN
  // sample).
  return min <= max ? std::clamp(estimate, min, max) : estimate;
}

#if !defined(THEMIS_TELEMETRY_DISABLED)
namespace {

size_t BucketFor(double value) {
  for (size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    if (value <= HistogramSnapshot::BucketBound(i)) {
      return i;
    }
  }
  return kHistogramBuckets - 1;
}

// Folds `value` into a double kept as bits, by CAS. Contention is already
// absorbed by the shard striping, so the loop almost never retries, and a
// fold that leaves the value unchanged (min/max) skips the write.
template <typename Fold>
void FoldDouble(std::atomic<uint64_t>& bits, double value, Fold fold) {
  uint64_t observed = bits.load(std::memory_order_relaxed);
  while (true) {
    uint64_t desired =
        std::bit_cast<uint64_t>(fold(std::bit_cast<double>(observed), value));
    if (desired == observed ||
        bits.compare_exchange_weak(observed, desired,
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace
#endif

void Histogram::Record(double value) {
#if !defined(THEMIS_TELEMETRY_DISABLED)
  Shard& shard = shards_[MetricShardIndex()];
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.buckets[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  FoldDouble(shard.sum_bits, value, [](double a, double b) { return a + b; });
  FoldDouble(shard.min_bits, value,
             [](double a, double b) { return std::min(a, b); });
  FoldDouble(shard.max_bits, value,
             [](double a, double b) { return std::max(a, b); });
#else
  (void)value;
#endif
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot out;
#if !defined(THEMIS_TELEMETRY_DISABLED)
  out.min = std::numeric_limits<double>::infinity();
  out.max = -std::numeric_limits<double>::infinity();
  for (const Shard& shard : shards_) {
    out.count += shard.count.load(std::memory_order_relaxed);
    out.sum += std::bit_cast<double>(shard.sum_bits.load(std::memory_order_relaxed));
    out.min = std::min(
        out.min, std::bit_cast<double>(shard.min_bits.load(std::memory_order_relaxed)));
    out.max = std::max(
        out.max, std::bit_cast<double>(shard.max_bits.load(std::memory_order_relaxed)));
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      out.buckets[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
#endif
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    out.counters[name] = counter.Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    out.gauges[name] = gauge.Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    out.histograms[name] = histogram.Snapshot();
  }
  return out;
}

std::string MetricsRegistry::RenderSummary() const {
  MetricsSnapshot snapshot = Snapshot();
  std::string out;
  out += Sprintf("%-40s %16s\n", "metric", "value");
  out += std::string(57, '-') + "\n";
  for (const auto& [name, value] : snapshot.counters) {
    out += Sprintf("%-40s %16llu\n", name.c_str(),
                   static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out += Sprintf("%-40s %16lld\n", name.c_str(), static_cast<long long>(value));
  }
  for (const auto& [name, h] : snapshot.histograms) {
    out += Sprintf("%-40s count=%llu mean=%.1f p50=%.1f p99=%.1f\n", name.c_str(),
                   static_cast<unsigned long long>(h.count), h.mean(),
                   h.Quantile(0.5), h.Quantile(0.99));
  }
  return out;
}

}  // namespace themis

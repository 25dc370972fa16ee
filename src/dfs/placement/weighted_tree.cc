#include "src/dfs/placement/weighted_tree.h"

#include <algorithm>
#include <cmath>

namespace themis {

WeightedTree::WeightedTree(int buckets) : buckets_(buckets > 0 ? buckets : 1) {}

void WeightedTree::Clear() { inserted_.clear(); }

void WeightedTree::Insert(const WeightedTarget& target) {
  double f = std::clamp(target.used_fraction, 0.0, 1.0);
  int bucket = static_cast<int>(f * buckets_);
  if (bucket >= buckets_) {
    bucket = buckets_ - 1;
  }
  inserted_.emplace_back(bucket, target.brick);
}

const std::vector<BrickId>& WeightedTree::SortByLoad(Rng& rng) {
  // Stable counting sort by bucket: each bucket's targets in insertion order.
  bucket_start_.assign(static_cast<size_t>(buckets_) + 1, 0);
  for (const auto& [bucket, brick] : inserted_) {
    ++bucket_start_[static_cast<size_t>(bucket) + 1];
  }
  for (size_t b = 1; b < bucket_start_.size(); ++b) {
    bucket_start_[b] += bucket_start_[b - 1];
  }
  sorted_.resize(inserted_.size());
  for (const auto& [bucket, brick] : inserted_) {
    sorted_[bucket_start_[static_cast<size_t>(bucket)]++] = brick;
  }
  // bucket_start_[b] now holds the end of bucket b. Collections.shuffle(l)
  // over nodes with the same weight, light buckets first.
  size_t start = 0;
  for (size_t b = 0; b < static_cast<size_t>(buckets_); ++b) {
    size_t end = bucket_start_[b];
    for (size_t i = end; i > start + 1; --i) {
      size_t j = start + rng.PickIndex(i - start);
      std::swap(sorted_[i - 1], sorted_[j]);
    }
    start = end;
  }
  return sorted_;
}

std::vector<BrickId> WeightedTree::ChooseLeastLoaded(int n, Rng& rng) {
  const std::vector<BrickId>& sorted = SortByLoad(rng);
  size_t keep = n >= 0 ? std::min(static_cast<size_t>(n), sorted.size()) : sorted.size();
  return std::vector<BrickId>(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(keep));
}

}  // namespace themis

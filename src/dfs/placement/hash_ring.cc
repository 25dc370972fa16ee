#include "src/dfs/placement/hash_ring.h"

#include <algorithm>

#include "src/common/rng.h"

namespace themis {

namespace {

constexpr auto kPosBefore = [](const auto& point, uint64_t pos) { return point.pos < pos; };
constexpr auto kPosLess = [](const auto& a, const auto& b) { return a.pos < b.pos; };

auto TargetSlot(auto& targets, BrickId target) {
  return std::lower_bound(targets.begin(), targets.end(), target,
                          [](const auto& entry, BrickId id) { return entry.first < id; });
}

}  // namespace

HashRing::HashRing(int vnodes_per_target)
    : vnodes_(vnodes_per_target > 0 ? vnodes_per_target : 1) {}

void HashRing::AddTarget(BrickId target, double weight) {
  auto slot = TargetSlot(targets_, target);
  if (slot != targets_.end() && slot->first == target) {
    return;
  }
  int vnodes = static_cast<int>(static_cast<double>(vnodes_) * weight);
  vnodes = std::clamp(vnodes, 4, 4 * vnodes_);
  targets_.insert(slot, {target, vnodes});
  std::vector<Point> planted;
  planted.reserve(static_cast<size_t>(vnodes));
  for (int v = 0; v < vnodes; ++v) {
    uint64_t pos = HashCombine(Mix64(target + 0x9e37ULL), static_cast<uint64_t>(v));
    // Resolve (vanishingly rare) collisions by probing, against the ring and
    // against this target's own earlier vnodes.
    auto taken = [&](uint64_t p) {
      auto it = std::lower_bound(ring_.begin(), ring_.end(), p, kPosBefore);
      return (it != ring_.end() && it->pos == p) ||
             std::any_of(planted.begin(), planted.end(),
                         [p](const Point& q) { return q.pos == p; });
    };
    while (taken(pos)) {
      pos = Mix64(pos);
    }
    planted.push_back(Point{.pos = pos, .target = target});
  }
  std::sort(planted.begin(), planted.end(), kPosLess);
  size_t old_size = ring_.size();
  ring_.insert(ring_.end(), planted.begin(), planted.end());
  std::inplace_merge(ring_.begin(), ring_.begin() + static_cast<ptrdiff_t>(old_size),
                     ring_.end(), kPosLess);
}

void HashRing::RemoveTarget(BrickId target) {
  auto slot = TargetSlot(targets_, target);
  if (slot == targets_.end() || slot->first != target) {
    return;
  }
  targets_.erase(slot);
  std::erase_if(ring_, [target](const Point& point) { return point.target == target; });
}

bool HashRing::HasTarget(BrickId target) const { return VnodeCount(target) != 0; }

int HashRing::VnodeCount(BrickId target) const {
  auto slot = TargetSlot(targets_, target);
  return slot != targets_.end() && slot->first == target ? slot->second : 0;
}

std::vector<HashRing::Point>::const_iterator HashRing::FirstAtOrAfter(uint64_t key_hash) const {
  auto it = std::lower_bound(ring_.begin(), ring_.end(), key_hash, kPosBefore);
  return it == ring_.end() ? ring_.begin() : it;
}

std::vector<BrickId> HashRing::Locate(uint64_t key_hash, int replicas) const {
  std::vector<BrickId> out;
  if (ring_.empty() || replicas <= 0) {
    return out;
  }
  size_t want = std::min(static_cast<size_t>(replicas), targets_.size());
  auto it = FirstAtOrAfter(key_hash);
  for (size_t steps = 0; out.size() < want && steps < 2 * ring_.size(); ++steps) {
    if (it == ring_.end()) {
      it = ring_.begin();
    }
    if (std::find(out.begin(), out.end(), it->target) == out.end()) {
      out.push_back(it->target);
    }
    ++it;
  }
  return out;
}

BrickId HashRing::Primary(uint64_t key_hash) const {
  return ring_.empty() ? kInvalidBrick : FirstAtOrAfter(key_hash)->target;
}

std::vector<BrickId> HashRing::Targets() const {
  std::vector<BrickId> out;
  out.reserve(targets_.size());
  for (const auto& [target, vnodes] : targets_) {
    (void)vnodes;
    out.push_back(target);
  }
  return out;
}

}  // namespace themis

#include "src/dfs/placement/crush_map.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"

namespace themis {

CrushMap::CrushMap(uint32_t pg_count)
    : pg_count_(pg_count > 0 ? pg_count : 1), pg_memo_(pg_count_) {}

std::vector<CrushMap::Target>::const_iterator CrushMap::FindTarget(BrickId target) const {
  auto it = std::lower_bound(targets_.begin(), targets_.end(), target,
                             [](const Target& t, BrickId id) { return t.id < id; });
  return it != targets_.end() && it->id == target ? it : targets_.end();
}

void CrushMap::Invalidate() {
  for (std::vector<BrickId>& picks : pg_memo_) {
    picks.clear();
  }
}

void CrushMap::SetTargetWeight(BrickId target, double weight) {
  if (weight <= 0.0) {
    auto it = FindTarget(target);
    if (it != targets_.end()) {
      targets_.erase(it);
      Invalidate();
    }
    return;
  }
  auto it = std::lower_bound(targets_.begin(), targets_.end(), target,
                             [](const Target& t, BrickId id) { return t.id < id; });
  if (it != targets_.end() && it->id == target) {
    if (it->weight == weight) {
      return;
    }
    it->weight = weight;
  } else {
    targets_.insert(it, Target{.id = target, .weight = weight, .mix = Mix64(target)});
  }
  Invalidate();
}

void CrushMap::RemoveTarget(BrickId target) {
  SetTargetWeight(target, 0.0);
  // Upmaps pointing at a vanished target are stale; drop them.
  for (auto it = upmaps_.begin(); it != upmaps_.end();) {
    if (it->second == target) {
      it = upmaps_.erase(it);
    } else {
      ++it;
    }
  }
}

bool CrushMap::HasTarget(BrickId target) const { return FindTarget(target) != targets_.end(); }

double CrushMap::TargetWeight(BrickId target) const {
  auto it = FindTarget(target);
  return it == targets_.end() ? 0.0 : it->weight;
}

void CrushMap::Straw2(uint32_t pg, size_t want, std::vector<BrickId>& out) const {
  const uint64_t pg_seed = Mix64(pg + 0x5bd1ULL);
  // Every round adds one pick while untaken targets remain, so round r runs
  // with the r earlier picks taken.
  for (uint32_t round = static_cast<uint32_t>(out.size()); out.size() < want; ++round) {
    // Per target: Mix64(HashCombine(seed, target)), with HashCombine's
    // seed-only terms hoisted out of the loop. The final Mix64 pass matters:
    // HashCombine alone is too linear in its seed, which correlates the
    // per-target draws and skews the weight proportionality.
    const uint64_t seed = HashCombine(pg_seed, round);
    const uint64_t seed_terms = 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4);
    // straw2: draw = ln(u) / weight, u in (0,1]; argmax wins.
    BrickId best = kInvalidBrick;
    double best_draw = -1e300;
    for (const Target& target : targets_) {
      if (std::find(out.begin(), out.end(), target.id) != out.end()) {
        continue;
      }
      uint64_t h = Mix64(seed ^ (target.mix + seed_terms));
      // Map to (0, 1]: add 1 so u never hits exactly 0.
      double u = (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
      double draw = std::log(u) / target.weight;
      if (draw > best_draw) {
        best_draw = draw;
        best = target.id;
      }
    }
    if (best == kInvalidBrick) {
      break;
    }
    out.push_back(best);
  }
}

std::vector<BrickId> CrushMap::RawMap(uint32_t pg, int replicas) const {
  if (targets_.empty() || replicas <= 0) {
    return {};
  }
  size_t want = std::min(static_cast<size_t>(replicas), targets_.size());
  if (pg >= pg_memo_.size()) {
    std::vector<BrickId> out;
    Straw2(pg, want, out);
    return out;
  }
  std::vector<BrickId>& picks = pg_memo_[pg];
  if (picks.size() < want) {
    Straw2(pg, want, picks);
  }
  return std::vector<BrickId>(picks.begin(),
                              picks.begin() + static_cast<ptrdiff_t>(std::min(want, picks.size())));
}

std::vector<BrickId> CrushMap::Map(uint32_t pg, int replicas) const {
  std::vector<BrickId> mapped = RawMap(pg, replicas);
  auto it = upmaps_.find(pg);
  if (it == upmaps_.end() || mapped.empty()) {
    return mapped;
  }
  BrickId pinned = it->second;
  if (!HasTarget(pinned)) {
    return mapped;  // stale pin
  }
  // Move `pinned` to the primary slot; if it was not in the set, replace the
  // primary with it.
  for (size_t i = 0; i < mapped.size(); ++i) {
    if (mapped[i] == pinned) {
      std::swap(mapped[0], mapped[i]);
      return mapped;
    }
  }
  mapped[0] = pinned;
  return mapped;
}

void CrushMap::Upmap(uint32_t pg, BrickId target) { upmaps_[pg % pg_count_] = target; }

void CrushMap::ClearUpmap(uint32_t pg) { upmaps_.erase(pg % pg_count_); }

void CrushMap::ClearAllUpmaps() { upmaps_.clear(); }

std::vector<BrickId> CrushMap::Targets() const {
  std::vector<BrickId> out;
  out.reserve(targets_.size());
  for (const Target& target : targets_) {
    out.push_back(target.id);
  }
  return out;
}

}  // namespace themis

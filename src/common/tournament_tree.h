// A tournament (segment) tree over dense ids: each present id carries a key,
// and Top() names the id whose key beats every other, the smallest id among
// equal keys. Set and Erase are O(log n) point updates; Top is O(1). A
// bulk load (Hold, then Release) writes leaves only and plays every match
// once at the end, O(n) for n updates.
//
// Ids are relative to the `first` id given to Clear, so a table whose low
// ids a reset retired costs no leaves for them. The leaf level is sized by
// Clear's span hint and grows by half past the highest id set, never
// shrinking; memory is sizeof(Key) + 8 bytes per leaf.
//
// `Beats(a, b)` is a strict weak order on keys: true when key `a` must win
// over key `b` (std::greater<> keeps the largest key on top, std::less<> the
// smallest). Keys that neither beats are ties, resolved to the smaller id.

#ifndef SRC_COMMON_TOURNAMENT_TREE_H_
#define SRC_COMMON_TOURNAMENT_TREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace themis {

template <typename Key, typename Beats>
class TournamentTree {
 public:
  // Top() of an empty tree; equal to kInvalidNode and kInvalidBrick.
  static constexpr uint32_t kNone = 0xffffffffu;

  // Removes every id and sizes the leaves for ids [first, first + span).
  // Ids below `first` must not be set until the next Clear.
  void Clear(uint32_t first, size_t span = 0) {
    first_ = first;
    std::fill(winners_.begin(), winners_.end(), kNone);
    if (span > leaves()) {
      Grow(span);
    }
  }

  bool empty() const { return Top() == kNone; }
  uint32_t Top() const { return winners_.size() > 1 ? winners_[1] : kNone; }
  // The winning key; only meaningful when the tree is not empty.
  const Key& TopKey() const { return keys_[winners_[1] - first_]; }

  // Inserts `id` or replaces its key.
  void Set(uint32_t id, const Key& key) {
    size_t offset = id - first_;
    if (offset >= leaves()) {
      Grow(offset + 1);
    }
    keys_[offset] = key;
    winners_[leaves() + offset] = id;
    Replay(leaves() + offset, id);
  }

  // Removes `id`; a no-op when it is not present.
  void Erase(uint32_t id) {
    size_t offset = id - first_;
    if (offset >= leaves() || winners_[leaves() + offset] == kNone) {
      return;
    }
    winners_[leaves() + offset] = kNone;
    Replay(leaves() + offset, id);
  }

  // Between Hold and Release, Set and Erase write only their leaf and Top()
  // is stale; Release plays every match once.
  void Hold() { held_ = true; }
  void Release() {
    held_ = false;
    PlayAll();
  }

 private:
  // winners_ is heap-ordered: the root at 1, the children of i at 2i and
  // 2i + 1, leaf `offset` at leaves() + offset (any leaf count works: every
  // slot above 1 has one parent). Each slot holds the id that won its
  // subtree, kNone when the subtree is empty.
  size_t leaves() const { return keys_.size(); }

  // The winner of the match at `parent`: the better key, else the smaller
  // id (a leaf count that is not a power of two leaves subtrees unordered).
  uint32_t Match(size_t parent) const {
    uint32_t left = winners_[2 * parent];
    uint32_t right = winners_[2 * parent + 1];
    if (left == kNone || right == kNone) {
      return left == kNone ? right : left;
    }
    const Key& left_key = keys_[left - first_];
    const Key& right_key = keys_[right - first_];
    if (Beats{}(left_key, right_key)) return left;
    if (Beats{}(right_key, left_key)) return right;
    return std::min(left, right);
  }

  // Re-plays the matches on the path from `slot` (whose leaf `id` changed)
  // to the root. Once a match's winner is unchanged and is not `id`, nothing
  // above it can change either.
  void Replay(size_t slot, uint32_t id) {
    if (held_) {
      return;
    }
    for (size_t parent = slot / 2; parent >= 1; parent /= 2) {
      uint32_t winner = Match(parent);
      if (winner == winners_[parent] && winner != id) {
        return;
      }
      winners_[parent] = winner;
    }
  }

  // Widens the leaf level to at least `count` leaves.
  void Grow(size_t count) {
    size_t old_leaves = leaves();
    size_t new_leaves = std::max(count, old_leaves + old_leaves / 2);
    keys_.resize(new_leaves);
    std::vector<uint32_t> grown(2 * new_leaves, kNone);
    std::copy(winners_.begin() + old_leaves, winners_.end(), grown.begin() + new_leaves);
    winners_ = std::move(grown);
    if (!held_) {
      PlayAll();
    }
  }

  void PlayAll() {
    for (size_t parent = leaves(); parent-- > 1;) {
      winners_[parent] = Match(parent);
    }
  }

  uint32_t first_ = 0;
  bool held_ = false;
  std::vector<Key> keys_;          // by leaf offset
  std::vector<uint32_t> winners_;  // 2 * leaves() slots
};

}  // namespace themis

#endif  // SRC_COMMON_TOURNAMENT_TREE_H_

// Dense id-indexed tables. The cluster keeps each node, brick and file
// layout in slot `id` of an IdTable; a slot is vacant when its record is
// gone or of another kind. Slots live in pages allocated on first use, so
// growth never moves a slot, ids a reset retired cost no pages, and no
// allocation is fleet-sized (freeing one makes glibc serve later ones from
// a fragmenting heap).
//
// IdRange walks a table in id order, skipping slots for which `Get(slot)`
// returns null: `for (const auto& [id, brick] : dfs.bricks()) { ... }`.

#ifndef SRC_DFS_ID_TABLE_H_
#define SRC_DFS_ID_TABLE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace themis {

// Snapshots naming an id at or above this are rejected as corrupt.
inline constexpr uint64_t kMaxTableId = uint64_t{1} << 24;

template <typename Slot>
class IdTable {
 public:
  size_t size() const { return size_; }
  // The lowest grown id; walks skip the ids a reset retired below it.
  size_t first() const { return std::min(first_, size_); }
  // Slot `id`, which must have been grown.
  Slot& operator[](uint64_t id) { return *Find(id); }
  const Slot& operator[](uint64_t id) const { return *Find(id); }
  // Slot `id`; null when no slot of its page was grown.
  Slot* Find(uint64_t id) { return const_cast<Slot*>(std::as_const(*this).Find(id)); }
  const Slot* Find(uint64_t id) const {
    const Page* page = id < size_ ? pages_[id / kPageSlots].get() : nullptr;
    return page != nullptr ? &(*page)[id % kPageSlots] : nullptr;
  }
  // Slot `id`, growing the table to reach it.
  Slot& Grow(uint64_t id) {
    pages_.resize(std::max<size_t>(pages_.size(), id / kPageSlots + 1));
    std::unique_ptr<Page>& page = pages_[id / kPageSlots];
    if (page == nullptr) page = std::make_unique<Page>();
    size_ = std::max<size_t>(size_, id + 1);
    first_ = std::min<size_t>(first_, id);
    return (*page)[id % kPageSlots];
  }

 private:
  static constexpr size_t kPageSlots = 256;
  using Page = std::array<Slot, kPageSlots>;
  std::vector<std::unique_ptr<Page>> pages_;
  size_t size_ = 0;  // highest grown id + 1
  size_t first_ = SIZE_MAX;
};

template <typename Id, typename Slot, auto Get>
class IdRange {
 public:
  using Record = std::remove_pointer_t<decltype(Get(std::declval<const Slot*>()))>;
  using value_type = std::pair<Id, Record&>;

  class iterator {
   public:
    iterator(const IdTable<Slot>* slots, size_t index) : slots_(slots), index_(index) {
      for (; index_ < slots_->size() && Get(slots_->Find(index_)) == nullptr; ++index_) {}
    }
    value_type operator*() const {
      return {static_cast<Id>(index_), *Get(slots_->Find(index_))};
    }
    iterator& operator++() { return *this = iterator(slots_, index_ + 1); }
    bool operator==(const iterator& other) const { return index_ == other.index_; }

   private:
    const IdTable<Slot>* slots_;
    size_t index_;
  };

  explicit IdRange(const IdTable<Slot>& slots) : slots_(&slots) {}
  iterator begin() const { return {slots_, slots_->first()}; }
  iterator end() const { return {slots_, slots_->size()}; }
  size_t count() const {  // O(table size)
    size_t records = 0;
    for (iterator it = begin(); it != end(); ++it) ++records;
    return records;
  }

 private:
  const IdTable<Slot>* slots_;
};

}  // namespace themis

#endif  // SRC_DFS_ID_TABLE_H_

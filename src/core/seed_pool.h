// The seeds pool (§4.1 step 3 / step 9): test cases that enlarged the load
// variance, hit new coverage, or exposed failures are retained and
// prioritized for mutation.

#ifndef SRC_CORE_SEED_POOL_H_
#define SRC_CORE_SEED_POOL_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/core/opseq.h"

namespace themis {

struct Seed {
  OpSeq seq;
  double score = 0.0;  // priority (variance gain + bonuses)
  uint64_t id = 0;
  int selections = 0;
  uint64_t fingerprint = 0;  // OpSeqFingerprint(seq), the corpus dedup key
  bool imported = false;     // arrived via fleet corpus exchange, not Add()
};

// What Add/ImportSeed did over this object's lifetime; checkpoints do not
// carry them. The seed_pool.* telemetry counters mirror these.
struct SeedPoolCounts {
  uint64_t adds = 0;             // Add calls whose seed entered the pool
  uint64_t imports = 0;          // ImportSeed calls whose seed entered it
  uint64_t evictions = 0;        // resident seeds evicted to make room
  uint64_t dropped = 0;          // inserts refused: the pool was full of better seeds
  uint64_t import_dups = 0;      // imports of a fingerprint already seen here
  uint64_t import_rejected = 0;  // imports of an empty sequence
};

class SeedPool {
 public:
  explicit SeedPool(size_t capacity = 256);

  void Add(OpSeq seq, double score);

  // Fleet corpus-exchange entry point (DESIGN.md §17). Inserts a seed that
  // another worker published, deduplicated by fingerprint against every
  // sequence this pool has ever held (including evicted ones — a seed the
  // pool already judged is not news). A duplicate import is a no-op except
  // for an energy merge: the resident seed's score becomes
  // max(resident, imported), which is commutative and idempotent, so the
  // pool converges to the same energies regardless of import order.
  // Returns true when a new seed entered the pool. Empty sequences are
  // rejected. The import path never allocates seed ids ahead of Add(), so
  // a run that imports only its own published seeds (the single-worker
  // fleet) stays bit-identical to a run with no corpus at all.
  bool ImportSeed(OpSeq seq, double score, uint64_t fingerprint);

  // Score-weighted selection with a mild freshness bonus (rarely selected
  // seeds get a boost), AFL-style.
  const OpSeq& Select(Rng& rng);

  bool empty() const { return seeds_.empty(); }
  size_t size() const { return seeds_.size(); }
  double best_score() const;

  // Whether a fingerprint was ever added, imported, or evicted here.
  bool SeenFingerprint(uint64_t fingerprint) const {
    return seen_.count(fingerprint) != 0;
  }

  // Read-only view of the pool, for checkpoint round-trip verification.
  const std::vector<Seed>& seeds() const { return seeds_; }
  const SeedPoolCounts& counts() const { return counts_; }

  // Checkpointing (DESIGN.md §11): the seeds (sequences, scores, selection
  // counters, fingerprints), the id allocator, and the seen-fingerprint set
  // (sorted, so the encoding is canonical). Capacity comes from the
  // constructor.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  // Shared insert tail for Add/ImportSeed: evict-worst when full, then
  // append. Returns false when the pool was full of better seeds.
  bool Insert(OpSeq seq, double score, uint64_t fingerprint, bool imported);

  std::vector<Seed> seeds_;
  size_t capacity_;
  uint64_t next_id_ = 1;
  // Dedup history. Only ever membership-tested (never iterated except in
  // sorted order for SaveState), so the unordered layout cannot leak into
  // campaign behavior.
  std::unordered_set<uint64_t> seen_;
  SeedPoolCounts counts_;
};

}  // namespace themis

#endif  // SRC_CORE_SEED_POOL_H_

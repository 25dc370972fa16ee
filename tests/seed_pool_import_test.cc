// Satellite coverage for the fleet corpus-exchange entry point on SeedPool
// (DESIGN.md §17): fingerprint dedup, commutative energy merge, eviction
// counter consistency under interleaved Add/ImportSeed, and the seen-set
// snapshot validation added in format v7.

#include "src/core/seed_pool.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/snapshot_io.h"
#include "src/core/opseq.h"
#include "src/dfs/operation.h"

namespace themis {
namespace {

Operation TestOperation(Rng& rng) {
  Operation op;
  op.kind = OpKindFromIndex(static_cast<int>(rng.NextRange(0, kOpKindCount - 1)));
  op.path = "/f" + std::to_string(rng.NextBelow(1000));
  op.size = rng.NextBelow(1 << 20);
  return op;
}

OpSeq TestSeq(Rng& rng) {
  OpSeq seq;
  int len = static_cast<int>(rng.NextRange(1, 8));
  for (int i = 0; i < len; ++i) {
    seq.ops.push_back(TestOperation(rng));
  }
  return seq;
}

TEST(SeedPoolImportTest, NewSeedEntersPoolMarkedImported) {
  SeedPool pool(8);
  Rng rng(1);
  OpSeq seq = TestSeq(rng);
  uint64_t fingerprint = OpSeqFingerprint(seq);
  EXPECT_TRUE(pool.ImportSeed(seq, 0.5, fingerprint));
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.seeds()[0].imported);
  EXPECT_EQ(pool.seeds()[0].fingerprint, fingerprint);
  EXPECT_TRUE(pool.SeenFingerprint(fingerprint));
}

TEST(SeedPoolImportTest, DuplicateFingerprintImportIsANoOp) {
  SeedPool pool(8);
  Rng rng(2);
  OpSeq seq = TestSeq(rng);
  uint64_t fingerprint = OpSeqFingerprint(seq);
  pool.Add(seq, 0.4);
  ASSERT_EQ(pool.size(), 1u);
  // Same sequence arriving from a peer: no new pool entry, no new id, and
  // the resident seed stays the locally-added (non-imported) copy.
  EXPECT_FALSE(pool.ImportSeed(seq, 0.1, fingerprint));
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_FALSE(pool.seeds()[0].imported);
  // Re-importing the same fingerprint any number of times changes nothing.
  EXPECT_FALSE(pool.ImportSeed(seq, 0.1, fingerprint));
  EXPECT_EQ(pool.size(), 1u);
}

TEST(SeedPoolImportTest, DuplicateImportMergesEnergyUpward) {
  SeedPool pool(8);
  Rng rng(3);
  OpSeq seq = TestSeq(rng);
  uint64_t fingerprint = OpSeqFingerprint(seq);
  pool.Add(seq, 0.4);
  EXPECT_FALSE(pool.ImportSeed(seq, 0.9, fingerprint));
  EXPECT_DOUBLE_EQ(pool.seeds()[0].score, 0.9);
  // A lower-energy duplicate never drags the resident score down.
  EXPECT_FALSE(pool.ImportSeed(seq, 0.2, fingerprint));
  EXPECT_DOUBLE_EQ(pool.seeds()[0].score, 0.9);
}

TEST(SeedPoolImportTest, EnergyMergeIsCommutative) {
  Rng rng(4);
  OpSeq seq = TestSeq(rng);
  uint64_t fingerprint = OpSeqFingerprint(seq);

  SeedPool ab(8);
  ab.Add(seq, 0.3);
  ab.ImportSeed(seq, 0.7, fingerprint);
  ab.ImportSeed(seq, 0.5, fingerprint);

  SeedPool ba(8);
  ba.Add(seq, 0.3);
  ba.ImportSeed(seq, 0.5, fingerprint);
  ba.ImportSeed(seq, 0.7, fingerprint);

  ASSERT_EQ(ab.size(), 1u);
  ASSERT_EQ(ba.size(), 1u);
  EXPECT_DOUBLE_EQ(ab.seeds()[0].score, ba.seeds()[0].score);
  EXPECT_DOUBLE_EQ(ab.seeds()[0].score, 0.7);
}

TEST(SeedPoolImportTest, EmptySequenceIsRejected) {
  SeedPool pool(8);
  EXPECT_FALSE(pool.ImportSeed(OpSeq{}, 1.0, 42));
  EXPECT_EQ(pool.size(), 0u);
  // A rejected import must not poison the dedup history: the fingerprint
  // stays importable once a valid sequence shows up under it.
  EXPECT_FALSE(pool.SeenFingerprint(42));
  EXPECT_EQ(pool.counts().import_rejected, 1u);
}

TEST(SeedPoolImportTest, EvictionCountersStayConsistentUnderInterleaving) {
  const size_t kCapacity = 16;
  SeedPool pool(kCapacity);
  Rng rng(5);

  uint64_t accepted = 0;
  uint64_t attempts = 0;
  for (int i = 0; i < 200; ++i) {
    OpSeq seq = TestSeq(rng);
    double score = rng.NextDouble();
    ++attempts;
    if (i % 3 == 0) {
      uint64_t fingerprint = OpSeqFingerprint(seq);
      if (pool.ImportSeed(seq, score, fingerprint)) ++accepted;
      // Occasionally re-import the same fingerprint to hit the dup path.
      ++attempts;
      if (pool.ImportSeed(seq, score * 0.5, fingerprint)) ++accepted;
    } else {
      pool.Add(seq, score);
    }
  }

  const SeedPoolCounts& counts = pool.counts();
  // Every accepted entry either still lives in the pool or was evicted.
  EXPECT_EQ(counts.adds + counts.imports, pool.size() + counts.evictions);
  EXPECT_LE(pool.size(), kCapacity);
  // The dup path fired (every import attempt repeats its fingerprint once).
  EXPECT_GT(counts.import_dups, 0u);
  // Attempts are fully accounted: every Add call either added or was
  // dropped, and every ImportSeed call imported, was dropped or was a dup.
  EXPECT_EQ(counts.imports, accepted);
  EXPECT_EQ(counts.adds + counts.imports + counts.dropped + counts.import_dups, attempts);
  EXPECT_GT(counts.dropped + counts.import_dups, 0u);
}

TEST(SeedPoolImportTest, SeenSetSurvivesSnapshotRoundTrip) {
  SeedPool pool(8);
  Rng rng(6);
  OpSeq kept = TestSeq(rng);
  pool.Add(kept, 0.9);
  // Force an eviction so the seen set is a strict superset of the pool.
  SeedPool small(1);
  OpSeq first = TestSeq(rng);
  OpSeq second = TestSeq(rng);
  small.Add(first, 0.2);
  small.Add(second, 0.8);  // evicts `first`
  ASSERT_EQ(small.size(), 1u);

  SnapshotWriter writer;
  small.SaveState(writer);
  SeedPool restored(1);
  SnapshotReader reader(writer.buffer());
  ASSERT_TRUE(restored.RestoreState(reader).ok());

  // The evicted sequence's fingerprint is still remembered: re-importing it
  // after a checkpoint/resume cycle stays a no-op.
  EXPECT_FALSE(restored.ImportSeed(first, 1.0, OpSeqFingerprint(first)));
  EXPECT_EQ(restored.size(), 1u);
}

TEST(SeedPoolImportTest, RestoreRejectsUnsortedSeenSet) {
  SnapshotWriter writer;
  writer.U64(0);  // no pooled seeds
  writer.U64(1);  // next_id
  writer.U64(2);  // seen count
  writer.U64(5);
  writer.U64(3);  // out of order
  SeedPool pool(8);
  SnapshotReader reader(writer.buffer());
  Status status = pool.RestoreState(reader);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("not sorted/unique"), std::string::npos);
}

TEST(SeedPoolImportTest, RestoreRejectsPooledSeedMissingFromSeenSet) {
  Rng rng(7);
  OpSeq seq = TestSeq(rng);
  SnapshotWriter writer;
  writer.U64(1);  // one pooled seed
  SaveOpSeq(writer, seq);
  writer.F64(0.5);                      // score
  writer.U64(1);                        // id
  writer.I64(0);                        // selections
  writer.U64(OpSeqFingerprint(seq));    // fingerprint
  writer.Bool(false);                   // imported
  writer.U64(2);                        // next_id
  writer.U64(0);                        // empty seen set
  SeedPool pool(8);
  SnapshotReader reader(writer.buffer());
  Status status = pool.RestoreState(reader);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("missing from seen set"),
            std::string::npos);
}

}  // namespace
}  // namespace themis

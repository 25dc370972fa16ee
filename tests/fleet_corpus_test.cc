// Corpus-directory hygiene (DESIGN.md §17), mirroring
// snapshot_corruption_test for the fleet's seed-exchange files: a published
// seed round-trips exactly; every corruption mode — foreign magic, stale
// version, truncation, bit flips in the payload, a lying length field, a
// name/fingerprint mismatch, a fingerprint/sequence mismatch, a bad flavor —
// is rejected with a descriptive error and never crashes; and the
// CorpusExchange importer counts each reject exactly once and never re-reads
// a file it refused.

#include "src/fleet/corpus.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/snapshot_io.h"
#include "src/core/fuzzer.h"
#include "src/core/input_model.h"
#include "src/core/opseq.h"
#include "src/dfs/operation.h"
#include "src/fleet/exchange.h"
#include "src/fleet/work_queue.h"
#include "src/telemetry/metrics.h"

namespace themis {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("fleet_corpus_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

OpSeq TestSeq(uint64_t seed) {
  Rng rng(seed);
  OpSeq seq;
  int len = static_cast<int>(rng.NextRange(2, 9));
  for (int i = 0; i < len; ++i) {
    Operation op;
    op.kind =
        OpKindFromIndex(static_cast<int>(rng.NextRange(0, kOpKindCount - 1)));
    op.path = "/d" + std::to_string(rng.NextBelow(100));
    op.size = rng.NextBelow(1 << 16);
    seq.ops.push_back(op);
  }
  return seq;
}

CorpusSeed TestSeed(uint64_t seed) {
  CorpusSeed out;
  out.seq = TestSeq(seed);
  out.fingerprint = OpSeqFingerprint(out.seq);
  out.flavor = Flavor::kGluster;
  out.score = 1.25;
  out.transitions = 17;
  out.origin_job = 3;
  return out;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(FleetCorpusTest, PublishReadRoundTrip) {
  std::string dir = FreshDir("roundtrip");
  CorpusSeed seed = TestSeed(11);
  ASSERT_TRUE(PublishSeed(dir, seed).ok());

  std::vector<std::string> names = ListSeedFileNames(dir);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], SeedFileName(seed.fingerprint));

  Result<CorpusSeed> loaded =
      ReadSeedFile((fs::path(dir) / names[0]).string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fingerprint, seed.fingerprint);
  EXPECT_EQ(loaded->flavor, seed.flavor);
  EXPECT_DOUBLE_EQ(loaded->score, seed.score);
  EXPECT_EQ(loaded->transitions, seed.transitions);
  EXPECT_EQ(loaded->origin_job, seed.origin_job);
  EXPECT_EQ(loaded->seq.size(), seed.seq.size());
  EXPECT_EQ(OpSeqFingerprint(loaded->seq), seed.fingerprint);
}

TEST(FleetCorpusTest, PublishIsIdempotentWhenFileExists) {
  std::string dir = FreshDir("idempotent");
  CorpusSeed seed = TestSeed(12);
  ASSERT_TRUE(PublishSeed(dir, seed).ok());
  std::string path = (fs::path(dir) / SeedFileName(seed.fingerprint)).string();
  std::string first = ReadAll(path);
  // Second publication with different metadata: skipped, bytes untouched.
  CorpusSeed again = seed;
  again.score = 99.0;
  ASSERT_TRUE(PublishSeed(dir, again).ok());
  EXPECT_EQ(ReadAll(path), first);
}

TEST(FleetCorpusTest, PublishRejectsEmptyAndMismatchedFingerprint) {
  std::string dir = FreshDir("badpublish");
  CorpusSeed empty;
  empty.fingerprint = 7;
  EXPECT_FALSE(PublishSeed(dir, empty).ok());
  CorpusSeed lying = TestSeed(13);
  lying.fingerprint ^= 1;
  EXPECT_FALSE(PublishSeed(dir, lying).ok());
  EXPECT_TRUE(ListSeedFileNames(dir).empty());
}

TEST(FleetCorpusTest, SeedFileNameParsesStrictly) {
  uint64_t fingerprint = 0;
  EXPECT_TRUE(ParseSeedFileName("seed-00000000deadbeef.seed", &fingerprint));
  EXPECT_EQ(fingerprint, 0xdeadbeefull);
  EXPECT_FALSE(ParseSeedFileName("seed-deadbeef.seed", &fingerprint));
  EXPECT_FALSE(ParseSeedFileName("seed-00000000deadbeef.seed.12.tmp",
                                 &fingerprint));
  EXPECT_FALSE(ParseSeedFileName("seed-zzzzzzzzdeadbeef.seed", &fingerprint));
  EXPECT_FALSE(ParseSeedFileName("notes.txt", &fingerprint));
}

struct CorruptionCase {
  const char* name;
  void (*corrupt)(std::string* bytes);
};

const CorruptionCase kCases[] = {
    {"foreign magic", [](std::string* b) { (*b)[0] = 'X'; }},
    {"stale version", [](std::string* b) { (*b)[8] = 99; }},
    {"payload bit flip", [](std::string* b) { (*b)[40] ^= 0x20; }},
    {"checksum bit flip", [](std::string* b) { (*b)[20] ^= 0x01; }},
    {"truncated payload", [](std::string* b) { b->resize(b->size() - 5); }},
    {"truncated header", [](std::string* b) { b->resize(10); }},
    {"lying length field",
     [](std::string* b) { (*b)[12] = static_cast<char>((*b)[12] + 1); }},
    {"trailing garbage", [](std::string* b) { b->append("extra"); }},
};

TEST(FleetCorpusTest, EveryCorruptionModeIsRejected) {
  for (const CorruptionCase& test_case : kCases) {
    std::string dir = FreshDir("corrupt");
    CorpusSeed seed = TestSeed(14);
    ASSERT_TRUE(PublishSeed(dir, seed).ok());
    std::string path =
        (fs::path(dir) / SeedFileName(seed.fingerprint)).string();
    std::string bytes = ReadAll(path);
    ASSERT_GT(bytes.size(), 45u);
    test_case.corrupt(&bytes);
    WriteAll(path, bytes);
    Result<CorpusSeed> loaded = ReadSeedFile(path);
    EXPECT_FALSE(loaded.ok()) << "corruption not caught: " << test_case.name;
  }
}

// The same corruption modes through the public readers of every other
// framed fleet record: each one is a kDataLoss naming the file.
TEST(FleetCorpusTest, EveryFramedKindRejectsEveryCorruptionMode) {
  CampaignJob job;
  job.index = 4;
  job.strategy = "Themis";
  job.repetition = 1;
  FleetDoneRecord record;
  record.job = job;
  record.worker_id = 2;
  MetricsSnapshot metrics;
  metrics.counters["fleet.test.counter"] = 7;
  metrics.gauges["fleet.test.gauge"] = -3;
  using Io = std::function<Status(const std::string&)>;
  const struct {
    const char* name;
    Io write;
    Io read;
  } kKinds[] = {
      {"job spec",
       [&](const std::string& path) { return WriteJobSpecFile(path, job); },
       [](const std::string& path) { return ReadJobSpecFile(path).status(); }},
      {"done record",
       [&](const std::string& path) {
         return WriteDoneRecordFile(path, record);
       },
       [](const std::string& path) {
         return ReadDoneRecordFile(path).status();
       }},
      {"worker metrics",
       [&](const std::string& path) {
         return WriteWorkerMetricsFile(path, metrics);
       },
       [](const std::string& path) {
         return ReadWorkerMetricsFile(path).status();
       }},
  };
  for (const auto& kind : kKinds) {
    for (const CorruptionCase& test_case : kCases) {
      std::string path = (fs::path(FreshDir("kinds")) / "record").string();
      ASSERT_TRUE(kind.write(path).ok()) << kind.name;
      ASSERT_TRUE(kind.read(path).ok()) << kind.name;
      std::string bytes = ReadAll(path);
      ASSERT_GT(bytes.size(), 45u) << kind.name;
      test_case.corrupt(&bytes);
      WriteAll(path, bytes);
      Status status = kind.read(path);
      EXPECT_EQ(status.code(), StatusCode::kDataLoss)
          << kind.name << ", " << test_case.name << ": " << status.ToString();
      EXPECT_NE(status.message().find(path), std::string::npos)
          << kind.name << ", " << test_case.name << ": " << status.ToString();
    }
  }
}

// A failed job's done record keeps its status code, so the fleet summary
// reports "NOT_FOUND: ..." rather than an INTERNAL wrapping that text.
TEST(FleetCorpusTest, DoneRecordRoundTripsFailedJobStatus) {
  FleetDoneRecord record;
  record.job.index = 3;
  record.job.strategy = "NoSuch";
  record.worker_id = 1;
  for (uint8_t code = static_cast<uint8_t>(StatusCode::kNotFound);
       code <= static_cast<uint8_t>(StatusCode::kDataLoss); ++code) {
    record.job_status = Status(static_cast<StatusCode>(code), "unknown strategy 'NoSuch'");
    std::string path = (fs::path(FreshDir("failed")) / "record").string();
    ASSERT_TRUE(WriteDoneRecordFile(path, record).ok());
    Result<FleetDoneRecord> read = ReadDoneRecordFile(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->job_status.code(), record.job_status.code());
    EXPECT_EQ(read->job_status.ToString(), record.job_status.ToString());
    EXPECT_EQ(read->job.strategy, "NoSuch");
    EXPECT_EQ(read->worker_id, 1);
  }
}

TEST(FleetCorpusTest, NameFingerprintMismatchIsRejected) {
  std::string dir = FreshDir("renamed");
  CorpusSeed seed = TestSeed(15);
  ASSERT_TRUE(PublishSeed(dir, seed).ok());
  std::string original =
      (fs::path(dir) / SeedFileName(seed.fingerprint)).string();
  std::string renamed =
      (fs::path(dir) / SeedFileName(seed.fingerprint ^ 0xff)).string();
  fs::rename(original, renamed);
  Result<CorpusSeed> loaded = ReadSeedFile(renamed);
  EXPECT_FALSE(loaded.ok());
}

TEST(FleetCorpusTest, WrongFlavorPayloadIsRejected) {
  std::string dir = FreshDir("flavor");
  CorpusSeed seed = TestSeed(16);
  seed.flavor = static_cast<Flavor>(250);  // out of range
  // PublishSeed doesn't validate flavor (the exchange sets it from its own
  // config); forge the file through the framing layer directly.
  SnapshotWriter writer;
  writer.U64(seed.fingerprint);
  writer.U8(250);
  writer.F64(seed.score);
  writer.U64(seed.transitions);
  writer.U64(seed.origin_job);
  SaveOpSeq(writer, seed.seq);
  std::string path =
      (fs::path(dir) / SeedFileName(seed.fingerprint)).string();
  ASSERT_TRUE(WriteFramedFile(path, kCorpusSeedMagic, kCorpusSeedFormatVersion,
                              writer.buffer())
                  .ok());
  Result<CorpusSeed> loaded = ReadSeedFile(path);
  EXPECT_FALSE(loaded.ok());
}

// The importer-side contract: rejects are counted once per bad file, the
// file is never offered to the strategy, and good seeds import normally
// alongside the bad ones.
TEST(FleetCorpusTest, ExchangeImportRejectsCorruptAndCountsOnce) {
  std::string dir = FreshDir("exchange");
  CorpusSeed good = TestSeed(17);
  ASSERT_TRUE(PublishSeed(dir, good).ok());
  CorpusSeed bad = TestSeed(18);
  ASSERT_TRUE(PublishSeed(dir, bad).ok());
  {
    std::string path = (fs::path(dir) / SeedFileName(bad.fingerprint)).string();
    std::string bytes = ReadAll(path);
    bytes[bytes.size() / 2] ^= 0x40;
    WriteAll(path, bytes);
  }

  CorpusExchangeOptions options;
  options.corpus_dir = dir;
  options.flavor = Flavor::kGluster;
  options.import_every = 1;
  options.heartbeat_every = 0;
  CorpusExchange exchange(options);

  InputModel model;
  Rng rng(1);
  ThemisFuzzer fuzzer(model, rng);
  ExecOutcome outcome;
  CampaignTick tick;
  // Two boundaries: the second must not re-read (or re-count) the reject.
  exchange.OnTestcase(fuzzer, outcome, tick);
  exchange.OnTestcase(fuzzer, outcome, tick);

  EXPECT_EQ(exchange.rejected(), 1u);
  EXPECT_EQ(exchange.imported(), 1u);
  ASSERT_NE(fuzzer.seed_pool(), nullptr);
  EXPECT_EQ(fuzzer.seed_pool()->size(), 1u);
  EXPECT_TRUE(fuzzer.seed_pool()->SeenFingerprint(good.fingerprint));
  EXPECT_FALSE(fuzzer.seed_pool()->SeenFingerprint(bad.fingerprint));
}

}  // namespace
}  // namespace themis

#include "src/fleet/exchange.h"

#include <filesystem>

#include "src/common/log.h"
#include "src/common/snapshot_io.h"
#include "src/common/strings.h"
#include "src/core/seed_pool.h"
#include "src/fleet/heartbeat.h"
#include "src/telemetry/metrics.h"

namespace themis {

CorpusExchange::CorpusExchange(CorpusExchangeOptions options)
    : options_(std::move(options)) {
  if (options_.import_every < 1) options_.import_every = 1;
  heartbeat_seq_ = options_.heartbeat_seq_start;
}

void CorpusExchange::PublishNewSeeds(Strategy& strategy,
                                     const CampaignTick& tick) {
  const SeedPool* pool = strategy.seed_pool();
  if (pool == nullptr) {
    return;
  }
  // Seed ids are allocated monotonically, so everything newer than the
  // high-water mark is a seed this campaign accepted since the last
  // boundary. Imported seeds are someone else's publication.
  uint64_t new_max = max_published_seed_id_;
  for (const Seed& seed : pool->seeds()) {
    if (seed.id <= max_published_seed_id_ || seed.imported) {
      if (seed.id > new_max) new_max = seed.id;
      continue;
    }
    if (seed.id > new_max) new_max = seed.id;
    if (index_.Contains(seed.fingerprint)) {
      continue;  // a mutation landed on a sequence we already shipped
    }
    CorpusSeed out;
    out.seq = seed.seq;
    out.fingerprint = seed.fingerprint;
    out.flavor = options_.flavor;
    out.score = seed.score;
    out.transitions = tick.transition_coverage;
    out.origin_job = options_.job_index;
    if (Status s = PublishSeed(options_.corpus_dir, out); !s.ok()) {
      THEMIS_LOG(kWarn, "seed publish failed: %s", s.ToString().c_str());
      continue;
    }
    index_.Insert(seed.fingerprint);
    ++published_;
    THEMIS_COUNTER_INC("fleet.seeds_published", 1);
    if (!options_.publish_log.empty()) {
      AppendLine(options_.publish_log,
                 Sprintf("%016llx",
                         static_cast<unsigned long long>(seed.fingerprint)));
    }
  }
  max_published_seed_id_ = new_max;
}

void CorpusExchange::ImportNewSeeds(Strategy& strategy) {
  for (const std::string& name : ListSeedFileNames(options_.corpus_dir)) {
    uint64_t fingerprint = 0;
    if (!ParseSeedFileName(name, &fingerprint)) {
      continue;
    }
    if (index_.Contains(fingerprint) || rejected_files_.count(name) != 0) {
      continue;
    }
    const std::string path =
        (std::filesystem::path(options_.corpus_dir) / name).string();
    Result<CorpusSeed> seed = ReadSeedFile(path);
    if (!seed.ok()) {
      rejected_files_.insert(name);
      ++rejected_;
      THEMIS_COUNTER_INC("fleet.corpus.rejects", 1);
      THEMIS_LOG(kWarn, "rejecting corpus file: %s",
                 seed.status().ToString().c_str());
      continue;
    }
    if (seed.value().flavor != options_.flavor) {
      // Well-formed but from a different flavor's campaign — a foreign
      // corpus mounted at the wrong path. Refuse it like corruption.
      rejected_files_.insert(name);
      ++rejected_;
      THEMIS_COUNTER_INC("fleet.corpus.rejects", 1);
      continue;
    }
    index_.Insert(fingerprint);
    if (strategy.ImportSeed(seed.value().seq, seed.value().score,
                            fingerprint)) {
      ++imported_;
      THEMIS_COUNTER_INC("fleet.seeds_imported", 1);
    } else {
      ++dups_;
      THEMIS_COUNTER_INC("fleet.exchange.import_noops", 1);
    }
  }
}

void CorpusExchange::EmitHeartbeat(const CampaignTick& tick,
                                   const char* phase) {
  if (options_.heartbeat_path.empty()) {
    return;
  }
  Heartbeat hb;
  hb.worker_id = options_.worker_id;
  hb.pid = options_.pid;
  hb.seq = ++heartbeat_seq_;
  hb.job_index = options_.job_index;
  hb.total_ops = tick.total_ops;
  hb.testcases = tick.testcases;
  hb.coverage = tick.coverage;
  hb.transitions = tick.transition_coverage;
  hb.published = published_;
  hb.imported = imported_;
  hb.phase = phase;
  AppendHeartbeat(options_.heartbeat_path, hb);
  THEMIS_COUNTER_INC("fleet.heartbeats", 1);
}

void CorpusExchange::OnTestcase(Strategy& strategy, const ExecOutcome& outcome,
                                const CampaignTick& tick) {
  (void)outcome;
  PublishNewSeeds(strategy, tick);
  if (++since_import_ >= options_.import_every) {
    since_import_ = 0;
    ImportNewSeeds(strategy);
  }
  if (options_.heartbeat_every > 0 &&
      ++since_heartbeat_ >= options_.heartbeat_every) {
    since_heartbeat_ = 0;
    EmitHeartbeat(tick, "run");
  }
}

void CorpusExchange::EmitJobDone(const CampaignTick& final_tick) {
  EmitHeartbeat(final_tick, "job_done");
}

}  // namespace themis

// Tests for the fault registries and the runtime injector.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/common/bytes.h"
#include "src/common/snapshot_io.h"
#include "src/core/executor.h"
#include "src/core/generator.h"
#include "src/dfs/flavors/factory.h"
#include "src/faults/fault_registry.h"
#include "src/faults/historical_corpus.h"
#include "src/faults/injector.h"
#include "src/monitor/states_monitor.h"

namespace themis {
namespace {

// ---- registries ----

TEST(FaultRegistry, PaperBugsPlusGeoExtensions) {
  // The paper's ten Table 2 bugs, plus the two GeoFS registry bugs
  // (DESIGN.md §15) — additive, so the four paper platforms keep exactly
  // their Table 2 counts.
  std::vector<FaultSpec> bugs = NewBugRegistry();
  ASSERT_EQ(bugs.size(), 12u);
  std::map<Flavor, int> per_platform;
  for (const FaultSpec& spec : bugs) {
    ++per_platform[spec.platform];
    EXPECT_FALSE(spec.environment_gated);
    EXPECT_FALSE(spec.historical);
    EXPECT_FALSE(spec.id.empty());
    EXPECT_FALSE(spec.description.empty());
  }
  EXPECT_EQ(per_platform[Flavor::kGluster], 4);
  EXPECT_EQ(per_platform[Flavor::kLeo], 3);
  EXPECT_EQ(per_platform[Flavor::kCeph], 1);
  EXPECT_EQ(per_platform[Flavor::kHdfs], 2);
  EXPECT_EQ(per_platform[Flavor::kGeo], 2);
}

TEST(FaultRegistry, IdsAreUnique) {
  std::set<std::string> ids;
  for (const FaultSpec& spec : NewBugRegistry()) {
    EXPECT_TRUE(ids.insert(spec.id).second);
  }
}

TEST(FaultRegistry, FindNewBug) {
  EXPECT_NE(FindNewBug("Bug#S24387"), nullptr);
  EXPECT_EQ(FindNewBug("Bug#S24387")->platform, Flavor::kGluster);
  EXPECT_EQ(FindNewBug("no-such-bug"), nullptr);
}

TEST(FaultRegistry, MostBugsNeedBothInputSpaces) {
  // Finding 4: the majority of failures need requests + configuration.
  int both = 0;
  for (const FaultSpec& spec : NewBugRegistry()) {
    if (spec.trigger.needs_requests &&
        (spec.trigger.needs_node_ops || spec.trigger.needs_volume_ops)) {
      ++both;
    }
  }
  EXPECT_GE(both, 7);
}

TEST(FaultRegistry, NewBugsForFiltersByPlatform) {
  for (const FaultSpec& spec : NewBugsFor(Flavor::kLeo)) {
    EXPECT_EQ(spec.platform, Flavor::kLeo);
  }
  EXPECT_EQ(NewBugsFor(Flavor::kLeo).size(), 3u);
}

TEST(HistoricalCorpus, FiftyThreeFaults) {
  std::vector<FaultSpec> corpus = HistoricalFaultCorpus();
  ASSERT_EQ(corpus.size(), 53u);
  int gated = 0;
  std::map<Flavor, int> per_platform;
  for (const FaultSpec& spec : corpus) {
    EXPECT_TRUE(spec.historical);
    gated += spec.environment_gated ? 1 : 0;
    ++per_platform[spec.platform];
    // Finding 3: disparity of at least 30%.
    if (spec.effect != EffectKind::kCrashNode) {
      EXPECT_GE(spec.severity, 0.30);
    }
  }
  EXPECT_EQ(gated, 5);
  EXPECT_EQ(per_platform[Flavor::kHdfs], 18);
  EXPECT_EQ(per_platform[Flavor::kCeph], 16);
  EXPECT_EQ(per_platform[Flavor::kGluster], 12);
  EXPECT_EQ(per_platform[Flavor::kLeo], 7);
}

TEST(HistoricalCorpus, ConversionIsDeterministic) {
  const StudyRecord& record = StudyCorpus().front();
  FaultSpec a = FaultFromStudyRecord(record);
  FaultSpec b = FaultFromStudyRecord(record);
  EXPECT_EQ(a.severity, b.severity);
  EXPECT_EQ(a.trigger.required_kinds, b.trigger.required_kinds);
  EXPECT_EQ(a.effect, b.effect);
}

TEST(HistoricalCorpus, TriggerInputsRespectStudyAnnotations) {
  for (const StudyRecord& record : StudyCorpus()) {
    FaultSpec spec = FaultFromStudyRecord(record);
    switch (record.inputs) {
      case TriggerInputs::kRequestsOnly:
        EXPECT_TRUE(spec.trigger.needs_requests);
        EXPECT_FALSE(spec.trigger.needs_node_ops || spec.trigger.needs_volume_ops);
        break;
      case TriggerInputs::kConfigsOnly:
        EXPECT_FALSE(spec.trigger.needs_requests);
        EXPECT_TRUE(spec.trigger.needs_node_ops || spec.trigger.needs_volume_ops);
        break;
      case TriggerInputs::kBoth:
        EXPECT_TRUE(spec.trigger.needs_requests);
        EXPECT_TRUE(spec.trigger.needs_node_ops || spec.trigger.needs_volume_ops);
        break;
    }
  }
}

TEST(HistoricalCorpus, DeepFailuresHaveAccumulationRequirements) {
  for (const StudyRecord& record : StudyCorpus()) {
    FaultSpec spec = FaultFromStudyRecord(record);
    if (record.steps >= 6) {
      EXPECT_GE(spec.trigger.min_rebalance_rounds, 2) << record.id;
      EXPECT_GT(spec.trigger.min_variance, 0.0) << record.id;
      EXPECT_TRUE(spec.trigger.needs_accumulation) << record.id;
    }
  }
}

// ---- injector runtime ----

// A spec that fires as soon as any create lands (probability 1).
FaultSpec InstantSpec(Flavor flavor, EffectKind effect, double severity = 0.5) {
  FaultSpec spec;
  spec.id = "test-fault";
  spec.platform = flavor;
  spec.effect = effect;
  spec.severity = severity;
  spec.trigger.window = 8;
  spec.trigger.min_window_ops = 1;
  spec.trigger.probability = 1.0;
  return spec;
}

Operation Create(const std::string& path, uint64_t size) {
  Operation op;
  op.kind = OpKind::kCreate;
  op.path = path;
  op.size = size;
  return op;
}

TEST(Injector, TriggersAndRecordsGroundTruth) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 21);
  FaultInjector injector({InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew)}, 1);
  dfs->set_fault_hooks(&injector);
  EXPECT_FALSE(injector.AnyActive());
  ASSERT_TRUE(dfs->Execute(Create("/f", kGiB)).status.ok());
  EXPECT_TRUE(injector.AnyActive());
  ASSERT_EQ(injector.ActiveFaultIds().size(), 1u);
  EXPECT_EQ(injector.ActiveFaultIds().front(), "test-fault");
  EXPECT_EQ(injector.EverTriggeredIds().size(), 1u);
}

TEST(Injector, PlatformMismatchNeverTriggers) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 22);
  FaultInjector injector({InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew)}, 1);
  dfs->set_fault_hooks(&injector);
  for (int i = 0; i < 20; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), kGiB));
  }
  EXPECT_FALSE(injector.AnyActive());
}

TEST(Injector, EnvironmentGatedNeverTriggers) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 23);
  FaultSpec spec = InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew);
  spec.environment_gated = true;
  FaultInjector injector({spec}, 1);
  dfs->set_fault_hooks(&injector);
  for (int i = 0; i < 20; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), kGiB));
  }
  EXPECT_FALSE(injector.AnyActive());
}

TEST(Injector, RequiredKindsGateTriggering) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 24);
  FaultSpec spec = InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew);
  spec.trigger.required_kinds = {OpKind::kRename};
  FaultInjector injector({spec}, 1);
  dfs->set_fault_hooks(&injector);
  ASSERT_TRUE(dfs->Execute(Create("/f", kGiB)).status.ok());
  EXPECT_FALSE(injector.AnyActive());
  Operation rename;
  rename.kind = OpKind::kRename;
  rename.path = "/f";
  rename.path2 = "/g";
  ASSERT_TRUE(dfs->Execute(rename).status.ok());
  EXPECT_TRUE(injector.AnyActive());
}

TEST(Injector, ClassRequirementsGateTriggering) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 25);
  FaultSpec spec = InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew);
  spec.trigger.needs_node_ops = true;
  FaultInjector injector({spec}, 1);
  dfs->set_fault_hooks(&injector);
  for (int i = 0; i < 5; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), kGiB));
  }
  EXPECT_FALSE(injector.AnyActive());
  Operation add;
  add.kind = OpKind::kAddStorageNode;
  ASSERT_TRUE(dfs->Execute(add).status.ok());
  EXPECT_TRUE(injector.AnyActive());
}

TEST(Injector, CpuSkewEffectLoadsVictim) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 26);
  FaultInjector injector({InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew, 0.6)}, 1);
  dfs->set_fault_hooks(&injector);
  for (int i = 0; i < 30; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), kMiB));
  }
  double max_cpu = 0;
  double total_cpu = 0;
  int nodes = 0;
  for (const LoadSample& sample : dfs->SampleLoad()) {
    if (sample.is_storage) {
      max_cpu = std::max(max_cpu, sample.cpu_seconds);
      total_cpu += sample.cpu_seconds;
      ++nodes;
    }
  }
  EXPECT_GT(max_cpu, (total_cpu / nodes) * 2.0) << "victim must dominate CPU usage";
}

TEST(Injector, CrashEffectKillsNode) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 27);
  FaultInjector injector({InstantSpec(Flavor::kGluster, EffectKind::kCrashNode)}, 1);
  dfs->set_fault_hooks(&injector);
  (void)dfs->Execute(Create("/f", kGiB));
  bool any_crashed = false;
  for (const LoadSample& sample : dfs->SampleLoad()) {
    any_crashed |= sample.crashed;
  }
  EXPECT_TRUE(any_crashed);
}

TEST(Injector, StorageEffectAccumulatesTowardSeverity) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 28);
  FaultInjector injector(
      {InstantSpec(Flavor::kGluster, EffectKind::kHotspotAccumulation, 0.30)}, 1);
  dfs->set_fault_hooks(&injector);
  ASSERT_TRUE(dfs->Execute(Create("/seed", 100 * kGiB)).status.ok());
  double max_spread = 0;
  for (int i = 0; i < 300; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), kGiB));
    max_spread = std::max(max_spread, dfs->StorageImbalance());
  }
  EXPECT_GE(max_spread, 0.25) << "hotspot accumulation must approach severity";
}

// A storage step that moved nothing is skipped until PlacementEpoch()
// moves. Skipping is exact only because such a step mutates nothing, and a
// placement change must re-arm the step.
TEST(Injector, IdleStorageStepIsSkippedUntilPlacementChanges) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 33);
  // A spread never reaches 2.0, so the fault keeps steering data.
  FaultInjector injector(
      {InstantSpec(Flavor::kHdfs, EffectKind::kHotspotAccumulation, 2.0)}, 1);
  dfs->set_fault_hooks(&injector);
  const uint64_t chunk = dfs->config().chunk_size;
  ASSERT_TRUE(dfs->Execute(Create("/f0", 2 * chunk)).status.ok());
  ASSERT_TRUE(injector.AnyActive());
  const BrickId victim = injector.faults().front().victim_brick;
  int files = 1;
  for (; files < 400 && dfs->FindBrick(victim)->FreeBytes() >= chunk; ++files) {
    ASSERT_TRUE(dfs->Execute(Create("/f" + std::to_string(files), 2 * chunk)).status.ok());
  }
  ASSERT_LT(dfs->FindBrick(victim)->FreeBytes(), chunk) << "the victim never filled";
  // Until now every chunk may have a replica on the victim; these land
  // elsewhere and give the donors chunks the victim could take.
  for (int end = files + 20; files < end; ++files) {
    ASSERT_TRUE(dfs->Execute(Create("/f" + std::to_string(files), 2 * chunk)).status.ok());
  }

  // A resumed injector has not seen a step yet. Through a probe-style
  // mkdir/rmdir burst, its first step walks and takes nothing, the rest are
  // skipped, and none of them changes the cluster.
  SnapshotWriter saved;
  injector.SaveState(saved);
  FaultInjector resumed(
      {InstantSpec(Flavor::kHdfs, EffectKind::kHotspotAccumulation, 2.0)}, 1);
  SnapshotReader reader(saved.buffer());
  ASSERT_TRUE(resumed.RestoreState(reader).ok());
  dfs->set_fault_hooks(&resumed);
  EXPECT_EQ(resumed.faults().front().idle_epoch, 0u);
  SnapshotWriter before;
  dfs->SaveState(before);
  for (int i = 0; i < 20; ++i) {
    Operation probe;
    probe.kind = i % 2 == 0 ? OpKind::kMkdir : OpKind::kRmdir;
    probe.path = "/probe";
    resumed.OnOperationExecuted(*dfs, probe, OpResult{});
  }
  SnapshotWriter after;
  dfs->SaveState(after);
  EXPECT_EQ(before.buffer(), after.buffer());
  EXPECT_EQ(resumed.faults().front().idle_epoch, dfs->PlacementEpoch());

  // Deleting a file with a replica on the victim frees room there; the
  // delete's own step must refill it from the donors.
  FileId on_victim = dfs->ChunksOnBrickRef(victim).front().first;
  uint64_t freed = 0;
  for (const ChunkPlacement& placed : dfs->FindLayout(on_victim)->chunks) {
    freed += placed.HasReplicaOn(victim) ? placed.bytes : 0;
  }
  const uint64_t used = dfs->FindBrick(victim)->used_bytes;
  Operation remove;
  remove.kind = OpKind::kDelete;
  remove.path = dfs->tree().PathOf(on_victim);
  ASSERT_TRUE(dfs->Execute(remove).status.ok());
  EXPECT_GE(dfs->FindBrick(victim)->used_bytes, used - freed + chunk)
      << "the step after a placement change must move bytes onto the victim";
}

TEST(Injector, HotspotSurvivesExplicitRebalance) {
  // The defining property of an imbalance failure (§2.2): the system cannot
  // recover to LBS on its own.
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 29);
  FaultInjector injector(
      {InstantSpec(Flavor::kGluster, EffectKind::kPlanSkipsVictim, 0.35)}, 1);
  dfs->set_fault_hooks(&injector);
  ASSERT_TRUE(dfs->Execute(Create("/seed", 200 * kGiB)).status.ok());
  for (int i = 0; i < 250; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), 2 * kGiB));
  }
  ASSERT_GE(dfs->StorageImbalance(), 0.28);
  (void)dfs->TriggerRebalance();
  for (int i = 0; i < 2000 && !dfs->RebalanceDone(); ++i) {
    dfs->AdvanceTime(Seconds(10));
  }
  // Re-apply load (the injector keeps steering) and check persistence.
  for (int i = 0; i < 20; ++i) {
    (void)dfs->Execute(Create("/g" + std::to_string(i), kGiB));
  }
  EXPECT_GE(dfs->StorageImbalance(), 0.22)
      << "an active plan-skipping fault must defeat the balancer";
}

TEST(Injector, RebalanceHangSuppressesCommand) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 30);
  FaultInjector injector({InstantSpec(Flavor::kGluster, EffectKind::kRebalanceHang)},
                         1);
  dfs->set_fault_hooks(&injector);
  (void)dfs->Execute(Create("/f", kGiB));
  ASSERT_TRUE(injector.AnyActive());
  uint64_t rounds_before = static_cast<uint64_t>(dfs->completed_rebalance_rounds());
  (void)dfs->TriggerRebalance();
  dfs->AdvanceTime(Minutes(5));
  EXPECT_EQ(static_cast<uint64_t>(dfs->completed_rebalance_rounds()), rounds_before)
      << "a hang fault must swallow the rebalance command";
}

TEST(Injector, ResetDeactivatesFaults) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 31);
  FaultInjector injector({InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew)}, 1);
  dfs->set_fault_hooks(&injector);
  (void)dfs->Execute(Create("/f", kGiB));
  ASSERT_TRUE(injector.AnyActive());
  dfs->ResetToInitial();
  EXPECT_FALSE(injector.AnyActive());
  // Still counted as triggered-once for campaign statistics.
  EXPECT_EQ(injector.EverTriggeredIds().size(), 1u);
}

TEST(Injector, NetworkSkewTargetsMetaNode) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kLeo, 32);
  FaultInjector injector({InstantSpec(Flavor::kLeo, EffectKind::kNetworkSkew, 0.7)}, 1);
  dfs->set_fault_hooks(&injector);
  for (int i = 0; i < 40; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), kMiB));
  }
  uint64_t max_requests = 0;
  uint64_t min_requests = UINT64_MAX;
  for (const LoadSample& sample : dfs->SampleLoad()) {
    if (!sample.is_storage) {
      max_requests = std::max(max_requests, sample.requests);
      min_requests = std::min(min_requests, sample.requests);
    }
  }
  EXPECT_GT(max_requests, 2 * min_requests);
}

}  // namespace
}  // namespace themis

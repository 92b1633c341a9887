// Tests for sharded campaign execution through CampaignEngine's delta
// merge pipeline: serial equivalence at workers=1 (against a
// borrowed-target session, the historical serial reference), same-seed
// determinism at a fixed worker count, merged coverage as a superset of
// every shard's coverage, and cross-shard anomaly dedup.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "src/core/engine.h"
#include "src/hv/factory.h"
#include "src/hv/sim_kvm/kvm.h"

namespace neco {
namespace {

CampaignOptions SmallOptions(Arch arch, uint64_t iterations, int workers) {
  CampaignOptions options;
  options.arch = arch;
  options.iterations = iterations;
  options.samples = 4;
  options.seed = 7;
  options.workers = workers;
  return options;
}

TEST(HypervisorFactoryTest, KnownNamesBuildIsolatedInstances) {
  for (const char* name : {"kvm", "xen", "virtualbox"}) {
    const HypervisorFactory factory = ResolveHypervisorFactory(name);
    ASSERT_TRUE(factory) << name;
    auto a = factory();
    auto b = factory();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a.get(), b.get());
    a->nested_coverage(Arch::kIntel).Hit(0);
    EXPECT_EQ(b->nested_coverage(Arch::kIntel).covered_points(), 0u);
  }
  // The registry is the only lookup now (the deprecated
  // MakeHypervisorFactory wrapper and its "vbox" alias are gone): unknown
  // names are an empty find or a loud resolve (engine_test.cc).
  EXPECT_FALSE(FindHypervisorFactory("vbox"));
  EXPECT_FALSE(FindHypervisorFactory("hyper-v"));
  EXPECT_THROW(ResolveHypervisorFactory("hyper-v"), std::invalid_argument);
}

TEST(ShardedCampaignTest, SingleWorkerReproducesSerialCampaign) {
  const CampaignOptions options = SmallOptions(Arch::kIntel, 800, 1);

  // A borrowed-target session is the historical serial campaign the
  // sharded engine must reproduce bit for bit at workers=1.
  SimKvm kvm;
  EXPECT_EQ(CampaignEngine(kvm, options).Run(),
            CampaignEngine("kvm", options).Run());
}

TEST(ShardedCampaignTest, SameSeedSameWorkerCountIsDeterministic) {
  const CampaignOptions options = SmallOptions(Arch::kIntel, 600, 3);
  CampaignEngine engine("kvm", options);

  const EngineResult a = engine.Run();
  EXPECT_EQ(a, engine.Run());
}

TEST(ShardedCampaignTest, MergedCoverageIsSupersetOfEveryWorker) {
  const CampaignOptions options = SmallOptions(Arch::kAmd, 800, 4);
  const EngineResult result = CampaignEngine("kvm", options).Run();

  ASSERT_EQ(result.per_worker.size(), 4u);
  uint64_t total_iterations = 0;
  for (const CampaignResult& worker : result.per_worker) {
    // merged ⊇ worker  <=>  worker − merged = ∅.
    EXPECT_TRUE(
        CoverageSubtract(worker.covered_set, result.merged.covered_set)
            .empty());
    EXPECT_LE(worker.covered_points, result.merged.covered_points);
    total_iterations += worker.fuzzer_stats.iterations;
  }
  EXPECT_EQ(total_iterations, options.iterations);
  EXPECT_EQ(result.merged.fuzzer_stats.iterations, options.iterations);
}

TEST(ShardedCampaignTest, NoDuplicateAnomalyIdsAfterMerge) {
  // AMD KVM surfaces anomalies quickly; run enough iterations that
  // several shards rediscover the same bugs.
  CampaignOptions options = SmallOptions(Arch::kAmd, 4000, 4);
  const EngineResult result = CampaignEngine("kvm", options).Run();

  std::set<std::string> ids;
  for (const AnomalyReport& report : result.merged.findings) {
    EXPECT_TRUE(ids.insert(report.bug_id).second)
        << "duplicate bug id " << report.bug_id;
  }
  ASSERT_FALSE(result.merged.findings.empty());
  // Every shard's findings made it into the merge.
  for (const CampaignResult& worker : result.per_worker) {
    for (const AnomalyReport& report : worker.findings) {
      EXPECT_EQ(ids.count(report.bug_id), 1u);
    }
  }
}

TEST(ShardedCampaignTest, FourWorkersMatchSerialCoverageAtEqualBudget) {
  // Acceptance criterion: at an equal total iteration budget, the merged
  // 4-worker coverage on SimKvm is at least the serial final coverage.
  CampaignOptions options = SmallOptions(Arch::kIntel, 2000, 1);
  const EngineResult serial = CampaignEngine("kvm", options).Run();

  options.workers = 4;
  const EngineResult parallel = CampaignEngine("kvm", options).Run();

  EXPECT_GE(parallel.merged.final_percent, serial.merged.final_percent);
}

TEST(ShardedCampaignTest, CorpusSyncSharesEntriesInGuidedMode) {
  CampaignOptions options = SmallOptions(Arch::kIntel, 1200, 3);
  options.fuzzer.coverage_guidance = true;
  const EngineResult with_sync = CampaignEngine("kvm", options).Run();
  EXPECT_GT(with_sync.corpus_imports, 0u);

  options.corpus_sync = false;
  const EngineResult without_sync = CampaignEngine("kvm", options).Run();
  EXPECT_EQ(without_sync.corpus_imports, 0u);
}

TEST(ShardedCampaignTest, CorpusSyncDedupKeepsQueueSizesAtParity) {
  // Corpus dedup on import (ROADMAP): with sync active, an entry
  // re-published by every shard joins each importing queue at most once,
  // so no shard's queue can exceed the campaign-wide number of distinct
  // discoveries (own discoveries + everything ever pooled).
  CampaignOptions options = SmallOptions(Arch::kIntel, 1200, 3);
  options.fuzzer.coverage_guidance = true;
  const EngineResult result = CampaignEngine("kvm", options).Run();

  uint64_t discovered = 0;  // Queue entries born in some shard.
  for (const CampaignResult& worker : result.per_worker) {
    discovered += worker.fuzzer_stats.queue_size;
  }
  discovered -= result.corpus_imports;
  for (const CampaignResult& worker : result.per_worker) {
    EXPECT_LE(worker.fuzzer_stats.queue_size, discovered);
  }
}

}  // namespace
}  // namespace neco

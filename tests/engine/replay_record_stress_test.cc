// Trace recording under the full concurrency surface: fanned-out
// SubmitBlock producers racing each other and a BackgroundAllocator
// rebalance whose result installs mid-run, all while the engine records.
// TSan (the "engine"/"replay" labels) proves the log is written race-free;
// the assertions prove it is *complete* (totals match) and *canonical*
// (byte-identical to a single-threaded reference run that used the same
// sequence tags and install schedule).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "txallo/allocator/registry.h"
#include "txallo/common/fan_out.h"
#include "txallo/engine/background_allocator.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/replay.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo {
namespace {

constexpr uint32_t kShards = 4;
constexpr uint64_t kBlocks = 30;
constexpr uint32_t kProducers = 4;
// The block at whose boundary the background rebalance result installs.
constexpr uint64_t kInstallBoundary = 15;

chain::Ledger StressLedger() {
  workload::EthereumLikeConfig config;
  config.num_blocks = kBlocks;
  config.txs_per_block = 64;
  config.num_accounts = 1'200;
  config.num_communities = 12;
  config.seed = 31;
  workload::EthereumLikeGenerator generator(config);
  return generator.GenerateLedger(kBlocks);
}

engine::EngineConfig StressEngineConfig(uint32_t threads) {
  engine::EngineConfig config;
  config.num_shards = kShards;
  config.num_threads = threads;
  config.work.capacity_per_block = 20.0;  // Tight: order matters.
  config.hash_route_unassigned = true;
  return config;
}

std::shared_ptr<const alloc::Allocation> RoundRobin(size_t accounts) {
  auto allocation = std::make_shared<alloc::Allocation>(accounts, kShards);
  for (size_t a = 0; a < accounts; ++a) {
    allocation->Assign(static_cast<chain::AccountId>(a),
                       static_cast<alloc::ShardId>(a % kShards));
  }
  return allocation;
}

// Computes the mid-run reallocation off-thread exactly like the pipeline:
// BeginRebalance on the owner, Run on the BackgroundAllocator worker
// (overlapping the first kInstallBoundary blocks of ingest), Commit +
// return the mapping for installation. Deterministic output — the
// reference run installs the same object.
alloc::Allocation ComputeMidRunMapping(const chain::Ledger& ledger,
                                       engine::BackgroundAllocator* worker) {
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      ledger.num_transactions(), kShards, 2.0);
  auto made = allocator::MakeAllocator("metis", options);
  EXPECT_TRUE(made.ok());
  allocator::OnlineAllocator* online = (*made)->AsOnline();
  for (const chain::Block& block : ledger.blocks()) {
    online->ApplyBlock(block);
  }
  std::unique_ptr<allocator::RebalanceTask> task = online->BeginRebalance();
  EXPECT_NE(task, nullptr);
  EXPECT_TRUE(worker->Launch(std::move(task)).ok());
  // Caller streams blocks while Run() executes; Collect happens at the
  // install boundary.
  auto outcome = worker->Collect();
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->task->Commit().ok());
  EXPECT_TRUE(outcome->mapping.ok());
  return std::move(outcome->mapping.value());
}

// One run of the scenario. `producers` > 1 slices every block across a
// common::FanOut of that many threads (SubmitBlock reserves each block's
// tag range once, so tags are schedule-independent); `background` computes
// the mid-run mapping on the worker, racing blocks [0, kInstallBoundary).
// With producers == 1 and background == nullptr the same mapping must be
// passed via `install`, replicating the install schedule synchronously.
struct StressRun {
  engine::ParallelEngine::Trace trace;
  engine::EngineReport report;
  alloc::Allocation installed;
};

StressRun RunScenario(const chain::Ledger& ledger, uint32_t threads,
                      uint32_t producers, bool use_background,
                      const alloc::Allocation* install = nullptr) {
  engine::ParallelEngine engine(StressEngineConfig(threads),
                                RoundRobin(1'200));
  engine.EnableTraceRecording();
  std::optional<common::FanOut> fan_out;
  if (producers > 1) fan_out.emplace(producers);
  std::optional<engine::BackgroundAllocator> background;
  std::thread compute;
  StressRun run;
  if (use_background) {
    background.emplace();
    // BeginRebalance/Launch happen before the first block; Collect blocks
    // until Run() finishes on the worker, racing the ingest below.
    compute = std::thread([&] {
      run.installed = ComputeMidRunMapping(ledger, &*background);
    });
  } else {
    run.installed = *install;
  }

  for (uint64_t b = 0; b < ledger.num_blocks(); ++b) {
    if (b == kInstallBoundary) {
      if (use_background) compute.join();
      EXPECT_TRUE(engine
                      .InstallAllocation(std::make_shared<alloc::Allocation>(
                          run.installed))
                      .ok());
    }
    const std::vector<chain::Transaction>& txs =
        ledger.blocks()[b].transactions();
    // SubmitBlock reserves the block's tag range once, so tags are global
    // block positions, the same for every producer count.
    EXPECT_TRUE(engine.SubmitBlock(txs, fan_out ? &*fan_out : nullptr).ok());
    engine.Tick();
  }
  run.report = engine.DrainAndReport();
  run.trace = engine.ExtractTrace();
  return run;
}

TEST(ReplayRecordStressTest, RacingProducersAndBackgroundInstallStayCanonical) {
  const chain::Ledger ledger = StressLedger();
  // Stressed: 4 producer threads × 2 engine workers × a background
  // rebalance install, recording throughout.
  StressRun stressed = RunScenario(ledger, /*threads=*/2, kProducers,
                                   /*use_background=*/true);
  // Reference: single producer, single worker, same mapping installed at
  // the same boundary.
  StressRun reference = RunScenario(ledger, /*threads=*/1, /*producers=*/1,
                                    /*use_background=*/false,
                                    &stressed.installed);

  // Complete: every part prepared, every transaction decided, exactly once.
  EXPECT_EQ(stressed.report.sim.submitted, ledger.num_transactions());
  EXPECT_EQ(stressed.report.sim.committed, ledger.num_transactions());
  EXPECT_EQ(stressed.trace.commits.size(), ledger.num_transactions());
  EXPECT_EQ(stressed.trace.prepares.size(),
            stressed.report.prepares_received);

  // Canonical: the recorded streams are byte-identical to the reference's.
  EXPECT_EQ(stressed.report.sim.cross_shard_submitted,
            reference.report.sim.cross_shard_submitted);
  ASSERT_EQ(stressed.trace.prepares.size(), reference.trace.prepares.size());
  for (size_t i = 0; i < reference.trace.prepares.size(); ++i) {
    ASSERT_EQ(stressed.trace.prepares[i], reference.trace.prepares[i])
        << "prepare stream diverged at event " << i;
  }
  ASSERT_EQ(stressed.trace.commits.size(), reference.trace.commits.size());
  for (size_t i = 0; i < reference.trace.commits.size(); ++i) {
    ASSERT_EQ(stressed.trace.commits[i], reference.trace.commits[i])
        << "commit stream diverged at event " << i;
  }
}

}  // namespace
}  // namespace txallo

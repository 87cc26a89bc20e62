// The background schedule never skips a boundary: a RebalanceTask that
// overruns its epoch makes the tick loop wait for it, so install blocks
// depend only on block boundaries, never on how long the allocator ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "txallo/allocator/allocator.h"
#include "txallo/chain/ledger.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo::engine {
namespace {

// An online allocator whose background Run() dawdles: with 8-block epochs
// ticking in microseconds, every later boundary arrives while the task is
// still asleep. The mapping itself is trivial (id mod k over the accounts
// seen at snapshot time) — this test is about the schedule, not quality.
class SlowAllocator : public allocator::OnlineAllocator {
 public:
  SlowAllocator(alloc::AllocationParams params, uint64_t sleep_ms)
      : OnlineAllocator("slow-test", params), sleep_ms_(sleep_ms) {}

  void ApplyBlock(const chain::Block& block) override {
    for (const chain::Transaction& tx : block.transactions()) {
      for (chain::AccountId a : tx.accounts()) {
        num_accounts_ = std::max<uint64_t>(num_accounts_, a + 1);
      }
    }
  }

  Result<alloc::Allocation> Allocate(
      const allocator::AllocationContext&) override {
    return Rebalance();
  }

  Result<alloc::Allocation> Rebalance() override {
    return MappingFor(num_accounts_, params_.num_shards);
  }

  std::unique_ptr<allocator::RebalanceTask> BeginRebalance() override {
    // Snapshot now: Run() must not touch the parent (it races ApplyBlock).
    const uint64_t frozen = num_accounts_;
    const uint64_t sleep_ms = sleep_ms_;
    const uint32_t shards = params_.num_shards;
    std::atomic<uint64_t>* runs = &background_runs_;
    return std::make_unique<allocator::ClosureRebalanceTask>(
        [frozen, sleep_ms, shards, runs]() -> Result<alloc::Allocation> {
          std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
          runs->fetch_add(1);
          return MappingFor(frozen, shards);
        },
        [](const Result<alloc::Allocation>&) { return Status(); });
  }

  uint64_t background_runs() const { return background_runs_.load(); }

 private:
  static Result<alloc::Allocation> MappingFor(uint64_t accounts,
                                              uint32_t shards) {
    alloc::Allocation mapping(accounts, shards);
    for (uint64_t a = 0; a < accounts; ++a) {
      mapping.Assign(static_cast<chain::AccountId>(a),
                     static_cast<alloc::ShardId>(a % shards));
    }
    return mapping;
  }
  const uint64_t sleep_ms_;
  uint64_t num_accounts_ = 0;
  std::atomic<uint64_t> background_runs_{0};
};

TEST(PipelineOverrunTest, DefaultScheduleStillBlocksAtEveryBoundary) {
  workload::EthereumLikeConfig workload;
  workload.num_blocks = 40;
  workload.txs_per_block = 30;
  workload.num_accounts = 400;
  workload.num_communities = 8;
  workload.seed = 11;
  workload::EthereumLikeGenerator generator(workload);
  const chain::Ledger ledger = generator.GenerateLedger(workload.num_blocks);

  const uint32_t k = 4;
  SlowAllocator slow(
      alloc::AllocationParams::ForExperiment(ledger.num_transactions(), k,
                                             2.0),
      /*sleep_ms=*/20);

  EngineConfig config;
  config.num_shards = k;
  config.num_threads = 2;
  config.work.capacity_per_block =
      2.0 * static_cast<double>(workload.txs_per_block) / k;
  config.hash_route_unassigned = true;
  ParallelEngine engine(config, nullptr);

  PipelineConfig pipeline;
  pipeline.blocks_per_epoch = 8;  // 5 windows -> 4 boundary rebalances.
  pipeline.allocator_mode = AllocatorMode::kBackground;
  auto result = RunReallocatedStream(ledger, &slow, &engine, pipeline);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // No boundary is skipped: every one launches a task and waits for it.
  EXPECT_EQ(result->epochs, 4u);
  EXPECT_EQ(slow.background_runs(), result->epochs);
  EXPECT_EQ(result->report.sim.committed, ledger.num_transactions());
  // Blocking waits show up as allocation stall.
  EXPECT_GT(result->alloc_wait_seconds, 0.0);
}

}  // namespace
}  // namespace txallo::engine

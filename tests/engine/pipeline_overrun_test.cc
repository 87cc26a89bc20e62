// The background schedule never skips a boundary: a RebalanceTask that
// overruns its epoch makes the tick loop wait for it, so install blocks
// depend only on block boundaries, never on how long the allocator ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "txallo/allocator/allocator.h"
#include "txallo/chain/ledger.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo::engine {
namespace {

// An online allocator whose background Run() overruns its epoch by
// construction: it polls the engine's logical clock until the next boundary
// (`epoch_blocks` after its launch) has been reached, lingers there for
// `linger_ms`, and records the block the engine is at when it returns. A
// driver that waits at the boundary is still there; one that moved on has
// ticked past it meanwhile. The mapping itself is trivial (id mod k over
// the accounts seen at snapshot time) — this test is about the schedule,
// not quality.
class SlowAllocator : public allocator::OnlineAllocator {
 public:
  // Blocks at which one task was launched and at which its Run() returned.
  struct TaskBlocks {
    uint64_t launched = 0;
    std::atomic<uint64_t> returned{0};
  };

  SlowAllocator(alloc::AllocationParams params, const ParallelEngine* engine,
                uint64_t epoch_blocks, uint64_t linger_ms)
      : OnlineAllocator("slow-test", params),
        engine_(engine),
        epoch_blocks_(epoch_blocks),
        linger_ms_(linger_ms) {}

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
    const uint32_t shards = params_.num_shards;
    tasks_.push_back(std::make_unique<TaskBlocks>());
    TaskBlocks* task = tasks_.back().get();
    task->launched = engine_->current_block();
    const uint64_t boundary = task->launched + epoch_blocks_;
    return std::make_unique<allocator::ClosureRebalanceTask>(
        [this, frozen, shards, task, boundary]() -> Result<alloc::Allocation> {
          while (engine_->current_block() < boundary) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms_));
          task->returned.store(engine_->current_block());
          return MappingFor(frozen, shards);
        },
        [](const Result<alloc::Allocation>&) { return Status(); });
  }

  // Driver-side, after the run: every task has been collected.
  const std::vector<std::unique_ptr<TaskBlocks>>& tasks() const {
    return tasks_;
  }

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
  const ParallelEngine* const engine_;
  const uint64_t epoch_blocks_;
  const uint64_t linger_ms_;
  uint64_t num_accounts_ = 0;
  std::vector<std::unique_ptr<TaskBlocks>> tasks_;
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
  SlowAllocator slow(
      alloc::AllocationParams::ForExperiment(ledger.num_transactions(), k,
                                             2.0),
      &engine, pipeline.blocks_per_epoch, /*linger_ms=*/20);
  auto result = RunReallocatedStream(ledger, &slow, &engine, pipeline);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // No boundary is skipped: every one launches a task and waits for it.
  EXPECT_EQ(result->epochs, 4u);
  ASSERT_EQ(slow.tasks().size(), result->epochs);
  EXPECT_EQ(result->report.sim.committed, ledger.num_transactions());
  // Every task ran into its next boundary and returned while the driver was
  // still parked there: the boundary waited for it instead of ticking on.
  for (const auto& task : slow.tasks()) {
    SCOPED_TRACE(testing::Message() << "launched at " << task->launched);
    EXPECT_EQ(task->returned.load(),
              task->launched + pipeline.blocks_per_epoch);
  }
}

}  // namespace
}  // namespace txallo::engine

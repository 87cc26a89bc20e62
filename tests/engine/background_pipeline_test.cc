// The background allocation stage: RebalanceTask::Run() on the
// BackgroundAllocator worker racing live ingest/ticks, and the pipeline's
// determinism guarantee — kBackground's per-step block-level metrics are
// bit-identical to its driver-only fallback's (same logical install
// schedule, the allocation latency just hides behind execution). Runs under
// TSan via the "engine" label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "txallo/allocator/registry.h"
#include "txallo/engine/background_allocator.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo {
namespace {

struct PipelineFixture {
  workload::EthereumLikeConfig config;
  std::unique_ptr<workload::EthereumLikeGenerator> generator;
  chain::Ledger ledger;
};

PipelineFixture MakeFixture(uint64_t blocks = 48, uint64_t seed = 29) {
  PipelineFixture f;
  f.config.num_blocks = blocks;
  f.config.txs_per_block = 50;
  f.config.num_accounts = 1'500;
  f.config.num_communities = 16;
  f.config.seed = seed;
  f.config.drift_interval_blocks = blocks / 3;
  f.generator = std::make_unique<workload::EthereumLikeGenerator>(f.config);
  f.ledger = f.generator->GenerateLedger(f.config.num_blocks);
  return f;
}

Result<engine::PipelineResult> RunOnline(const PipelineFixture& f,
                                         allocator::OnlineAllocator* online,
                                         engine::AllocatorMode mode,
                                         uint32_t producers,
                                         uint32_t epoch_blocks) {
  engine::EngineConfig config;
  config.num_shards = online->online_params().num_shards;
  config.num_threads = 2;
  config.work.capacity_per_block =
      2.0 * static_cast<double>(f.config.txs_per_block) / config.num_shards;
  config.hash_route_unassigned = true;
  engine::ParallelEngine engine(config, nullptr);
  engine::PipelineConfig pipeline;
  pipeline.blocks_per_epoch = epoch_blocks;
  pipeline.allocator_mode = mode;
  pipeline.ingest_producers = producers;
  return engine::RunReallocatedStream(f.ledger, online, &engine, pipeline);
}

// Forwards the streaming interface but not BeginRebalance(), so kBackground
// takes its driver-only fallback: Rebalance() on the driver at each
// boundary, the mapping held for the next one. That fallback is the
// schedule's determinism reference.
class DriverOnlyAllocator : public allocator::OnlineAllocator {
 public:
  explicit DriverOnlyAllocator(allocator::OnlineAllocator* inner)
      : OnlineAllocator(inner->Name(), inner->online_params()),
        inner_(inner) {}

  void ApplyBlock(const chain::Block& block) override {
    inner_->ApplyBlock(block);
  }
  Result<alloc::Allocation> Allocate(
      const allocator::AllocationContext& context) override {
    return inner_->Allocate(context);
  }
  Result<alloc::Allocation> Rebalance() override {
    return inner_->Rebalance();
  }
  alloc::Allocation CurrentAllocation() const override {
    return inner_->CurrentAllocation();
  }

 private:
  allocator::OnlineAllocator* const inner_;
};

Result<engine::PipelineResult> RunMode(const PipelineFixture& f,
                                       const std::string& spec,
                                       engine::AllocatorMode mode,
                                       uint32_t producers = 0,
                                       bool driver_only = false) {
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      f.ledger.num_transactions(), 4, 2.0);
  options.registry = &f.generator->registry();
  auto made = allocator::MakeAllocatorFromSpec(spec, options);
  if (!made.ok()) return made.status();
  allocator::OnlineAllocator* online = (*made)->AsOnline();
  if (online == nullptr) {
    return Status::InvalidArgument(spec + " is one-shot only");
  }
  DriverOnlyAllocator wrapped(online);
  return RunOnline(f, driver_only ? &wrapped : online, mode, producers,
                   /*epoch_blocks=*/8);
}

// An online allocator (id mod k over the accounts seen so far) whose
// background Run() cannot finish on its own: it blocks on a latch that the
// driver opens from ApplyBlock, i.e. only after it has submitted and ticked
// the first block of the next epoch. The driver opens the latch only once
// Run() has started, then waits — still inside ApplyBlock — until Run() has
// returned. Every Run() therefore spans a driver/worker round trip, and by
// the time the pipeline's Collect() starts its stopwatch the result is
// already computed: overlap is positive by construction, not by timing luck.
// Each task also records, on the allocator's logical clock (blocks applied
// so far), when it was launched, when its Run() returned and when the
// driver committed it.
class LatchedAllocator : public allocator::OnlineAllocator {
 public:
  struct TaskBlocks {
    uint64_t launched = 0;
    std::atomic<uint64_t> returned{0};
    uint64_t committed = 0;
  };

  explicit LatchedAllocator(alloc::AllocationParams params)
      : OnlineAllocator("latched-test", params) {}

  void ApplyBlock(const chain::Block& block) override {
    applied_.fetch_add(1);
    for (const chain::Transaction& tx : block.transactions()) {
      for (chain::AccountId a : tx.accounts()) {
        num_accounts_ = std::max<uint64_t>(num_accounts_, a + 1);
      }
    }
    if (pending_ == nullptr) return;
    std::unique_lock<std::mutex> lock(pending_->mu);
    pending_->cv.wait(lock, [&] { return pending_->started; });
    pending_->open = true;
    pending_->cv.notify_all();
    pending_->cv.wait(lock, [&] { return pending_->returned; });
    lock.unlock();
    pending_ = nullptr;
    ++latched_runs_;
  }

  Result<alloc::Allocation> Allocate(
      const allocator::AllocationContext&) override {
    return Rebalance();
  }

  Result<alloc::Allocation> Rebalance() override {
    return MappingFor(num_accounts_, params_.num_shards);
  }

  std::unique_ptr<allocator::RebalanceTask> BeginRebalance() override {
    auto latch = std::make_shared<Latch>();
    pending_ = latch;
    const uint64_t frozen = num_accounts_;
    const uint32_t shards = params_.num_shards;
    tasks_.push_back(std::make_unique<TaskBlocks>());
    TaskBlocks* task = tasks_.back().get();
    task->launched = applied_.load();
    return std::make_unique<allocator::ClosureRebalanceTask>(
        [this, latch, frozen, shards, task]() -> Result<alloc::Allocation> {
          Result<alloc::Allocation> mapping = MappingFor(frozen, shards);
          std::unique_lock<std::mutex> lock(latch->mu);
          latch->started = true;
          latch->cv.notify_all();
          latch->cv.wait(lock, [&] { return latch->open; });
          task->returned.store(applied_.load());
          latch->returned = true;
          latch->cv.notify_all();
          return mapping;
        },
        [this, task](const Result<alloc::Allocation>&) {
          task->committed = applied_.load();
          return Status();
        });
  }

  uint64_t latched_runs() const { return latched_runs_; }
  // Driver-side, after the run: every task has been committed.
  const std::vector<std::unique_ptr<TaskBlocks>>& tasks() const {
    return tasks_;
  }

 private:
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    bool started = false;
    bool open = false;
    bool returned = false;
  };

  static Result<alloc::Allocation> MappingFor(uint64_t accounts,
                                              uint32_t shards) {
    alloc::Allocation mapping(accounts, shards);
    for (uint64_t a = 0; a < accounts; ++a) {
      mapping.Assign(static_cast<chain::AccountId>(a),
                     static_cast<alloc::ShardId>(a % shards));
    }
    return mapping;
  }

  uint64_t num_accounts_ = 0;
  std::shared_ptr<Latch> pending_;
  uint64_t latched_runs_ = 0;
  // Blocks applied so far: written by the driver, read by Run() too.
  std::atomic<uint64_t> applied_{0};
  std::vector<std::unique_ptr<TaskBlocks>> tasks_;
};

void ExpectStepsIdentical(const engine::PipelineResult& a,
                          const engine::PipelineResult& b) {
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    EXPECT_EQ(a.steps[i].first_block, b.steps[i].first_block);
    EXPECT_EQ(a.steps[i].last_block, b.steps[i].last_block);
    EXPECT_EQ(a.steps[i].submitted, b.steps[i].submitted);
    EXPECT_EQ(a.steps[i].committed, b.steps[i].committed);
    EXPECT_EQ(a.steps[i].cross_shard_submitted,
              b.steps[i].cross_shard_submitted);
    EXPECT_DOUBLE_EQ(a.steps[i].throughput_per_block,
                     b.steps[i].throughput_per_block);
    EXPECT_DOUBLE_EQ(a.steps[i].cross_shard_ratio,
                     b.steps[i].cross_shard_ratio);
    EXPECT_EQ(a.steps[i].installed, b.steps[i].installed);
  }
}

TEST(BackgroundAllocatorTest, RunsTaskOffThreadAndReportsTimings) {
  const PipelineFixture f = MakeFixture(12);
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      f.ledger.num_transactions(), 4, 2.0);
  options.registry = &f.generator->registry();
  auto made = allocator::MakeAllocator("metis", options);
  ASSERT_TRUE(made.ok());
  allocator::OnlineAllocator* online = (*made)->AsOnline();
  ASSERT_NE(online, nullptr);
  for (const chain::Block& block : f.ledger.blocks()) {
    online->ApplyBlock(block);
  }

  engine::BackgroundAllocator background;
  EXPECT_FALSE(background.busy());
  EXPECT_FALSE(background.Collect().ok());  // Nothing in flight.
  EXPECT_FALSE(background.Launch(nullptr).ok());

  std::unique_ptr<allocator::RebalanceTask> task = online->BeginRebalance();
  ASSERT_NE(task, nullptr);
  ASSERT_TRUE(background.Launch(std::move(task)).ok());
  EXPECT_TRUE(background.busy());
  // Double-launch while busy is rejected.
  EXPECT_FALSE(background.Launch(online->BeginRebalance()).ok());
  auto outcome = background.Collect();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(background.busy());
  ASSERT_TRUE(outcome->mapping.ok());
  ASSERT_TRUE(outcome->task->Commit().ok());
  EXPECT_GE(outcome->run_seconds, 0.0);
  EXPECT_GE(outcome->wait_seconds, 0.0);
  EXPECT_TRUE(online->CurrentAllocation() == *outcome->mapping);
  // The worker is reusable for the next epoch.
  std::unique_ptr<allocator::RebalanceTask> again = online->BeginRebalance();
  ASSERT_NE(again, nullptr);
  ASSERT_TRUE(background.Launch(std::move(again)).ok());
  auto second = background.Collect();
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->task->Commit().ok());
}

TEST(BackgroundAllocatorTest, DroppedUncollectedTaskDoesNotWedgeAllocator) {
  // The pipeline's error paths destroy the BackgroundAllocator with a task
  // still in flight; abandonment (destruction without Commit) must release
  // the strategy's outstanding-task bookkeeping — a TxAllo allocator used
  // to stay wedged (BeginRebalance() == nullptr forever) and buffer every
  // subsequent block unboundedly.
  const PipelineFixture f = MakeFixture(16);
  for (const std::string spec :
       {"txallo-hybrid:global-every=3", "broker:inner=txallo-hybrid"}) {
    SCOPED_TRACE(spec);
    allocator::AllocatorOptions options;
    options.params = alloc::AllocationParams::ForExperiment(
        f.ledger.num_transactions(), 4, 2.0);
    options.registry = &f.generator->registry();
    auto made = allocator::MakeAllocatorFromSpec(spec, options);
    ASSERT_TRUE(made.ok());
    allocator::OnlineAllocator* online = (*made)->AsOnline();
    ASSERT_NE(online, nullptr);
    for (const chain::Block& block : f.ledger.blocks()) {
      online->ApplyBlock(block);
    }
    {
      engine::BackgroundAllocator background;
      ASSERT_TRUE(background.Launch(online->BeginRebalance()).ok());
      // Destroyed uncollected: Run may or may not have started; either
      // way the task is dropped without Commit().
    }
    online->ApplyBlock(f.ledger.blocks().front());
    std::unique_ptr<allocator::RebalanceTask> task = online->BeginRebalance();
    ASSERT_NE(task, nullptr) << "allocator wedged by the abandoned task";
    ASSERT_TRUE(task->Run().ok());
    ASSERT_TRUE(task->Commit().ok());
  }
}

TEST(BackgroundAllocatorTest, AbandonedTaskMappingIsNeverFoldedIn) {
  // Dropping a task must not apply its mapping: CurrentAllocation() stays
  // whatever the last committed rebalance produced.
  const PipelineFixture f = MakeFixture(16);
  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      f.ledger.num_transactions(), 4, 2.0);
  options.registry = &f.generator->registry();
  auto made = allocator::MakeAllocator("metis", options);
  ASSERT_TRUE(made.ok());
  allocator::OnlineAllocator* online = (*made)->AsOnline();
  const size_t half = f.ledger.blocks().size() / 2;
  for (size_t b = 0; b < half; ++b) online->ApplyBlock(f.ledger.blocks()[b]);
  auto committed = online->Rebalance();
  ASSERT_TRUE(committed.ok());
  for (size_t b = half; b < f.ledger.blocks().size(); ++b) {
    online->ApplyBlock(f.ledger.blocks()[b]);
  }
  {
    std::unique_ptr<allocator::RebalanceTask> task = online->BeginRebalance();
    ASSERT_NE(task, nullptr);
    ASSERT_TRUE(task->Run().ok());
    // Dropped without Commit().
  }
  EXPECT_TRUE(online->CurrentAllocation() == *committed);
}

TEST(BackgroundPipelineTest, BackgroundMatchesDeferredStepForStep) {
  // The acceptance bar: background allocation must not change any logical
  // block-level number — only where the allocation latency is spent.
  const PipelineFixture f = MakeFixture();
  for (const std::string spec :
       {"txallo-hybrid:global-every=3", "metis", "contrib"}) {
    SCOPED_TRACE(spec);
    auto driver_only = RunMode(f, spec, engine::AllocatorMode::kBackground,
                               /*producers=*/0, /*driver_only=*/true);
    auto background = RunMode(f, spec, engine::AllocatorMode::kBackground);
    ASSERT_TRUE(driver_only.ok()) << driver_only.status().ToString();
    ASSERT_TRUE(background.ok()) << background.status().ToString();
    ExpectStepsIdentical(*driver_only, *background);
    EXPECT_EQ(background->epochs, driver_only->epochs);
    EXPECT_EQ(background->accounts_moved, driver_only->accounts_moved);
    EXPECT_EQ(background->report.sim.submitted,
              driver_only->report.sim.submitted);
    EXPECT_EQ(background->report.sim.committed,
              driver_only->report.sim.committed);
    EXPECT_EQ(background->report.sim.cross_shard_submitted,
              driver_only->report.sim.cross_shard_submitted);
    EXPECT_EQ(background->report.sim.blocks_elapsed,
              driver_only->report.sim.blocks_elapsed);
    EXPECT_DOUBLE_EQ(background->report.sim.avg_latency_blocks,
                     driver_only->report.sim.avg_latency_blocks);
    EXPECT_EQ(background->report.reallocations,
              driver_only->report.reallocations);
    // The driver-only fallback stalls for every rebalance; the worker hides
    // the latency (wait <= compute, never more).
    EXPECT_DOUBLE_EQ(driver_only->alloc_overlap_ratio, 0.0);
    EXPECT_GE(background->alloc_overlap_ratio, 0.0);
    EXPECT_LE(background->alloc_overlap_ratio, 1.0);
  }
}

TEST(BackgroundPipelineTest, ReportsPositiveOverlapOnMultiEpochRun) {
  // alloc_overlap_ratio > 0: part of the allocation latency hides behind
  // execution. LatchedAllocator makes every Run() outlast the start of the
  // next epoch's ingest, whatever the machine's load.
  const PipelineFixture f = MakeFixture(60, 31);
  LatchedAllocator latched(alloc::AllocationParams::ForExperiment(
      f.ledger.num_transactions(), 4, 2.0));
  auto result = RunOnline(f, &latched, engine::AllocatorMode::kBackground,
                          /*producers=*/0, /*epoch_blocks=*/6);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->epochs, 9u);  // 10 windows of 6 blocks.
  // Every boundary waited for its task: each Run() was latched and
  // collected, none skipped or left in flight.
  EXPECT_EQ(latched.latched_runs(), result->epochs);
  EXPECT_EQ(result->report.sim.committed, f.ledger.num_transactions());
  // Each Run() spanned the first tick of the next epoch (its allocation time
  // overlapped execution), and the driver committed it at exactly its next
  // boundary, the end of the stream for the last one.
  ASSERT_EQ(latched.tasks().size(), result->epochs);
  for (const auto& task : latched.tasks()) {
    SCOPED_TRACE(testing::Message() << "launched at " << task->launched);
    EXPECT_EQ(task->returned.load(), task->launched + 1);
    EXPECT_EQ(task->committed, task->launched + 6);
  }
  EXPECT_GT(result->alloc_overlap_ratio, 0.0);
}

TEST(BackgroundPipelineTest, BackgroundRebalanceDuringParallelIngest) {
  // The full pipeline: N ingest producers ∥ shard execution ∥ background
  // rebalances, across every strategy shape (controller clone, graph
  // double-buffer, scheduler copy, decorator). TSan covers the handoffs.
  const PipelineFixture f = MakeFixture();
  for (const std::string spec :
       {"txallo-hybrid:global-every=3", "shard-scheduler",
        "broker:inner=contrib"}) {
    SCOPED_TRACE(spec);
    auto result = RunMode(f, spec, engine::AllocatorMode::kBackground,
                          /*producers=*/3);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->report.sim.submitted, f.ledger.num_transactions());
    EXPECT_EQ(result->report.sim.committed, f.ledger.num_transactions());
    EXPECT_EQ(result->epochs, 5u);  // 6 windows of 8 blocks.
    // Initial install + one deferred install per boundary except the first.
    EXPECT_EQ(result->report.reallocations, 5u);
  }
}

TEST(BackgroundPipelineTest, DeferredInstallScheduleIsOneBoundaryLate) {
  const PipelineFixture f = MakeFixture();
  auto sync = RunMode(f, "metis", engine::AllocatorMode::kDriverSync);
  auto background = RunMode(f, "metis", engine::AllocatorMode::kBackground);
  ASSERT_TRUE(sync.ok() && background.ok());
  // 6 windows: 5 boundary rebalances in both schedules.
  EXPECT_EQ(sync->epochs, 5u);
  EXPECT_EQ(background->epochs, 5u);
  // Sync installs at every boundary (plus the initial snapshot); background
  // publishes one boundary later, so its last mapping never installs.
  EXPECT_EQ(sync->report.reallocations, 6u);
  EXPECT_EQ(background->report.reallocations, 5u);
  // 6 ledger windows, plus a trailing drain step when pending commit
  // rounds spill past the stream (both schedules drain identically).
  ASSERT_GE(sync->steps.size(), 6u);
  ASSERT_EQ(sync->steps.size(), background->steps.size());
  EXPECT_TRUE(sync->steps[0].installed);
  EXPECT_FALSE(background->steps[0].installed);  // Nothing held yet.
  EXPECT_TRUE(background->steps[1].installed);
  EXPECT_FALSE(sync->steps[5].installed);      // Trailing window: no update.
  EXPECT_FALSE(background->steps[5].installed);
  for (size_t i = 6; i < sync->steps.size(); ++i) {
    EXPECT_EQ(sync->steps[i].submitted, 0u);   // Drain: commits only.
    EXPECT_FALSE(sync->steps[i].installed);
  }
}

}  // namespace
}  // namespace txallo

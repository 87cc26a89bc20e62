#include "txallo/engine/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "txallo/common/fan_out.h"

namespace txallo::engine {
namespace {

std::shared_ptr<alloc::Allocation> MakeAllocation(
    size_t accounts, uint32_t shards,
    const std::vector<alloc::ShardId>& assignment) {
  auto a = std::make_shared<alloc::Allocation>(accounts, shards);
  for (size_t i = 0; i < assignment.size(); ++i) {
    a->Assign(static_cast<chain::AccountId>(i), assignment[i]);
  }
  return a;
}

EngineConfig SmallConfig(uint32_t shards, uint32_t threads) {
  EngineConfig config;
  config.num_shards = shards;
  config.num_threads = threads;
  config.work.eta = 2.0;
  config.work.capacity_per_block = 10.0;
  config.work.cross_shard_commit_rounds = 1;
  return config;
}

TEST(ParallelEngineTest, IntraBlockCommitsInOneTick) {
  auto alloc = MakeAllocation(2, 2, {0, 0});
  ParallelEngine engine(SmallConfig(2, 2), alloc);
  std::vector<chain::Transaction> txs(8, chain::Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  engine.Tick();
  EngineReport report = engine.Snapshot();
  EXPECT_EQ(report.sim.submitted, 8u);
  EXPECT_EQ(report.sim.committed, 8u);
  EXPECT_EQ(report.sim.cross_shard_submitted, 0u);
  EXPECT_DOUBLE_EQ(report.sim.avg_latency_blocks, 1.0);
  EXPECT_EQ(report.sim.blocks_elapsed, 1u);
  EXPECT_EQ(report.prepares_received, 8u);
}

TEST(ParallelEngineTest, CrossShardPaysEtaAndExtraRound) {
  auto alloc = MakeAllocation(2, 2, {0, 1});
  EngineConfig config = SmallConfig(2, 2);
  config.work.capacity_per_block = 100.0;
  ParallelEngine engine(config, alloc);
  std::vector<chain::Transaction> txs(10, chain::Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.committed, 10u);
  EXPECT_EQ(report.sim.cross_shard_submitted, 10u);
  EXPECT_EQ(report.cross_shard_committed, 10u);
  // Parts finish in block 1, commit lands one round later.
  EXPECT_DOUBLE_EQ(report.sim.avg_latency_blocks, 2.0);
  EXPECT_EQ(report.sim.blocks_elapsed, 2u);
  // Two participants voted PREPARED per transaction.
  EXPECT_EQ(report.prepares_received, 20u);
}

TEST(ParallelEngineTest, RejectsUnassignedAccountByDefault) {
  auto alloc = MakeAllocation(2, 2, {0});  // Account 1 unassigned.
  ParallelEngine engine(SmallConfig(2, 1), alloc);
  std::vector<chain::Transaction> txs{chain::Transaction::Simple(0, 1)};
  Status st = engine.SubmitBlock(txs);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ParallelEngineTest, HashFallbackRoutesUnassignedAccounts) {
  auto alloc = MakeAllocation(2, 2, {0});
  EngineConfig config = SmallConfig(2, 1);
  config.hash_route_unassigned = true;
  ParallelEngine engine(config, alloc);
  // Account 1 hash-routes to shard 1 % 2 = 1 -> cross-shard with account 0.
  std::vector<chain::Transaction> txs{chain::Transaction::Simple(0, 1)};
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.committed, 1u);
  EXPECT_EQ(report.sim.cross_shard_submitted, 1u);
}

TEST(ParallelEngineTest, MismatchedInitialSnapshotIsRejectedLoudly) {
  // A 4-shard snapshot handed to an 8-shard engine must not silently
  // mis-route (hash fallback would fold all traffic into 4 lanes); the
  // first SubmitBlock reports the mismatch, and a correct install recovers.
  EngineConfig config = SmallConfig(8, 1);
  config.hash_route_unassigned = true;
  ParallelEngine engine(config, MakeAllocation(2, 4, {0, 1}));
  std::vector<chain::Transaction> txs{chain::Transaction::Simple(0, 1)};
  Status st = engine.SubmitBlock(txs);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("snapshot rejected"), std::string::npos);
  ASSERT_TRUE(
      engine.InstallAllocation(MakeAllocation(2, 8, {0, 1})).ok());
  EXPECT_TRUE(engine.SubmitBlock(txs).ok());
  EXPECT_EQ(engine.DrainAndReport().sim.committed, 1u);
}

TEST(ParallelEngineTest, NoSnapshotFailsUntilInstalled) {
  ParallelEngine engine(SmallConfig(2, 1), nullptr);
  std::vector<chain::Transaction> txs{chain::Transaction::Simple(0, 1)};
  EXPECT_FALSE(engine.SubmitBlock(txs).ok());
  EXPECT_FALSE(engine.InstallAllocation(nullptr).ok());
  // Wrong shard count is rejected.
  EXPECT_FALSE(
      engine.InstallAllocation(MakeAllocation(2, 3, {0, 1})).ok());
  ASSERT_TRUE(
      engine.InstallAllocation(MakeAllocation(2, 2, {0, 1})).ok());
  EXPECT_TRUE(engine.SubmitBlock(txs).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.committed, 1u);
  EXPECT_EQ(report.reallocations, 1u);
}

TEST(ParallelEngineTest, CapacityBacklogCarriesAcrossTicks) {
  // 25 intra txs into one shard at capacity 10: three blocks to drain.
  auto alloc = MakeAllocation(2, 2, {0, 0});
  ParallelEngine engine(SmallConfig(2, 2), alloc);
  std::vector<chain::Transaction> txs(25, chain::Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  engine.Tick();
  EngineReport mid = engine.Snapshot();
  EXPECT_EQ(mid.sim.committed, 10u);
  EXPECT_DOUBLE_EQ(mid.sim.residual_work, 15.0);
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.committed, 25u);
  EXPECT_EQ(report.sim.blocks_elapsed, 3u);
  EXPECT_DOUBLE_EQ(report.sim.max_latency_blocks, 3.0);
  EXPECT_DOUBLE_EQ(report.sim.residual_work, 0.0);
}

TEST(ParallelEngineTest, MixedIntraCrossTrafficAllCommitsAndDrains) {
  // η = 3 at λ = 4 queues the cross parts for many blocks; draining must
  // commit every transaction and leave no work behind.
  auto alloc = MakeAllocation(4, 2, {0, 0, 1, 1});
  EngineConfig config = SmallConfig(2, 2);
  config.work.eta = 3.0;
  config.work.capacity_per_block = 4.0;
  ParallelEngine engine(config, alloc);
  std::vector<chain::Transaction> txs;
  for (chain::AccountId i = 0; i < 20; ++i) {
    txs.push_back(chain::Transaction::Simple(i % 2, 2 + (i % 2)));  // Cross.
    txs.push_back(chain::Transaction::Simple(0, 1));                // Intra.
  }
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.submitted, 40u);
  EXPECT_EQ(report.sim.cross_shard_submitted, 20u);
  EXPECT_EQ(report.sim.committed, report.sim.submitted);
  EXPECT_EQ(report.cross_shard_committed, 20u);
  EXPECT_EQ(report.sim.residual_work, 0.0);
}

TEST(ParallelEngineTest, IdleShardHalvesMeanUtilization) {
  // Shard 0 spends its whole λ, shard 1 idles: the mean is exactly 1/2.
  auto alloc = MakeAllocation(2, 2, {0, 0});
  ParallelEngine engine(SmallConfig(2, 2), alloc);
  std::vector<chain::Transaction> txs(10, chain::Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  engine.Tick();
  EXPECT_EQ(engine.Snapshot().sim.mean_utilization, 0.5);
}

TEST(ParallelEngineTest, SlowestShardGatesMultiShardCommit) {
  // Six intra transactions pre-load shard 2 (3 blocks at λ = 2); a
  // transaction over shards 0, 1 and 2 then submitted in the same block
  // finishes on shards 0 and 1 in block 1 but on shard 2 only in block 4,
  // and commits one round later.
  EngineConfig config = SmallConfig(3, 3);
  config.work.capacity_per_block = 2.0;
  ParallelEngine engine(config, MakeAllocation(3, 3, {2, 2, 2}));
  std::vector<chain::Transaction> filler(6, chain::Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(filler).ok());
  ASSERT_TRUE(engine.InstallAllocation(MakeAllocation(3, 3, {0, 1, 2})).ok());
  ASSERT_TRUE(engine.SubmitBlock({chain::Transaction({0, 1}, {2})}).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.committed, 7u);
  EXPECT_EQ(report.cross_shard_committed, 1u);
  EXPECT_EQ(report.sim.max_latency_blocks, 5.0);
  EXPECT_EQ(report.sim.blocks_elapsed, 5u);
}

TEST(ParallelEngineTest, ZeroCommitRoundsGiveCrossShardLatencyOne) {
  auto alloc = MakeAllocation(4, 2, {0, 0, 1, 1});
  EngineConfig config = SmallConfig(2, 2);
  config.work.cross_shard_commit_rounds = 0;
  ParallelEngine engine(config, alloc);
  ASSERT_TRUE(engine.SubmitBlock({chain::Transaction::Simple(0, 2)}).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.cross_shard_committed, 1u);
  EXPECT_EQ(report.sim.avg_latency_blocks, 1.0);
}

TEST(ParallelEngineTest, ThroughputSaturatesAtCapacity) {
  // Twice λ of intra work arrives every block: committed throughput is λ,
  // not the demand.
  auto alloc = MakeAllocation(2, 1, {0, 0});
  EngineConfig config = SmallConfig(1, 1);
  config.work.capacity_per_block = 5.0;
  ParallelEngine engine(config, alloc);
  for (int b = 0; b < 20; ++b) {
    std::vector<chain::Transaction> txs(10, chain::Transaction::Simple(0, 1));
    ASSERT_TRUE(engine.SubmitBlock(txs).ok());
    engine.Tick();
  }
  EXPECT_EQ(engine.Snapshot().sim.throughput_per_block, 5.0);
}

TEST(ParallelEngineTest, MoreThreadsThanShardsIsClamped) {
  auto alloc = MakeAllocation(2, 2, {0, 1});
  ParallelEngine engine(SmallConfig(2, 16), alloc);
  EXPECT_EQ(engine.num_workers(), 2u);
}

TEST(ParallelEngineTest, WholeBlockStagesAtOnceAndCommitsInOneTick) {
  // A 200-part block lands in shard 0's staging in full before the tick,
  // and λ = 500 executes all of it in that tick.
  auto alloc = MakeAllocation(2, 2, {0, 0});
  EngineConfig config = SmallConfig(2, 2);
  config.work.capacity_per_block = 500.0;
  ParallelEngine engine(config, alloc);
  std::vector<chain::Transaction> txs(200, chain::Transaction::Simple(0, 1));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  EngineReport report = engine.DrainAndReport();
  EXPECT_EQ(report.sim.committed, 200u);
  ASSERT_EQ(report.max_queue_depth.size(), 2u);
  EXPECT_EQ(report.max_queue_depth[0], 200u);
  EXPECT_EQ(report.max_queue_depth[1], 0u);
  EXPECT_EQ(report.sim.blocks_elapsed, 1u);
}

TEST(ParallelEngineTest, QueueDepthHighWaterIsReported) {
  auto alloc = MakeAllocation(2, 2, {0, 1});
  EngineConfig config = SmallConfig(2, 2);
  ParallelEngine engine(config, alloc);
  std::vector<chain::Transaction> txs(6, chain::Transaction::Simple(0, 0));
  ASSERT_TRUE(engine.SubmitBlock(txs).ok());
  EngineReport report = engine.DrainAndReport();
  ASSERT_EQ(report.max_queue_depth.size(), 2u);
  EXPECT_EQ(report.max_queue_depth[0], 6u);
  EXPECT_EQ(report.max_queue_depth[1], 0u);
}

TEST(ParallelEngineTest, QueueDepthIsThePerTickArrivalPeakForAnyShape) {
  // Accounts 0..3 live on shards 0..3. Each block is one tick's arrivals;
  // a cross-shard transaction stages one part on each of its shards.
  auto repeat = [](std::vector<chain::Transaction>* block, size_t n,
                   chain::AccountId from, chain::AccountId to) {
    block->insert(block->end(), n, chain::Transaction::Simple(from, to));
  };
  std::vector<std::vector<chain::Transaction>> blocks(3);
  repeat(&blocks[0], 50, 0, 0);  // shard 0: 50 + 30 = 80
  repeat(&blocks[0], 30, 0, 1);  // shard 1: 30
  repeat(&blocks[1], 20, 0, 0);  // shard 0: 20
  repeat(&blocks[1], 60, 1, 2);  // shards 1 and 2: 60 each
  repeat(&blocks[2], 10, 2, 3);  // shards 2 and 3: 10 each
  repeat(&blocks[2], 40, 3, 3);  // shard 3: 10 + 40 = 50
  // λ = 10 leaves a backlog every tick; it waits in the FIFO, not in
  // staging, so it never counts towards the depth.
  const std::vector<uint64_t> expected{80, 60, 60, 50};
  auto alloc = MakeAllocation(4, 4, {0, 1, 2, 3});
  for (uint32_t threads : {1u, 3u}) {
    for (uint32_t producers : {0u, 4u}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " producers=" << producers);
      std::optional<common::FanOut> fan_out;
      if (producers > 0) fan_out.emplace(producers);
      ParallelEngine engine(SmallConfig(4, threads), alloc);
      for (const auto& block : blocks) {
        ASSERT_TRUE(
            engine.SubmitBlock(block, fan_out ? &*fan_out : nullptr).ok());
        engine.Tick();
      }
      EngineReport report = engine.DrainAndReport();
      EXPECT_EQ(report.sim.committed, 210u);
      EXPECT_EQ(report.max_queue_depth, expected);
    }
  }
}

}  // namespace
}  // namespace txallo::engine

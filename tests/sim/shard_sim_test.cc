// The sim::WorkModel cost semantics on a four-account, two-shard split,
// executed serially: the engine at one worker, one block per tick.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "txallo/engine/engine.h"

namespace txallo::sim {
namespace {

using chain::Transaction;

// Accounts 0 and 1 on shard 0, accounts 2 and 3 on shard 1.
std::shared_ptr<alloc::Allocation> SplitAllocation() {
  auto a = std::make_shared<alloc::Allocation>(4, 2);
  a->Assign(0, 0);
  a->Assign(1, 0);
  a->Assign(2, 1);
  a->Assign(3, 1);
  return a;
}

engine::EngineConfig Config(double eta, double capacity) {
  engine::EngineConfig c;
  c.num_shards = 2;
  c.num_threads = 1;
  c.work.eta = eta;
  c.work.capacity_per_block = capacity;
  return c;
}

TEST(ShardSimTest, IntraTransactionCommitsInOneBlock) {
  engine::ParallelEngine sim(Config(2.0, 10.0), SplitAllocation());
  ASSERT_TRUE(sim.SubmitBlock({Transaction::Simple(0, 1)}).ok());
  sim.Tick();
  SimReport report = sim.Snapshot().sim;
  EXPECT_EQ(report.committed, 1u);
  EXPECT_DOUBLE_EQ(report.avg_latency_blocks, 1.0);
}

TEST(ShardSimTest, CrossShardPaysExtraRound) {
  engine::ParallelEngine sim(Config(2.0, 10.0), SplitAllocation());
  ASSERT_TRUE(sim.SubmitBlock({Transaction::Simple(0, 2)}).ok());
  SimReport report = sim.DrainAndReport().sim;
  EXPECT_EQ(report.committed, 1u);
  EXPECT_EQ(report.cross_shard_submitted, 1u);
  // Both parts processed in block 1, commit in block 2.
  EXPECT_DOUBLE_EQ(report.avg_latency_blocks, 2.0);
}

TEST(ShardSimTest, OverloadedShardQueuesWork) {
  engine::ParallelEngine sim(Config(2.0, 2.0), SplitAllocation());
  std::vector<Transaction> txs(10, Transaction::Simple(0, 1));
  ASSERT_TRUE(sim.SubmitBlock(txs).ok());
  sim.Tick();
  SimReport mid = sim.Snapshot().sim;
  EXPECT_EQ(mid.committed, 2u);  // Capacity 2 per block.
  EXPECT_GT(mid.residual_work, 0.0);
  SimReport done = sim.DrainAndReport().sim;
  EXPECT_EQ(done.committed, 10u);
  // The last transactions waited 5 blocks.
  EXPECT_GE(done.max_latency_blocks, 5.0);
}

TEST(ShardSimTest, RejectsUnassignedAccounts) {
  auto partial = std::make_shared<alloc::Allocation>(4, 2);
  partial->Assign(0, 0);
  engine::ParallelEngine sim(Config(2.0, 10.0), partial);
  Status st = sim.SubmitBlock({Transaction::Simple(0, 3)});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ShardSimTest, ReallocationBetweenBlocksLosesNothing) {
  // Each block is routed by the mapping installed when it is submitted;
  // switching mappings mid-run (a reconfiguration) must not lose or
  // double-commit transactions already in flight.
  engine::ParallelEngine sim(Config(2.0, 3.0), SplitAllocation());
  auto after = std::make_shared<alloc::Allocation>(4, 2);
  after->Assign(0, 1);
  after->Assign(1, 1);
  after->Assign(2, 0);
  after->Assign(3, 0);
  std::vector<Transaction> txs(10, Transaction::Simple(0, 1));
  ASSERT_TRUE(sim.SubmitBlock(txs).ok());
  sim.Tick();
  ASSERT_TRUE(sim.InstallAllocation(after).ok());  // New mapping.
  ASSERT_TRUE(sim.SubmitBlock(txs).ok());
  SimReport report = sim.DrainAndReport().sim;
  EXPECT_EQ(report.submitted, 20u);
  EXPECT_EQ(report.committed, 20u);
}

}  // namespace
}  // namespace txallo::sim

// Worker-count parity: the engine's logical-block semantics are thread-count
// invariant, so every input, run under 1, 2 and 4 workers, must report equal
// counters and floating-point fields equal to within 1e-12 (summation order
// is the only freedom). Inputs are a small hand-built ring and two seeded
// Ethereum-like ledgers, placed by hash and by G-TxAllo.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "txallo/baselines/hash_allocator.h"
#include "txallo/core/global.h"
#include "txallo/engine/engine.h"
#include "txallo/graph/builder.h"
#include "txallo/workload/ethereum_like.h"

namespace txallo::engine {
namespace {

// One parity input: `blocks` submitted one per tick under `allocation`, then
// drained.
struct ParityInput {
  EngineConfig config;
  std::shared_ptr<alloc::Allocation> allocation;
  std::vector<std::vector<chain::Transaction>> blocks;
};

EngineConfig ParityConfig(uint32_t shards, double capacity) {
  EngineConfig config;
  config.num_shards = shards;
  config.work.eta = 2.0;
  config.work.capacity_per_block = capacity;
  config.work.cross_shard_commit_rounds = 1;
  return config;
}

EngineReport RunInput(const ParityInput& input, uint32_t threads) {
  EngineConfig config = input.config;
  config.num_threads = threads;
  ParallelEngine engine(config, input.allocation);
  for (const auto& block : input.blocks) {
    EXPECT_TRUE(engine.SubmitBlock(block).ok());
    engine.Tick();
  }
  return engine.DrainAndReport();
}

void ExpectThreadCountParity(const ParityInput& input) {
  const EngineReport reference = RunInput(input, 1);
  const sim::SimReport& ref = reference.sim;
  EXPECT_EQ(reference.num_workers, 1u);
  // Every cross-shard transaction goes through 2PC and commits.
  EXPECT_GT(ref.cross_shard_submitted, 0u);
  EXPECT_EQ(reference.cross_shard_committed, ref.cross_shard_submitted);
  EXPECT_EQ(ref.committed, ref.submitted);
  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const EngineReport report = RunInput(input, threads);
    const sim::SimReport& got = report.sim;
    EXPECT_EQ(report.num_workers, threads);
    EXPECT_EQ(got.submitted, ref.submitted);
    EXPECT_EQ(got.committed, ref.committed);
    EXPECT_EQ(got.cross_shard_submitted, ref.cross_shard_submitted);
    EXPECT_EQ(report.cross_shard_committed, reference.cross_shard_committed);
    EXPECT_EQ(report.prepares_received, reference.prepares_received);
    EXPECT_EQ(got.blocks_elapsed, ref.blocks_elapsed);
    EXPECT_EQ(report.max_queue_depth, reference.max_queue_depth);
    EXPECT_NEAR(got.throughput_per_block, ref.throughput_per_block, 1e-12);
    EXPECT_NEAR(got.avg_latency_blocks, ref.avg_latency_blocks, 1e-12);
    EXPECT_EQ(got.max_latency_blocks, ref.max_latency_blocks);
    EXPECT_NEAR(got.mean_utilization, ref.mean_utilization, 1e-12);
    EXPECT_NEAR(got.residual_work, ref.residual_work, 1e-12);
  }
}

// A seeded Ethereum-like ledger at k = 8 and η = 2, with λ `headroom` times
// the mean per-shard block load so queues build. `txallo` places accounts
// with G-TxAllo over the ledger's own graph instead of by hash.
ParityInput SeededInput(uint64_t blocks, uint64_t txs_per_block,
                        uint64_t accounts, uint64_t seed, double headroom,
                        bool txallo) {
  workload::EthereumLikeConfig gen_config;
  gen_config.num_blocks = blocks;
  gen_config.txs_per_block = txs_per_block;
  gen_config.num_accounts = accounts;
  gen_config.num_communities = accounts / 100;
  gen_config.seed = seed;
  workload::EthereumLikeGenerator gen(gen_config);
  const chain::Ledger ledger = gen.GenerateLedger(blocks);
  const uint32_t k = 8;
  ParityInput input{
      ParityConfig(k, headroom * static_cast<double>(txs_per_block) / k),
      nullptr,
      {}};
  if (txallo) {
    graph::TransactionGraph graph = graph::BuildTransactionGraph(ledger);
    graph.EnsureNodeCount(gen.registry().size());
    graph.Consolidate();
    auto placed = core::RunGlobalTxAllo(
        graph, gen.registry().IdsInHashOrder(),
        alloc::AllocationParams::ForExperiment(ledger.num_transactions(), k,
                                               2.0));
    EXPECT_TRUE(placed.ok());
    input.allocation =
        std::make_shared<alloc::Allocation>(std::move(placed.value()));
  } else {
    input.allocation = std::make_shared<alloc::Allocation>(
        baselines::AllocateByHash(gen.registry(), k));
  }
  for (const chain::Block& block : ledger.blocks()) {
    input.blocks.push_back(block.transactions());
  }
  return input;
}

TEST(ParallelEngineTest, ThreadCountDoesNotChangeResults) {
  // Six accounts on four shards, each transaction pays the next account
  // round the ring; three blocks of 40.
  std::vector<chain::Transaction> txs;
  for (int i = 0; i < 40; ++i) {
    txs.push_back(chain::Transaction::Simple(
        static_cast<chain::AccountId>(i % 6),
        static_cast<chain::AccountId>((i + 1) % 6)));
  }
  auto ring = std::make_shared<alloc::Allocation>(6, 4);
  const alloc::ShardId placement[] = {0, 0, 1, 2, 3, 3};
  for (chain::AccountId a = 0; a < 6; ++a) ring->Assign(a, placement[a]);
  ExpectThreadCountParity({ParityConfig(4, 10.0), ring, {txs, txs, txs}});
}

TEST(EngineParityTest, HashAllocationSeedWorkload) {
  ExpectThreadCountParity(SeededInput(/*blocks=*/60, /*txs_per_block=*/120,
                                      /*accounts=*/4'000, /*seed=*/42,
                                      /*headroom=*/1.1, /*txallo=*/false));
}

TEST(EngineParityTest, TxAlloAllocationSeedWorkload) {
  ExpectThreadCountParity(SeededInput(/*blocks=*/50, /*txs_per_block=*/100,
                                      /*accounts=*/3'000, /*seed=*/7,
                                      /*headroom=*/1.05, /*txallo=*/true));
}

}  // namespace
}  // namespace txallo::engine

// Property: the boundary-only optimization sweep (core::OptimizeSweeps,
// which skips nodes whose neighbors all share their shard) must make
// exactly the moves of the plain full-scan sweep. The oracle below is that
// full scan, written against the public gain kernel only: every node is
// scored in every sweep with scalar JoinDelta/LeaveDelta. On seeded random
// graphs, from hash and from Louvain starts, the allocation, every σ/Λ̂ bit
// and the sweep count must match.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <vector>

#include "txallo/alloc/graph_metrics.h"
#include "txallo/baselines/hash_allocator.h"
#include "txallo/common/rng.h"
#include "txallo/core/gain.h"
#include "txallo/core/global.h"
#include "txallo/graph/graph.h"

namespace txallo::core {
namespace {

using alloc::Allocation;
using alloc::AllocationParams;
using alloc::CommunityState;
using alloc::kUnassignedShard;
using alloc::ShardId;
using graph::NodeId;
using graph::TransactionGraph;

constexpr int kSeeds = 200;

// The full-scan sweep: every assigned node of `nodes` is scored against
// every community its neighbors sit in, in every sweep. Same candidate
// order, tie-breaks and stopping rule as G-TxAllo phase 2.
int FullScanSweeps(const TransactionGraph& g, const std::vector<NodeId>& nodes,
                   const AllocationParams& params, int max_sweeps,
                   Allocation* allocation, CommunityState* state) {
  std::vector<double> weight(params.num_shards, 0.0);
  std::vector<ShardId> touched;
  int sweeps = 0;
  for (; sweeps < max_sweeps; ++sweeps) {
    double sweep_gain = 0.0;
    for (NodeId v : nodes) {
      const ShardId p = allocation->shard_of(v);
      if (p == kUnassignedShard) continue;
      const NodeProfile node{g.SelfLoop(v), g.Strength(v)};
      for (const graph::Neighbor& nb : g.Neighbors(v)) {
        const ShardId c = allocation->shard_of(nb.node);
        if (c == kUnassignedShard) continue;
        if (weight[c] == 0.0) touched.push_back(c);
        weight[c] += nb.weight;
      }
      const double leave =
          LeaveDelta(*state, p, node, weight[p]).throughput_gain;
      ShardId best = p;
      double best_gain = 0.0;
      for (ShardId q : touched) {
        if (q == p) continue;
        const double gain =
            leave + JoinDelta(*state, q, node, weight[q]).throughput_gain;
        if (gain > best_gain + 1e-15) {
          best = q;
          best_gain = gain;
        } else if (gain >= best_gain - 1e-15 && best != p && q < best) {
          best = q;
        }
      }
      if (best != p && best_gain > 0.0) {
        ApplyLeave(state, p, node, weight[p]);
        ApplyJoin(state, best, node, weight[best]);
        allocation->Assign(v, best);
        sweep_gain += best_gain;
      }
      for (ShardId c : touched) weight[c] = 0.0;
      touched.clear();
    }
    if (sweep_gain < params.epsilon) {
      ++sweeps;
      break;
    }
  }
  return sweeps;
}

// Planted communities: most edges stay inside a group, so sweeps converge
// over several passes with a large settled interior. A few nodes stay
// isolated and a few carry self-loops.
TransactionGraph PlantedGraph(Rng& rng, int nodes) {
  const int groups = 2 + static_cast<int>(rng.NextBounded(10));
  const int edges = nodes * (2 + static_cast<int>(rng.NextBounded(4)));
  TransactionGraph g;
  for (int e = 0; e < edges; ++e) {
    const auto u = static_cast<NodeId>(rng.NextBounded(nodes));
    NodeId v = static_cast<NodeId>(rng.NextBounded(nodes));
    if (rng.NextBernoulli(0.8)) {
      // Pull v into u's group (group = id mod groups).
      v = static_cast<NodeId>(v - v % groups + u % groups);
      if (v >= static_cast<NodeId>(nodes)) v = u;
    }
    const double w = static_cast<double>(1 + rng.NextBounded(4));
    if (u == v) {
      g.AddSelfLoop(u, w);
    } else {
      g.AddEdge(u, v, w);
    }
  }
  g.EnsureNodeCount(static_cast<size_t>(nodes) + 3);  // Isolated tail.
  g.Consolidate();
  return g;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[c]),
              std::bit_cast<uint64_t>(want[c]))
        << what << "[" << c << "]: " << got[c] << " vs " << want[c];
  }
}

enum class Start { kHash, kLouvain };

class SweepOracle
    : public ::testing::TestWithParam<std::tuple<uint32_t, Start>> {};

TEST_P(SweepOracle, BoundaryOnlyMatchesFullScan) {
  const auto [k, start] = GetParam();
  uint64_t total_skips = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed << " k=" << k);
    Rng rng(static_cast<uint64_t>(seed) * 7919 + k);
    const int nodes = 40 + static_cast<int>(rng.NextBounded(260));
    const TransactionGraph g = PlantedGraph(rng, nodes);

    AllocationParams params = AllocationParams::ForExperiment(
        static_cast<uint64_t>(g.TotalWeight()), k,
        1.0 + static_cast<double>(rng.NextBounded(4)));
    // Tight, loose and unclamped capacities exercise the Eq. 7 clamp.
    params.capacity *= 0.5 * static_cast<double>(1 + rng.NextBounded(8));
    if (rng.NextBernoulli(0.5)) params.epsilon = 1e-9;

    std::vector<NodeId> order(g.num_nodes());
    std::iota(order.begin(), order.end(), 0);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }

    Allocation allocation(g.num_nodes(), k);
    if (start == Start::kHash) {
      allocation = baselines::AllocateByHash(g.num_nodes(), k);
    } else {
      // G-TxAllo phase 1 only: Louvain, top-k, absorption.
      GlobalOptions phase1;
      phase1.max_sweeps = 0;
      auto result = RunGlobalTxAllo(g, order, params, phase1);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      allocation = *std::move(result);
    }

    // Half the seeds sweep a subset, as A-TxAllo sweeps V̂.
    std::vector<NodeId> sweep_nodes = order;
    if (seed % 2 == 0) {
      sweep_nodes.resize(sweep_nodes.size() / 2);
    }

    Allocation want = allocation;
    CommunityState want_state =
        alloc::ComputeCommunityState(g, allocation, params);
    CommunityState got_state = want_state;
    const int want_sweeps = FullScanSweeps(g, sweep_nodes, params, 64, &want,
                                           &want_state);
    const SweepStats got = OptimizeSweeps(g, sweep_nodes, params, {},
                                          &allocation, &got_state);

    EXPECT_EQ(got.sweeps, want_sweeps);
    EXPECT_EQ(got.evaluations + got.skips,
              static_cast<uint64_t>(got.sweeps) * sweep_nodes.size());
    EXPECT_EQ(allocation.raw(), want.raw());
    ExpectSameBits(got_state.sigma, want_state.sigma, "sigma");
    ExpectSameBits(got_state.lambda_hat, want_state.lambda_hat, "lambda_hat");
    total_skips += got.skips;
    if (HasFailure()) return;
  }
  // The property is vacuous unless nodes were actually skipped.
  EXPECT_GT(total_skips, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SweepOracle,
    ::testing::Combine(::testing::Values(2u, 8u, 60u),
                       ::testing::Values(Start::kHash, Start::kLouvain)),
    [](const auto& param_info) {
      return "k" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) == Start::kHash ? "_hash"
                                                             : "_louvain");
    });

// Node 0 settles in sweep 1 (its only neighbor, node 1, shares shard 0),
// then node 1 moves to the clique in shard 1 later in the same sweep. In
// sweep 2 node 0 must be scored again and follow node 1.
TEST(SweepOracleTest, SettledNodeMovesAfterNeighborLeaves) {
  TransactionGraph g;
  g.AddEdge(0, 1, 1.0);
  for (NodeId u : {2u, 3u, 4u}) g.AddEdge(1, u, 3.0);
  g.AddEdge(2, 3, 3.0);
  g.AddEdge(3, 4, 3.0);
  g.AddEdge(2, 4, 3.0);
  g.Consolidate();
  AllocationParams params;
  params.num_shards = 2;
  params.eta = 2.0;
  // Both shards start over capacity, so every cut edge removed raises Λ.
  params.capacity = 10.0;
  params.epsilon = 1e-9;
  const std::vector<NodeId> order = {0, 1, 2, 3, 4};
  const std::vector<ShardId> start = {0, 0, 1, 1, 1};

  auto run = [&](int max_sweeps, Allocation* allocation) {
    for (NodeId v = 0; v < 5; ++v) allocation->Assign(v, start[v]);
    CommunityState state = alloc::ComputeCommunityState(g, *allocation, params);
    GlobalOptions options;
    options.max_sweeps = max_sweeps;
    return OptimizeSweeps(g, order, params, options, allocation, &state);
  };

  Allocation one_sweep(5, 2);
  const SweepStats first = run(1, &one_sweep);
  EXPECT_EQ(one_sweep.shard_of(0), 0u);  // Settled, then stranded.
  EXPECT_EQ(one_sweep.shard_of(1), 1u);
  EXPECT_EQ(first.evaluations, 5u);

  Allocation converged(5, 2);
  const SweepStats stats = run(64, &converged);
  EXPECT_EQ(converged.shard_of(0), 1u);
  EXPECT_EQ(converged.shard_of(1), 1u);
  EXPECT_GE(stats.sweeps, 2);
  // Sweep 2 scores only node 0 (cleared by node 1's move) and node 1 (never
  // settled); 2, 3 and 4 settled in sweep 1 and stay skipped.
  EXPECT_GT(stats.skips, 0u);

  Allocation oracle(5, 2);
  for (NodeId v = 0; v < 5; ++v) oracle.Assign(v, start[v]);
  CommunityState oracle_state = alloc::ComputeCommunityState(g, oracle, params);
  EXPECT_EQ(FullScanSweeps(g, order, params, 64, &oracle, &oracle_state),
            stats.sweeps);
  EXPECT_EQ(converged.raw(), oracle.raw());
}

}  // namespace
}  // namespace txallo::core

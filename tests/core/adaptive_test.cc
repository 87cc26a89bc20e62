#include "txallo/core/adaptive.h"

#include <gtest/gtest.h>

#include <numeric>

#include "txallo/graph/builder.h"

namespace txallo::core {
namespace {

using alloc::Allocation;
using alloc::AllocationParams;
using alloc::CommunityState;
using graph::NodeId;
using graph::TransactionGraph;

AllocationParams Params(uint32_t k, double eta, double capacity) {
  AllocationParams p;
  p.num_shards = k;
  p.eta = eta;
  p.capacity = capacity;
  p.epsilon = 1e-9;
  return p;
}

TEST(AdaptiveTxAlloTest, NewNodeJoinsItsNeighborsCommunity) {
  TransactionGraph g;
  g.AddEdge(0, 1, 5.0);
  g.AddEdge(2, 3, 5.0);
  // New node 4 strongly attached to the {2,3} community.
  g.AddEdge(4, 2, 3.0);
  g.AddEdge(4, 3, 3.0);
  g.Consolidate();

  AllocationParams params = Params(2, 2.0, 100.0);
  Allocation a(5, 2);
  a.Assign(0, 0);
  a.Assign(1, 0);
  a.Assign(2, 1);
  a.Assign(3, 1);  // Node 4 is new / unassigned.
  CommunityState state = alloc::ComputeCommunityState(g, a, params);

  AdaptiveRunInfo info;
  ASSERT_TRUE(RunAdaptiveTxAllo(g, {4}, params, {}, &a, &state, &info).ok());
  EXPECT_EQ(a.shard_of(4), 1u);
  EXPECT_EQ(info.new_nodes, 1u);
  EXPECT_EQ(info.touched_nodes, 1u);
  EXPECT_EQ(info.sweep_evaluations + info.sweep_skips,
            static_cast<uint64_t>(info.sweeps) * info.touched_nodes);
}

TEST(AdaptiveTxAlloTest, DisconnectedNewNodeFallsBackToAllCommunities) {
  TransactionGraph g;
  g.AddEdge(0, 1, 1.0);
  g.EnsureNodeCount(3);  // Node 2 isolated (appeared in a self-loop-free way).
  g.Consolidate();
  AllocationParams params = Params(2, 2.0, 100.0);
  Allocation a(3, 2);
  a.Assign(0, 0);
  a.Assign(1, 0);
  CommunityState state = alloc::ComputeCommunityState(g, a, params);
  ASSERT_TRUE(RunAdaptiveTxAllo(g, {2}, params, {}, &a, &state).ok());
  EXPECT_TRUE(a.IsAssigned(2));
}

TEST(AdaptiveTxAlloTest, OnlyTouchedNodesMayMove) {
  // A-TxAllo restricted to V̂ must never reassign accounts outside V̂.
  TransactionGraph g;
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(2, 3, 1.0);
  g.AddEdge(1, 2, 4.0);  // Strong pull between the pairs.
  g.Consolidate();
  AllocationParams params = Params(2, 3.0, 100.0);
  Allocation a(4, 2);
  a.Assign(0, 0);
  a.Assign(1, 0);
  a.Assign(2, 1);
  a.Assign(3, 1);
  CommunityState state = alloc::ComputeCommunityState(g, a, params);
  const auto shard0_before = a.shard_of(0);
  const auto shard3_before = a.shard_of(3);
  ASSERT_TRUE(RunAdaptiveTxAllo(g, {1, 2}, params, {}, &a, &state).ok());
  EXPECT_EQ(a.shard_of(0), shard0_before);
  EXPECT_EQ(a.shard_of(3), shard3_before);
}

TEST(AdaptiveTxAlloTest, ThroughputDoesNotDecrease) {
  TransactionGraph g;
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) g.AddEdge(u, v, 1.0);
  }
  for (NodeId u = 6; u < 12; ++u) {
    for (NodeId v = u + 1; v < 12; ++v) g.AddEdge(u, v, 1.0);
  }
  g.AddEdge(0, 6, 0.5);
  g.Consolidate();
  AllocationParams params = Params(2, 2.0, g.TotalWeight() / 2.0);
  // Deliberately bad previous allocation: interleaved.
  Allocation a(12, 2);
  for (NodeId v = 0; v < 12; ++v) a.Assign(v, v % 2);
  CommunityState state = alloc::ComputeCommunityState(g, a, params);
  const double before = state.TotalThroughput();
  std::vector<NodeId> all(12);
  std::iota(all.begin(), all.end(), 0);
  AdaptiveRunInfo info;
  ASSERT_TRUE(RunAdaptiveTxAllo(g, all, params, {}, &a, &state, &info).ok());
  EXPECT_GE(info.final_throughput, before - 1e-9);
  EXPECT_GT(info.final_throughput, before);  // Plenty of gain available.
}

TEST(AdaptiveTxAlloTest, StateStaysConsistentWithScratchRecomputation) {
  TransactionGraph g;
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(1, 2, 1.0);
  g.AddEdge(3, 4, 2.0);
  g.AddEdge(2, 3, 0.5);
  g.AddSelfLoop(2, 0.7);
  g.Consolidate();
  AllocationParams params = Params(3, 2.5, 3.0);
  Allocation a(5, 3);
  a.Assign(0, 0);
  a.Assign(1, 0);
  a.Assign(3, 1);
  a.Assign(4, 1);  // Node 2 new.
  CommunityState state = alloc::ComputeCommunityState(g, a, params);
  ASSERT_TRUE(RunAdaptiveTxAllo(g, {2, 1, 3}, params, {}, &a, &state).ok());
  CommunityState scratch = alloc::ComputeCommunityState(g, a, params);
  for (uint32_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(state.sigma[c], scratch.sigma[c], 1e-9) << "c=" << c;
    EXPECT_NEAR(state.lambda_hat[c], scratch.lambda_hat[c], 1e-9);
  }
}

TEST(AdaptiveTxAlloTest, RejectsShardCountMismatch) {
  TransactionGraph g;
  g.AddEdge(0, 1, 1.0);
  g.Consolidate();
  AllocationParams params = Params(3, 2.0, 10.0);
  Allocation a(2, 3);
  a.Assign(0, 0);
  a.Assign(1, 1);
  CommunityState state;  // Wrong size (empty).
  state.eta = params.eta;
  state.capacity = params.capacity;
  Status st = RunAdaptiveTxAllo(g, {0}, params, {}, &a, &state);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(AdaptiveTxAlloTest, RejectsUngrownAllocation) {
  TransactionGraph g;
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 1.0);
  g.Consolidate();
  AllocationParams params = Params(2, 2.0, 10.0);
  Allocation a(2, 2);  // Graph has 3 nodes.
  a.Assign(0, 0);
  a.Assign(1, 1);
  CommunityState state = alloc::ComputeCommunityState(g, a, params);
  Status st = RunAdaptiveTxAllo(g, {2}, params, {}, &a, &state);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(AdaptiveTxAlloTest, EmptyTouchedSetIsANoOp) {
  TransactionGraph g;
  g.AddEdge(0, 1, 1.0);
  g.Consolidate();
  AllocationParams params = Params(2, 2.0, 10.0);
  Allocation a(2, 2);
  a.Assign(0, 0);
  a.Assign(1, 0);
  CommunityState state = alloc::ComputeCommunityState(g, a, params);
  Allocation before = a;
  AdaptiveRunInfo info;
  ASSERT_TRUE(RunAdaptiveTxAllo(g, {}, params, {}, &a, &state, &info).ok());
  EXPECT_TRUE(a == before);
  EXPECT_EQ(info.new_nodes, 0u);
}

}  // namespace
}  // namespace txallo::core

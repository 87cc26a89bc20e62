#include "txallo/core/adaptive.h"

#include "txallo/common/stopwatch.h"

namespace txallo::core {

Status RunAdaptiveTxAllo(const graph::TransactionGraph& graph,
                         const std::vector<graph::NodeId>& touched_nodes,
                         const alloc::AllocationParams& params,
                         const GlobalOptions& options,
                         alloc::Allocation* allocation,
                         alloc::CommunityState* state,
                         AdaptiveRunInfo* info) {
  TXALLO_RETURN_NOT_OK(params.Validate());
  if (!graph.consolidated()) {
    return Status::FailedPrecondition(
        "transaction graph must be consolidated before allocation");
  }
  if (allocation->num_accounts() < graph.num_nodes()) {
    return Status::InvalidArgument(
        "allocation must be grown to cover all graph nodes");
  }
  if (state->num_communities() != params.num_shards) {
    return Status::InvalidArgument("community state shard count mismatch");
  }

  AdaptiveRunInfo local;
  Stopwatch watch;
  local.touched_nodes = touched_nodes.size();
  for (graph::NodeId v : touched_nodes) {
    if (!allocation->IsAssigned(v)) ++local.new_nodes;
  }

  // Lines 1-8: place new nodes by join gain.
  AssignUnassignedNodes(graph, touched_nodes, params, allocation, state);

  // Lines 9-17: optimization sweeps restricted to V̂.
  const SweepStats stats = OptimizeSweeps(graph, touched_nodes, params,
                                          options, allocation, state);
  local.sweeps = stats.sweeps;
  local.sweep_evaluations = stats.evaluations;
  local.sweep_skips = stats.skips;

  local.final_throughput = state->TotalThroughput();
  local.total_seconds = watch.ElapsedSeconds();
  if (info != nullptr) *info = local;
  return Status::OK();
}

}  // namespace txallo::core

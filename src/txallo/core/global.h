// G-TxAllo (paper Algorithm 1): the global allocation algorithm.
//
// Phase 1 (initialization): run deterministic Louvain on the transaction
// graph; keep the k communities with the largest workload σ; absorb every
// node of the remaining small communities into one of the k via the best
// join gain (Eq. 6), falling back to all k communities when a node has no
// assigned neighbor.
//
// Phase 2 (optimization): sweep all nodes in the deterministic order; move
// each to the candidate community C_v (Eq. 9) with the largest positive
// Δ(i,p,q)Λ (Eq. 8); repeat sweeps while the accumulated gain ≥ ε.
//
// Complexity: O(N log N) initialization; optimization is O(N+E) for the
// first sweep, then O(boundary nodes' degree + moves' degree) per sweep
// (see OptimizeSweeps). Every step is deterministic given the node order
// (paper §V-B).
#pragma once

#include <cstdint>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/alloc/graph_metrics.h"
#include "txallo/alloc/params.h"
#include "txallo/common/status.h"
#include "txallo/graph/graph.h"
#include "txallo/graph/louvain.h"

namespace txallo::core {

/// Tuning knobs beyond AllocationParams.
struct GlobalOptions {
  graph::LouvainOptions louvain;
  /// Safety valve on optimization sweeps (the ε criterion normally stops
  /// the loop long before this).
  int max_sweeps = 64;
  /// Disables the candidate-community restriction of Eq. 9 and searches all
  /// k communities for every node. Only for the ablation bench: slower,
  /// same-or-marginally-different results.
  bool search_all_communities = false;
  /// Skips the Louvain initialization and seeds shards by account hash
  /// instead. Only for the ablation bench.
  bool hash_initialization = false;
};

/// Run report for diagnostics and the running-time figures.
struct GlobalRunInfo {
  double louvain_seconds = 0.0;
  double init_seconds = 0.0;       // Small-community absorption.
  double optimize_seconds = 0.0;
  double total_seconds = 0.0;
  uint32_t louvain_communities = 0;
  int sweeps = 0;
  uint64_t sweep_evaluations = 0;  // See SweepStats.
  uint64_t sweep_skips = 0;
  double initial_throughput = 0.0;  // After phase 1.
  double final_throughput = 0.0;    // After convergence.
};

/// Runs G-TxAllo over a consolidated transaction graph.
///
/// `node_order` is the deterministic iteration order (a permutation of
/// [0, graph.num_nodes()), typically AccountRegistry::IdsInHashOrder()).
/// Returns the account-shard mapping; optionally fills `info`.
Result<alloc::Allocation> RunGlobalTxAllo(
    const graph::TransactionGraph& graph,
    const std::vector<graph::NodeId>& node_order,
    const alloc::AllocationParams& params, const GlobalOptions& options = {},
    GlobalRunInfo* info = nullptr);

/// The phase-1b primitive, shared with A-TxAllo (Algorithm 2, lines 1-8):
/// every node of `node_order` that is still unassigned joins the community
/// with the best join gain (Eq. 6); the candidate set falls back to all k
/// communities when the node has no assigned neighbor. `allocation` and
/// `state` are updated in place.
void AssignUnassignedNodes(const graph::TransactionGraph& graph,
                           const std::vector<graph::NodeId>& node_order,
                           const alloc::AllocationParams& params,
                           alloc::Allocation* allocation,
                           alloc::CommunityState* state);

/// Logical work counters of one OptimizeSweeps call. Every sweep visits
/// every sweep node once, so evaluations + skips == sweeps · |sweep_nodes|.
struct SweepStats {
  int sweeps = 0;
  /// Visits that scored the node's candidate communities.
  uint64_t evaluations = 0;
  /// Visits skipped because the node cannot move (or is unassigned).
  uint64_t skips = 0;
};

/// The phase-2 optimization loop, exposed separately because A-TxAllo and
/// the ablations reuse it. Sweeps `sweep_nodes` (in order) until the total
/// gain of a sweep is < ε or `max_sweeps` is hit. `allocation` and `state`
/// are updated in place.
///
/// Boundary-only: a node whose assigned neighbors all sit in its own shard
/// has an empty Eq. 9 candidate set, so it is marked settled and skipped
/// until one of its neighbors moves. Skipping it never changes a move, a
/// σ/Λ̂ bit or the sweep count, so after an O(N+E) first sweep each sweep
/// costs O(boundary nodes' degree + moves' degree). With
/// `search_all_communities` every node is scored in every sweep.
SweepStats OptimizeSweeps(const graph::TransactionGraph& graph,
                          const std::vector<graph::NodeId>& sweep_nodes,
                          const alloc::AllocationParams& params,
                          const GlobalOptions& options,
                          alloc::Allocation* allocation,
                          alloc::CommunityState* state);

}  // namespace txallo::core

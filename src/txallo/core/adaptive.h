// A-TxAllo (paper Algorithm 2): the adaptive allocation algorithm.
//
// Instead of re-optimizing all of V, A-TxAllo takes the previous allocation
// and the set V̂ of nodes appearing in newly committed blocks:
//   lines 1-8: new nodes (v ∈ V̂ not in the previous allocation) join the
//              community with the best join gain (Eq. 6);
//   lines 9-17: optimization sweeps restricted to V̂ until the sweep gain
//               drops below ε.
// Complexity O(|V̂|·k) — constant in the ledger size because |V̂| is bounded
// by the update gap τ1, which is the paper's answer to the ever-growing
// chain (§IV-B/§V-C).
#pragma once

#include <cstdint>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/alloc/graph_metrics.h"
#include "txallo/alloc/params.h"
#include "txallo/common/status.h"
#include "txallo/core/global.h"
#include "txallo/graph/graph.h"

namespace txallo::core {

/// Diagnostics for one adaptive step.
struct AdaptiveRunInfo {
  double total_seconds = 0.0;
  int sweeps = 0;
  uint64_t sweep_evaluations = 0;  // See SweepStats.
  uint64_t sweep_skips = 0;
  size_t touched_nodes = 0;   // |V̂|
  size_t new_nodes = 0;       // Nodes unseen by the previous allocation.
  double final_throughput = 0.0;
};

/// Runs one A-TxAllo step in place.
///
/// `graph` must already contain the new blocks' edges (consolidated);
/// `touched_nodes` is V̂ in the deterministic iteration order;
/// `allocation` is the previous mapping grown to graph.num_nodes() (new
/// nodes unassigned); `state` is the incrementally maintained — or freshly
/// recomputed — CommunityState matching (graph, allocation).
Status RunAdaptiveTxAllo(const graph::TransactionGraph& graph,
                         const std::vector<graph::NodeId>& touched_nodes,
                         const alloc::AllocationParams& params,
                         const GlobalOptions& options,
                         alloc::Allocation* allocation,
                         alloc::CommunityState* state,
                         AdaptiveRunInfo* info = nullptr);

}  // namespace txallo::core

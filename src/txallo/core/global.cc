#include "txallo/core/global.h"

#include <algorithm>
#include <numeric>

#include "txallo/common/sha256.h"
#include "txallo/common/stopwatch.h"
#include "txallo/core/gain.h"
#include "txallo/graph/csr.h"

namespace txallo::core {

namespace {

using alloc::Allocation;
using alloc::AllocationParams;
using alloc::CommunityState;
using alloc::kUnassignedShard;
using alloc::ShardId;
using graph::NodeId;
using graph::TransactionGraph;

// Scratch accumulator of w{v, community}, reset via a touched list so a
// sweep over the whole graph is O(Σ degree), not O(N·k). Also owns the
// per-node join-gain buffer the batched kernel fills.
class WeightToCommunity {
 public:
  explicit WeightToCommunity(uint32_t num_communities)
      : num_communities_(num_communities),
        weight_(num_communities, 0.0),
        gains_(num_communities, 0.0) {
    touched_.reserve(64);
  }

  void Accumulate(const TransactionGraph& graph, NodeId v,
                  const Allocation& allocation) {
    const ShardId* shard_of = allocation.raw().data();
    const size_t num_accounts = allocation.num_accounts();
    for (const graph::Neighbor& nb : graph.Neighbors(v)) {
      const ShardId c =
          nb.node < num_accounts ? shard_of[nb.node] : kUnassignedShard;
      if (c == kUnassignedShard) continue;
      if (weight_[c] == 0.0) touched_.push_back(c);
      weight_[c] += nb.weight;
    }
  }

  /// Fills gains_[q] = join gain of the accumulated node into q. When the
  /// candidate set is dense — or the caller needs all k — one batched pass
  /// over the contiguous σ/Λ̂ arrays; otherwise scalar JoinDelta per
  /// touched community other than `home` (the node's own shard, whose join
  /// gain no caller reads). Both paths produce bit-identical gains (the
  /// batch kernel replays the scalar expression tree), so the density
  /// heuristic affects speed only, never the selected shard. Untouched
  /// entries are stale in sparse mode; callers only read q's they asked for.
  void ComputeJoinGains(const CommunityState& state, const NodeProfile& node,
                        bool need_all, ShardId home = kUnassignedShard) {
    if (need_all || touched_.size() * 4 >= num_communities_) {
      JoinGainBatch(state, node, weight_.data(), num_communities_,
                    gains_.data());
    } else {
      for (ShardId q : touched_) {
        if (q == home) continue;
        gains_[q] = JoinDelta(state, q, node, weight_[q]).throughput_gain;
      }
    }
  }

  double WeightTo(ShardId c) const { return weight_[c]; }
  double Gain(ShardId c) const { return gains_[c]; }
  const std::vector<ShardId>& touched() const { return touched_; }

  void Reset() {
    for (ShardId c : touched_) weight_[c] = 0.0;
    touched_.clear();
  }

 private:
  uint32_t num_communities_;
  std::vector<double> weight_;
  std::vector<double> gains_;
  std::vector<ShardId> touched_;
};

// Phase 1a: Louvain + keep the k communities with the largest workload σ.
// Fills `allocation` with shard ids for nodes of the top-k communities and
// leaves every other node unassigned. Returns the Louvain community count.
uint32_t LouvainInitialize(const TransactionGraph& graph,
                           const std::vector<NodeId>& node_order,
                           const AllocationParams& params,
                           const GlobalOptions& options,
                           Allocation* allocation) {
  const graph::CsrGraph csr = graph::CsrGraph::FromGraph(graph);
  graph::LouvainResult louvain =
      graph::RunLouvain(csr, node_order, options.louvain);
  const uint32_t l = louvain.num_communities;

  // Workload σ of every Louvain community (η-aware), used for the top-k
  // ranking. Reuse the from-scratch state computation with k' = l.
  Allocation louvain_alloc(graph.num_nodes(), l);
  for (size_t v = 0; v < graph.num_nodes(); ++v) {
    louvain_alloc.Assign(static_cast<NodeId>(v), louvain.community[v]);
  }
  AllocationParams rank_params = params;
  rank_params.num_shards = l;
  CommunityState rank_state =
      alloc::ComputeCommunityState(graph, louvain_alloc, rank_params);

  // Rank communities by workload, descending; ties toward the smaller id
  // keep the ranking deterministic.
  std::vector<uint32_t> ranked(l);
  std::iota(ranked.begin(), ranked.end(), 0);
  std::sort(ranked.begin(), ranked.end(), [&](uint32_t a, uint32_t b) {
    if (rank_state.sigma[a] != rank_state.sigma[b]) {
      return rank_state.sigma[a] > rank_state.sigma[b];
    }
    return a < b;
  });

  std::vector<ShardId> community_to_shard(l, kUnassignedShard);
  const uint32_t kept = std::min(params.num_shards, l);
  for (uint32_t rank = 0; rank < kept; ++rank) {
    community_to_shard[ranked[rank]] = rank;
  }
  for (size_t v = 0; v < graph.num_nodes(); ++v) {
    const ShardId s = community_to_shard[louvain.community[v]];
    if (s != kUnassignedShard) allocation->Assign(static_cast<NodeId>(v), s);
  }
  return l;
}

}  // namespace

void AssignUnassignedNodes(const TransactionGraph& graph,
                           const std::vector<NodeId>& node_order,
                           const AllocationParams& params,
                           Allocation* allocation, CommunityState* state) {
  WeightToCommunity scratch(params.num_shards);
  for (NodeId v : node_order) {
    if (allocation->IsAssigned(v)) continue;
    NodeProfile node{graph.SelfLoop(v), graph.Strength(v)};
    scratch.Accumulate(graph, v, *allocation);
    scratch.ComputeJoinGains(*state, node,
                             /*need_all=*/scratch.touched().empty());

    // Max join gain; ties break toward the smaller shard id (determinism).
    ShardId best = kUnassignedShard;
    double best_gain = 0.0;
    if (!scratch.touched().empty()) {
      for (ShardId q : scratch.touched()) {
        const double gain = scratch.Gain(q);
        if (best == kUnassignedShard || gain > best_gain + 1e-15) {
          best = q;
          best_gain = gain;
        } else if (gain >= best_gain - 1e-15 && q < best) {
          best = q;
        }
      }
    } else {
      // C_v = ∅: force the candidate set to all k communities (Alg. 1 l.5).
      for (ShardId q = 0; q < params.num_shards; ++q) {
        const double gain = scratch.Gain(q);
        if (best == kUnassignedShard || gain > best_gain + 1e-15) {
          best = q;
          best_gain = gain;
        }
      }
    }
    ApplyJoin(state, best, node, scratch.WeightTo(best));
    allocation->Assign(v, best);
    scratch.Reset();
  }
}

SweepStats OptimizeSweeps(const TransactionGraph& graph,
                          const std::vector<NodeId>& sweep_nodes,
                          const AllocationParams& params,
                          const GlobalOptions& options, Allocation* allocation,
                          CommunityState* state) {
  WeightToCommunity scratch(params.num_shards);
  // settled[v] = 1 once v was scored with every assigned neighbor in its own
  // shard p: its Eq. 9 candidate set holds no q != p, so it cannot move
  // until a neighbor changes shard, and that move clears the flag.
  // Sized for any assigned sweep node and any neighbor.
  std::vector<uint8_t> settled(
      std::max(graph.num_nodes(), allocation->num_accounts()), 0);
  SweepStats stats;
  for (; stats.sweeps < options.max_sweeps; ++stats.sweeps) {
    double sweep_gain = 0.0;
    for (NodeId v : sweep_nodes) {
      const ShardId p = allocation->shard_of(v);
      // Unassigned is defensive: phase 1 assigns every node.
      if (p == kUnassignedShard || settled[v] != 0) {
        ++stats.skips;
        continue;
      }
      ++stats.evaluations;
      NodeProfile node{graph.SelfLoop(v), graph.Strength(v)};
      scratch.Accumulate(graph, v, *allocation);

      const double w_to_p = scratch.WeightTo(p);
      const CommunityDelta leave = LeaveDelta(*state, p, node, w_to_p);
      scratch.ComputeJoinGains(*state, node,
                               /*need_all=*/options.search_all_communities,
                               /*home=*/p);

      ShardId best = p;
      double best_gain = 0.0;
      if (options.search_all_communities) {
        for (ShardId q = 0; q < params.num_shards; ++q) {
          if (q == p) continue;
          const double gain = leave.throughput_gain + scratch.Gain(q);
          if (gain > best_gain + 1e-15) {
            best = q;
            best_gain = gain;
          } else if (gain >= best_gain - 1e-15 && best != p && q < best) {
            best = q;
          }
        }
      } else {
        bool has_candidate = false;
        for (ShardId q : scratch.touched()) {
          if (q == p) continue;
          has_candidate = true;
          const double gain = leave.throughput_gain + scratch.Gain(q);
          if (gain > best_gain + 1e-15) {
            best = q;
            best_gain = gain;
          } else if (gain >= best_gain - 1e-15 && best != p && q < best) {
            best = q;
          }
        }
        if (!has_candidate) settled[v] = 1;
      }
      if (best != p && best_gain > 0.0) {
        ApplyLeave(state, p, node, w_to_p);
        ApplyJoin(state, best, node, scratch.WeightTo(best));
        allocation->Assign(v, best);
        sweep_gain += best_gain;
        for (const graph::Neighbor& nb : graph.Neighbors(v)) {
          settled[nb.node] = 0;
        }
      }
      scratch.Reset();
    }
    if (sweep_gain < params.epsilon) {
      ++stats.sweeps;
      break;
    }
  }
  return stats;
}

Result<Allocation> RunGlobalTxAllo(const TransactionGraph& graph,
                                   const std::vector<NodeId>& node_order,
                                   const AllocationParams& params,
                                   const GlobalOptions& options,
                                   GlobalRunInfo* info) {
  TXALLO_RETURN_NOT_OK(params.Validate());
  if (!graph.consolidated()) {
    return Status::FailedPrecondition(
        "transaction graph must be consolidated before allocation");
  }
  if (node_order.size() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "node_order must be a permutation of all graph nodes");
  }

  GlobalRunInfo local_info;
  Stopwatch total_watch;
  Allocation allocation(graph.num_nodes(), params.num_shards);

  if (options.hash_initialization) {
    // Ablation: seed shards by account hash instead of Louvain communities.
    Stopwatch watch;
    for (size_t v = 0; v < graph.num_nodes(); ++v) {
      allocation.Assign(static_cast<NodeId>(v),
                        static_cast<ShardId>(Sha256::Hash64(
                                                 static_cast<uint64_t>(v)) %
                                             params.num_shards));
    }
    local_info.louvain_seconds = watch.ElapsedSeconds();
  } else {
    Stopwatch watch;
    local_info.louvain_communities =
        LouvainInitialize(graph, node_order, params, options, &allocation);
    local_info.louvain_seconds = watch.ElapsedSeconds();
  }

  CommunityState state =
      alloc::ComputeCommunityState(graph, allocation, params);

  {
    Stopwatch watch;
    AssignUnassignedNodes(graph, node_order, params, &allocation, &state);
    local_info.init_seconds = watch.ElapsedSeconds();
  }
  local_info.initial_throughput = state.TotalThroughput();

  {
    Stopwatch watch;
    const SweepStats stats = OptimizeSweeps(graph, node_order, params,
                                            options, &allocation, &state);
    local_info.sweeps = stats.sweeps;
    local_info.sweep_evaluations = stats.evaluations;
    local_info.sweep_skips = stats.skips;
    local_info.optimize_seconds = watch.ElapsedSeconds();
  }
  local_info.final_throughput = state.TotalThroughput();
  local_info.total_seconds = total_watch.ElapsedSeconds();
  if (info != nullptr) *info = local_info;

  TXALLO_RETURN_NOT_OK(allocation.Validate());
  return allocation;
}

}  // namespace txallo::core

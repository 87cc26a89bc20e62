// Shared per-transaction work accounting of the parallel engine
// (txallo::engine), the executor of the paper's cost semantics: an
// intra-shard transaction costs 1 work unit on its one shard, a cross-shard
// transaction costs η on every involved shard (§III-B's workload factor),
// each shard processes λ work units per block, and a cross-shard
// transaction pays extra commit round(s) after its last part finishes (the
// additional round of consensus §I describes).
#pragma once

#include <cstdint>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/chain/transaction.h"
#include "txallo/common/status.h"

namespace txallo::sim {

/// The η/λ/commit-round cost model the engine executes.
struct WorkModel {
  /// Workload factor of a cross-shard transaction part.
  double eta = 2.0;
  /// Workload units one shard can process per block.
  double capacity_per_block = 100.0;
  /// Extra commit rounds a cross-shard transaction pays after its last
  /// shard part finishes.
  uint32_t cross_shard_commit_rounds = 1;

  /// Work one shard spends on its part of a transaction.
  double PartWork(bool cross_shard) const { return cross_shard ? eta : 1.0; }

  /// Block at which a transaction whose last part finished at
  /// `last_part_block` actually commits.
  uint64_t CommitBlock(uint64_t last_part_block, bool cross_shard) const {
    return cross_shard ? last_part_block + cross_shard_commit_rounds
                       : last_part_block;
  }
};

/// Aggregated block-level results of an engine run.
struct SimReport {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t cross_shard_submitted = 0;
  /// Committed transactions per elapsed block.
  double throughput_per_block = 0.0;
  /// Mean commit latency in blocks (arrival block -> commit block).
  double avg_latency_blocks = 0.0;
  double max_latency_blocks = 0.0;
  /// Mean over shards of (work processed / (capacity * blocks)).
  double mean_utilization = 0.0;
  /// Work still queued when the run ended.
  double residual_work = 0.0;
  uint64_t blocks_elapsed = 0;
};

/// Routing policy for accounts the current allocation has not placed.
enum class UnassignedPolicy {
  /// Reject the transaction.
  kReject,
  /// Deterministically hash-route (account id mod k) — what a live chain
  /// does for accounts created since the last allocation epoch.
  kHashFallback,
};

/// The per-account routing rule: writes the shard `account` executes on
/// under `allocation` to `*shard` — its assigned shard, or account id mod k
/// for an unplaced account under kHashFallback. Returns FailedPrecondition
/// for an unplaced account under kReject. RouteTransaction applies it to
/// every account of a transaction, and the engine to every op of a transfer
/// plan, so a part carries exactly the ops of the accounts routed to it.
Status RouteAccount(chain::AccountId account,
                    const alloc::Allocation& allocation,
                    UnassignedPolicy policy, alloc::ShardId* shard);

/// Computes the distinct shards `tx` touches under `allocation` into
/// `*shards` (cleared first, order of first appearance preserved — the
/// engine's queueing order). Returns FailedPrecondition on an unassigned
/// account under kReject.
Status RouteTransaction(const chain::Transaction& tx,
                        const alloc::Allocation& allocation,
                        UnassignedPolicy policy,
                        std::vector<alloc::ShardId>* shards);

}  // namespace txallo::sim

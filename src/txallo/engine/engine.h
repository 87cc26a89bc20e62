// Parallel sharded execution engine: the one executor of the §III-B block
// cost model. Shards are independent processors; with one worker thread
// the engine is also the serial reference. The pieces:
//
//   * Ingest/mempool: SubmitBlock() routes each transaction by the current
//     alloc::Allocation snapshot and appends its parts to the staging
//     buffer of each shard it touches (one locked append per shard per
//     call).
//   * Shard workers: a fixed pool of threads, shards striped across them
//     (worker w owns shards s with s % num_workers == w — one worker per
//     shard when threads >= shards). Once per tick each worker moves its
//     shards' staged parts into their FIFOs and executes one block of work
//     per owned shard under the shared sim::WorkModel cost semantics
//     (η per cross part, λ capacity per block).
//   * Cross-shard commits: after each tick's worker barrier the driver
//     votes every finished part into a TwoPhaseCoordinator, in canonical
//     (shard, lane-position) order; cross-shard transactions pay the extra
//     commit round(s) of §I.
//   * Online reallocation: InstallAllocation() swaps in a new copy-on-write
//     std::shared_ptr<const Allocation> snapshot between block boundaries.
//     Workers never read the allocation (routing happens at ingest), so the
//     swap never stops them — the epoch hook in engine/pipeline.h drives it
//     from any allocator::OnlineAllocator.
//
// Time is logical, in blocks: Tick() advances every shard by one block in
// parallel and barriers before commit decisions are flushed, so for a given
// submission sequence the report is the same for every worker count.
//
// Determinism: every submitted transaction carries an ingest *sequence tag*
// (a position in a per-engine reservation counter, reserved once per
// SubmitBlock call). Producers may append to a shard's staging buffer in
// any interleaving — the lane merges its staged arrivals into its FIFO in
// sequence order at the next tick, after all in-flight submissions have
// returned (the driver contract). Per-lane execution order is therefore a
// pure function of the submitted blocks and installed snapshots,
// independent of worker threads, producer count and λ; with trace recording
// on (EnableTraceRecording), ExtractTrace() returns the canonical per-tick,
// per-shard prepare order and 2PC outcome stream that engine/replay.h
// serializes and replays bit-identically.
//
// Threading contract: ingest is multi-producer — SubmitBlock may be called
// from any number of threads concurrently (the per-shard staging buffers
// and the 2PC registry are shared-state safe), and with a common::FanOut it
// slices one block across the pool's threads itself.
// Tick/Snapshot/DrainAndReport remain driver API — one thread at a time,
// and they must not overlap in-flight submissions (the logical clock
// advances between ingest phases, exactly like a block boundary).
// InstallAllocation is safe from any thread at any time.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>  // txallo-lint: allow(raw-thread) worker pool
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/chain/transaction.h"
#include "txallo/common/histogram.h"
#include "txallo/common/sha256.h"
#include "txallo/common/status.h"
#include "txallo/common/sync.h"
#include "txallo/engine/two_phase.h"
#include "txallo/sim/work_model.h"
#include "txallo/state/state_db.h"

namespace txallo::common {
class FanOut;
}  // namespace txallo::common

namespace txallo::engine {

struct EngineConfig {
  uint32_t num_shards = 8;
  /// Shared η/λ/commit-round cost semantics.
  sim::WorkModel work;
  /// Account-state backend (state/). Disabled by default: the engine then
  /// executes the pure cost model — every vote is PREPARED and installs
  /// are free mapping edits. Enabled, parts stage real debits/credits
  /// (insufficient balance -> deterministic abort), installs migrate
  /// account records between shard DBs (charged against λ), and each tick
  /// fingerprints the committed state with a Merkle root.
  state::StateConfig state;
  /// Worker threads; 0 = min(hardware_concurrency, num_shards). Clamped to
  /// [1, num_shards].
  uint32_t num_threads = 0;
  /// Route accounts the snapshot has not placed by hash (account id mod k)
  /// instead of rejecting the block. What a live chain does for accounts
  /// created since the last allocation epoch; the reallocation pipeline
  /// turns this on.
  bool hash_route_unassigned = false;
  /// Synthetic CPU cost per work unit (iterations of an LCG spin),
  /// emulating real transaction execution so thread scaling is measurable.
  /// 0 (default) keeps execution pure bookkeeping.
  uint64_t spin_iterations_per_unit = 0;
};

/// One executed transaction part: the PREPARED vote a shard cast at a tick,
/// keyed by the transaction's ingest sequence tag. The per-lane event order
/// is the lane's execution order; ExtractTrace() returns the global stream
/// in canonical (block, shard, lane-position) order.
struct PrepareEvent {
  /// Tick at which the part finished executing (the vote's block).
  uint64_t block = 0;
  uint32_t shard = 0;
  /// Ingest sequence tag of the transaction.
  uint64_t seq = 0;
  bool operator==(const PrepareEvent&) const = default;
};

/// Merkle root of the committed account state at the end of a tick
/// (recorded only with the state backend on; replay verifies these
/// bit-identically — structural state verification, not just
/// trace-identity).
struct TickStateRoot {
  uint64_t block = 0;
  Sha256Digest root{};
  bool operator==(const TickStateRoot&) const = default;
};

/// Block-level report plus engine-only observability.
struct EngineReport {
  sim::SimReport sim;
  uint32_t num_workers = 0;
  /// Per-shard peak number of parts staged between two ticks: the largest
  /// arrival batch a shard had to merge at once. Deterministic — a function
  /// of the submitted blocks and installed snapshots only.
  std::vector<uint64_t> max_queue_depth;
  /// Total seconds workers spent parked waiting for work or ticks.
  double worker_stall_seconds = 0.0;
  /// Allocation snapshots installed while running.
  uint64_t reallocations = 0;
  /// Total seconds ingest was blocked installing snapshots (the
  /// "reallocation pause"; copy-on-write keeps this near zero).
  double realloc_pause_seconds = 0.0;
  /// 2PC observability: PREPARED votes received and cross-shard commits.
  uint64_t prepares_received = 0;
  uint64_t cross_shard_committed = 0;
  /// Transactions aborted by a failed state check (state backend only).
  uint64_t aborted = 0;
  uint64_t cross_shard_aborted = 0;
  /// Account records moved between shard DBs by allocation installs
  /// (state backend only; the migration cost charged against λ).
  uint64_t accounts_migrated = 0;
  /// Exact commit-latency histogram in blocks (decision − arrival), commits
  /// only. Deterministic across thread/producer counts; p50/p99/p99.9 come
  /// straight out of it.
  common::Histogram commit_latency_blocks;
};

class ParallelEngine {
 public:
  /// Starts the worker pool. `initial` may be null — SubmitBlock then
  /// fails until InstallAllocation() provides a snapshot. An `initial`
  /// whose shard count differs from the engine's is rejected the same way
  /// InstallAllocation would reject it; SubmitBlock reports the mismatch.
  ParallelEngine(EngineConfig config,
                 std::shared_ptr<const alloc::Allocation> initial);

  /// Stops and joins the workers. Pending (unticked) work is discarded.
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Routes one block of transactions by the current allocation snapshot
  /// into the shards' staging buffers.
  ///
  /// Tags: the call reserves the block's sequence range once, up front, and
  /// transaction i carries tag base + i. With `fan_out` null the block is
  /// submitted on the caller's thread; otherwise each pool thread submits
  /// one contiguous slice, in any interleaving, and the call returns once
  /// every slice is in (the first failing slice's status is returned).
  /// Because the tags depend only on the block, and lanes merge arrivals by
  /// tag at the next tick, per-lane execution order — and so which parts
  /// fit a tight λ budget first — is identical for every pool size.
  ///
  /// Safe from several threads concurrently; each call's tags are then
  /// contiguous but ordered by reservation, so deterministic runs submit
  /// from one driver. Must not overlap Tick()/Snapshot()/DrainAndReport().
  Status SubmitBlock(const std::vector<chain::Transaction>& transactions,
                     common::FanOut* fan_out = nullptr);

  /// Starts recording the deterministic execution trace (per-lane prepare
  /// events and 2PC commit events). Driver-side, before the first
  /// submission or tick; recording cannot be turned off again.
  void EnableTraceRecording();

  /// Starts collecting per-transaction 2PC decisions for the driver
  /// (TakeObservedCommits) — how the open-loop pipeline learns each
  /// transaction's commit tick to close its end-to-end latency sample.
  /// Driver-side, before the first submission or tick; cannot be turned
  /// off again.
  void EnableCommitObservation();

  /// Decisions issued since the last call, in deterministic issue order.
  /// Driver-side, between ticks. Empty unless EnableCommitObservation ran.
  std::vector<TwoPhaseCoordinator::Decision> TakeObservedCommits();

  /// The canonical recorded trace so far: prepares in (block, shard,
  /// lane-position) order, commits in (block, seq) order. Driver-side.
  /// Empty unless EnableTraceRecording() ran.
  struct Trace {
    std::vector<PrepareEvent> prepares;
    std::vector<CommitEvent> commits;
    /// Per-tick committed-state Merkle roots (state backend on only).
    std::vector<TickStateRoot> state_roots;
  };
  Trace ExtractTrace();

  /// Publishes a new allocation snapshot; takes effect from the next
  /// SubmitBlock(). Safe from any thread, never stops the workers. Fails if
  /// the snapshot is null or its shard count differs from the engine's.
  Status InstallAllocation(std::shared_ptr<const alloc::Allocation> next);

  /// Advances one block: every shard executes up to λ work in parallel;
  /// after the barrier, due cross-shard commit decisions are flushed.
  void Tick();

  /// Ticks until all lanes drain and all commits land (bounded by
  /// `max_extra_blocks`), then reports.
  EngineReport DrainAndReport(uint64_t max_extra_blocks = 1'000'000);

  /// Report without draining. Driver-side.
  EngineReport Snapshot();

  uint64_t current_block() const {
    return now_.load(std::memory_order_relaxed);
  }
  const EngineConfig& config() const { return config_; }
  uint32_t num_workers() const { return num_workers_; }
  /// The snapshot ingest currently routes by (null before the first
  /// install when constructed without one).
  std::shared_ptr<const alloc::Allocation> allocation_snapshot() const;

  /// The account-state backend, or nullptr when EngineConfig::state is
  /// disabled. Driver-side only, and only between ticks (the driver owns
  /// it exactly when it owns Tick()).
  state::StateDb* state() { return state_.get(); }
  const state::StateDb* state() const { return state_.get(); }

 private:
  struct WorkItem {
    uint64_t tx_index;
    uint64_t seq;
    double work_remaining;
    /// This part's staged effects (state backend on; empty otherwise).
    std::vector<state::Op> ops;
  };
  /// A part that finished executing this tick, parked by the owning worker
  /// for the driver to stage + vote after the barrier (in canonical lane
  /// order — which is what keeps state mutation deterministic and the
  /// state DB single-threaded).
  struct FinishedPart {
    uint64_t tx_index;
    uint64_t seq;
    std::vector<state::Op> ops;
  };
  // Per-shard execution state. The staging buffer is shared (producers
  // append, the owner worker takes it at the tick); everything below it is
  // owned by the shard's worker during a tick and read by the driver only
  // between ticks.
  struct ShardLane {
    common::Mutex staging_mu;
    // Arrivals since the last tick, in append (interleaving-dependent)
    // order; merged into the FIFO in sequence order at the next tick, once
    // every in-flight submission has returned. This staging step is what
    // makes per-lane order producer-schedule independent.
    std::vector<WorkItem> staging TXALLO_GUARDED_BY(staging_mu);
    // Largest staging size reached (EngineReport::max_queue_depth).
    uint64_t max_staged TXALLO_GUARDED_BY(staging_mu) = 0;
    std::deque<WorkItem> fifo;
    double processed_work = 0.0;
    // Prepare votes in execution order (only when recording; owner-written).
    std::vector<PrepareEvent> prepare_log;
    // Parts finished this tick; owner-written during the tick, drained by
    // the driver after the barrier (stage + vote), before the next tick.
    std::vector<FinishedPart> finished;
    // λ units still owed for account-record migration (state backend).
    // Driver-written before workers are notified of a tick; owner-consumed
    // off the top of that tick's budget.
    double migration_debt = 0.0;
  };
  // Routes `count` transactions; transaction i carries tag first_seq + i.
  // Reads one copy-on-write snapshot, buckets the parts by shard and
  // appends each bucket to its lane's staging under the lane's lock, so
  // disjoint slices may run on different threads at once.
  Status SubmitTransactions(const chain::Transaction* transactions,
                            size_t count, uint64_t first_seq);
  void WorkerMain(uint32_t worker_index);
  void ExecuteBlock(uint32_t shard, ShardLane& lane, uint64_t block,
                    bool record);
  // Driver-side, before notifying workers of a tick: applies any pending
  // allocation install to state residency (migrating records) and charges
  // the moved records as migration debt against the involved lanes' λ.
  void SyncStateResidency();

  const EngineConfig config_;
  TwoPhaseCoordinator coordinator_;
  std::vector<std::unique_ptr<ShardLane>> lanes_;

  // Routing snapshot (copy-on-write; swapped under its own mutex so
  // InstallAllocation is safe from any thread). snapshot_error_ remembers
  // why a constructor-supplied snapshot was rejected, so the first
  // SubmitBlock fails with the cause rather than "no snapshot".
  mutable common::Mutex routing_mu_;
  std::shared_ptr<const alloc::Allocation> routing_
      TXALLO_GUARDED_BY(routing_mu_);
  std::string snapshot_error_ TXALLO_GUARDED_BY(routing_mu_);
  uint64_t reallocations_ TXALLO_GUARDED_BY(routing_mu_) = 0;
  double realloc_pause_seconds_ TXALLO_GUARDED_BY(routing_mu_) = 0.0;
  // An install has been published whose residency migration has not run
  // yet (picked up by SyncStateResidency at the next tick).
  bool state_pending_sync_ TXALLO_GUARDED_BY(routing_mu_) = false;

  // Account-state backend. Allocated once in the constructor (null when
  // disabled); mutated by the driver only, between tick barriers — workers
  // never touch it, which is why it needs no lock.
  const std::unique_ptr<state::StateDb> state_;
  // Driver-only state observability (same ownership as state_).
  uint64_t accounts_migrated_ = 0;
  std::vector<TickStateRoot> tick_roots_;
  // Driver-only commit observation (EnableCommitObservation): decisions the
  // driver has not collected yet. Touched only between tick barriers.
  bool observe_commits_ = false;
  std::vector<TwoPhaseCoordinator::Decision> observed_commits_;

  // Tick protocol: Tick() bumps tick_generation_ and sets workers_busy_ to
  // the worker count; each worker runs its lanes for that tick, decrements
  // workers_busy_, and Tick() returns once it reaches zero.
  mutable common::Mutex mu_;
  common::CondVar cv_workers_;
  common::CondVar cv_driver_;
  uint64_t tick_generation_ TXALLO_GUARDED_BY(mu_) = 0;
  uint32_t workers_busy_ TXALLO_GUARDED_BY(mu_) = 0;
  bool stopping_ TXALLO_GUARDED_BY(mu_) = false;
  // Workers sample it under mu_ at the top of each loop iteration and pass
  // the value into ExecuteBlock.
  bool record_trace_ TXALLO_GUARDED_BY(mu_) = false;
  double worker_stall_seconds_ TXALLO_GUARDED_BY(mu_) = 0.0;
  // Sized before any thread spawns, then joined in the destructor; only the
  // constructor/destructor touch the vector itself.
  std::vector<std::thread> worker_threads_;  // txallo-lint: allow(raw-thread)
  const uint32_t num_workers_;

  // Logical clock. Written by the driver in Tick(); read (relaxed) by
  // concurrent producers in SubmitTransactions — stable there because
  // submissions never overlap ticks (threading contract).
  std::atomic<uint64_t> now_{0};
  // Ingest sequence-tag reservation counter (one range per SubmitBlock).
  std::atomic<uint64_t> ingest_seq_{0};
};

}  // namespace txallo::engine

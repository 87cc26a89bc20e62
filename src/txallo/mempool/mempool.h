// Concurrent mempool with admission control, sitting between transaction
// producers and engine ingest (ParallelEngine::SubmitBlock).
//
// Two-sided design, mirroring the engine's producer/driver split:
//
//   * Producer side ("staging"): any number of threads call Submit() /
//     TrySubmit() concurrently. Arrivals land in a bounded staging buffer
//     guarded by its own mutex; when staging is full, Submit() blocks until
//     the driver seals (explicit backpressure, policy "block at the door")
//     and TrySubmit() returns false (policy "reject at the door"). Producers
//     tag each arrival with a pool sequence number reserved up front
//     (ReserveSequenceRange), exactly like the engine's ingest tags.
//
//   * Driver side ("admitted"): once per tick the single driver calls
//     SealTick(), which drains staging, orders arrivals by pool_seq — making
//     everything downstream independent of producer interleaving — and runs
//     admission control: capacity bound, per-account pending limit, and
//     per-account per-tick rate limit. Rejected arrivals are dropped with
//     per-reason counters (AdmissionPolicy::kReject) or deferred to a FIFO
//     retried at the next seal (AdmissionPolicy::kBlock; the deferral queue
//     is bounded by the pool capacity, beyond which even kBlock sheds load —
//     unbounded buffering would just hide the overload the open-loop bench
//     exists to measure). TakeBatch() then dispatches the fee-priority
//     prefix of the pool to the engine.
//
// Ordering: dispatch order is (fee descending, pool_seq ascending) — highest
// bid first, FIFO within a bid. Both keys are producer-interleaving
// independent, so the dispatched stream, every admission counter, and every
// latency histogram downstream are bit-identical across thread and producer
// counts. That property is pinned by tests/mempool/.
//
// Storage is chunked (chunk.h): append-only slabs, tombstone removal, and
// wholesale chunk reclamation by the background MempoolCleaner (cleaner.h)
// via the dead-entry hook — compaction is physically observable but
// logically invisible, so the cleaner may run, lag, or be absent without
// changing any output.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "txallo/chain/account.h"
#include "txallo/chain/transaction.h"
#include "txallo/common/status.h"
#include "txallo/common/sync.h"
#include "txallo/mempool/chunk.h"

namespace txallo::mempool {

/// What admission control does with an arrival that fails a check.
enum class AdmissionPolicy : uint8_t {
  /// Drop it immediately, counted by failure reason.
  kReject = 0,
  /// Defer it and retry at the next seal, FIFO, ahead of newer arrivals.
  /// The deferral queue is bounded by `capacity`; once it is full even
  /// kBlock sheds load, dropping with the failing reason's counter —
  /// unbounded buffering would just hide the overload the open-loop bench
  /// exists to measure.
  kBlock = 1,
};

struct MempoolConfig {
  /// Maximum live (admitted, undispatched) transactions. 0 = unlimited.
  size_t capacity = 1 << 16;
  /// Producer-side staging bound: Submit() blocks / TrySubmit() fails when
  /// this many arrivals await the next seal. Must be >= 1.
  size_t staging_capacity = 1 << 12;
  /// Max live transactions per paying account. 0 = unlimited.
  uint32_t account_pending_limit = 0;
  /// Max admissions per paying account per tick. 0 = unlimited.
  uint32_t account_rate_limit = 0;
  /// Live transactions older than this many ticks (since admission) expire
  /// at the next seal. 0 = never expire.
  uint64_t ttl_ticks = 0;
  AdmissionPolicy policy = AdmissionPolicy::kReject;
  /// Entries per storage chunk.
  size_t chunk_size = 512;
  /// Fire the cleaner hook once this many dead entries accumulate.
  size_t dead_compact_threshold = 2048;
};

/// Monotonic admission counters. Deterministic for a deterministic arrival
/// order: every counter except `submitted` and `dropped_backpressure` (which
/// count producer-side attempts) is driver-side, updated only under seal.
struct AdmissionStats {
  /// Submit/TrySubmit calls, successful or not.
  uint64_t submitted = 0;
  /// TrySubmit calls refused because staging was full.
  uint64_t dropped_backpressure = 0;
  /// Arrivals accepted into the pool.
  uint64_t admitted = 0;
  uint64_t dropped_capacity = 0;
  uint64_t dropped_account_pending = 0;
  uint64_t dropped_account_rate = 0;
  /// Arrivals deferred at least once (kBlock policy).
  uint64_t deferred = 0;
  /// Live transactions expired by TTL.
  uint64_t expired = 0;
  /// High-water mark of live pool depth, sampled at each seal.
  uint64_t peak_depth = 0;
  bool operator==(const AdmissionStats&) const = default;
};

class Mempool {
 public:
  explicit Mempool(MempoolConfig config);
  ~Mempool();

  Mempool(const Mempool&) = delete;
  Mempool& operator=(const Mempool&) = delete;

  const MempoolConfig& config() const { return config_; }

  /// Reserves `count` consecutive pool sequence numbers and returns the
  /// first. Thread-safe; typically the driver reserves one range per tick
  /// and hands disjoint sub-ranges to producers (the open-loop pipeline's
  /// common::FanOut offer step).
  uint64_t ReserveSequenceRange(size_t count) {
    return seq_counter_.fetch_add(count, std::memory_order_relaxed);
  }

  /// Producer-side blocking submit: waits while staging is full, until the
  /// driver seals or Shutdown() is called (then FailedPrecondition).
  Status Submit(chain::Transaction tx, uint64_t fee, uint64_t submit_tick,
                uint64_t pool_seq) TXALLO_EXCLUDES(staging_mu_);

  /// Producer-side non-blocking submit: false when staging is full (counted
  /// as a backpressure drop) or after Shutdown().
  bool TrySubmit(chain::Transaction tx, uint64_t fee, uint64_t submit_tick,
                 uint64_t pool_seq) TXALLO_EXCLUDES(staging_mu_);

  /// Unblocks every blocked Submit() with a failure; subsequent submits
  /// fail immediately. Driver-side, for teardown.
  void Shutdown() TXALLO_EXCLUDES(staging_mu_);

  /// Driver-side, once per tick: drains staging (sorted by pool_seq),
  /// retries deferred arrivals, expires TTL-stale entries, and runs
  /// admission control at tick `tick`. Returns the number admitted.
  size_t SealTick(uint64_t tick) TXALLO_EXCLUDES(staging_mu_, mu_);

  /// Driver-side: removes and returns up to `max_txs` live transactions in
  /// dispatch order (fee descending, pool_seq ascending).
  std::vector<PendingTx> TakeBatch(size_t max_txs) TXALLO_EXCLUDES(mu_);

  /// Admitted, undispatched, unexpired transactions.
  size_t live_size() const TXALLO_EXCLUDES(mu_);
  /// Arrivals awaiting the next seal (staging only, not deferrals).
  size_t staged_size() const TXALLO_EXCLUDES(staging_mu_);
  /// Deferred arrivals awaiting retry (kBlock policy).
  size_t deferred_size() const TXALLO_EXCLUDES(mu_);
  /// Tombstoned entries not yet physically reclaimed.
  size_t dead_count() const TXALLO_EXCLUDES(mu_);

  AdmissionStats stats() const TXALLO_EXCLUDES(staging_mu_, mu_);

  /// One physical compaction pass: reclaims every chunk whose entries are
  /// all dead. Logically invisible — safe to call from a background thread
  /// at any point, or never. Returns chunks reclaimed.
  size_t CompactOnce() TXALLO_EXCLUDES(mu_);

  /// Installs (or clears, with nullptr) the hook fired — outside any pool
  /// lock — whenever dead_count() crosses the configured threshold. The
  /// MempoolCleaner registers itself here. Not thread-safe against
  /// concurrent Seal/Take; install before the driver loop starts.
  void SetCleanerHook(std::function<void(size_t dead_count)> hook);

 private:
  struct Staged {
    PendingTx tx;
  };

  /// A live entry and the chunk that owns it (needed to keep the chunk's
  /// live count in step when tombstoning).
  struct LiveRef {
    MempoolChunk* chunk;
    MempoolChunk::Entry* entry;
  };

  /// Admission outcome for one candidate; updates counters/structures.
  /// Returns true when admitted.
  bool AdmitLocked(PendingTx&& tx, uint64_t tick,
                   std::map<chain::AccountId, uint32_t>& rate_this_tick,
                   std::deque<PendingTx>& still_deferred)
      TXALLO_REQUIRES(mu_);

  /// Tombstones a live entry: chunk live count, per-account pending count,
  /// dead count. Caller erases it from live_by_seq_.
  void KillLocked(const LiveRef& ref) TXALLO_REQUIRES(mu_);

  /// Paying account: first input (the fee payer), falling back to the
  /// first distinct account for input-less transactions.
  static chain::AccountId PayerOf(const chain::Transaction& tx);

  const MempoolConfig config_;
  std::atomic<uint64_t> seq_counter_{0};

  // ---- Producer side -----------------------------------------------------
  mutable common::Mutex staging_mu_;
  common::CondVar staging_cv_;
  std::vector<Staged> staging_ TXALLO_GUARDED_BY(staging_mu_);
  bool shutdown_ TXALLO_GUARDED_BY(staging_mu_) = false;
  uint64_t submitted_ TXALLO_GUARDED_BY(staging_mu_) = 0;
  uint64_t dropped_backpressure_ TXALLO_GUARDED_BY(staging_mu_) = 0;

  // ---- Driver side -------------------------------------------------------
  mutable common::Mutex mu_;
  std::vector<std::unique_ptr<MempoolChunk>> chunks_ TXALLO_GUARDED_BY(mu_);
  /// Live entries by pool_seq; erased on dispatch/expiry. std::map for
  /// deterministic iteration (the determinism lint forbids unordered
  /// containers here).
  std::map<uint64_t, LiveRef> live_by_seq_ TXALLO_GUARDED_BY(mu_);
  /// Priority index over live entries, sorted worst-first so the best
  /// (highest fee, lowest seq) pops from the back. Entries whose seq is no
  /// longer live are tombstones, skipped lazily at TakeBatch.
  struct PriorityKey {
    uint64_t fee;
    uint64_t seq;
  };
  /// Worst-first comparator: ascending fee, descending seq within a fee.
  static bool WorsePriority(const PriorityKey& a, const PriorityKey& b) {
    if (a.fee != b.fee) return a.fee < b.fee;
    return a.seq > b.seq;
  }
  std::vector<PriorityKey> index_ TXALLO_GUARDED_BY(mu_);
  /// kBlock deferrals, FIFO, retried ahead of new arrivals each seal.
  std::deque<PendingTx> overflow_ TXALLO_GUARDED_BY(mu_);
  std::map<chain::AccountId, uint32_t> pending_per_account_
      TXALLO_GUARDED_BY(mu_);
  size_t dead_count_ TXALLO_GUARDED_BY(mu_) = 0;
  AdmissionStats stats_ TXALLO_GUARDED_BY(mu_);

  std::function<void(size_t)> cleaner_hook_;
};

}  // namespace txallo::mempool

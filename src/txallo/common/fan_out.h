// Persistent fork-join pool: one fixed set of threads that splits an index
// range into contiguous slices, runs one slice per thread and returns when
// every slice is done.
//
// It is the one producer pool of the ingest path. The open-loop pipeline
// fans each tick's offer into the mempool through it, and
// engine::ParallelEngine::SubmitBlock fans a block into the per-shard
// staging buffers through it. Run() is a barrier: nothing the slices touch is in
// flight once it returns, so a driver that alternates Run() with
// single-threaded phases (seal, tick) never overlaps them.
//
// Determinism is the caller's job, and the rule is the same on both sides:
// reserve the batch's sequence tags once, before Run(), and tag item i as
// base + i inside its slice. The tags are then a function of the batch
// alone, whatever the thread count or interleaving, and every consumer
// orders by tag (the engine's lanes merge arrivals by tag at the tick
// barrier; the mempool seals staging in tag order). Slices may still reach
// a *bounded* buffer in any order, so whatever they push into must be
// sized to hold a whole batch, or which item finds it full depends on
// timing (see the staging sizing in engine/pipeline.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>  // txallo-lint: allow(raw-thread) fork-join pool
#include <vector>

#include "txallo/common/sync.h"

namespace txallo::common {

class FanOut {
 public:
  /// fn(slice, begin, end): handles items [begin, end) of slice `slice`.
  using SliceFn = std::function<void(uint32_t, size_t, size_t)>;

  /// Starts `num_threads` (clamped to >= 1) persistent threads.
  explicit FanOut(uint32_t num_threads);

  /// Joins the threads. Any in-flight Run must have returned.
  ~FanOut();

  FanOut(const FanOut&) = delete;
  FanOut& operator=(const FanOut&) = delete;

  /// Splits [0, count) into size() contiguous slices — slice s covers
  /// [count·s/n, count·(s+1)/n) — and runs fn(s, begin, end) for every
  /// non-empty slice on thread s (count 0 runs nothing). Blocks until all
  /// of them have returned; their writes are visible to the caller
  /// afterwards. One caller at a time.
  void Run(size_t count, const SliceFn& fn);

  uint32_t size() const { return num_threads_; }

 private:
  void ThreadMain(uint32_t slice);

  const uint32_t num_threads_;

  Mutex mu_;
  CondVar cv_threads_;
  CondVar cv_caller_;
  // One Run = one generation; each thread runs its slice once per
  // generation and counts `pending_` down.
  uint64_t generation_ TXALLO_GUARDED_BY(mu_) = 0;
  bool stopping_ TXALLO_GUARDED_BY(mu_) = false;
  const SliceFn* fn_ TXALLO_GUARDED_BY(mu_) = nullptr;
  size_t count_ TXALLO_GUARDED_BY(mu_) = 0;
  uint32_t pending_ TXALLO_GUARDED_BY(mu_) = 0;
  // Filled by the constructor, joined by the destructor.
  std::vector<std::thread> threads_;  // txallo-lint: allow(raw-thread)
};

}  // namespace txallo::common

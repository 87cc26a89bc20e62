// Bounded multi-producer single-consumer queue: the ingest channel between
// SubmitBlock (on the driver thread, or on common::FanOut threads) and a
// shard worker. Mutex + condvar rather than a lock-free ring: the queue is
// touched once per transaction part, far from hot, and the blocking-push
// backpressure semantics are what the engine actually needs. A `full
// handler` lets the engine nudge the consumer awake before a producer parks
// on a full queue, so bounded capacity cannot deadlock the tick protocol.
//
// All queue state is guarded by one annotated common::Mutex; Clang's
// -Wthread-safety proves every access holds it (see common/sync.h).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "txallo/common/sync.h"

namespace txallo::engine {

template <typename T>
class MpscQueue {
 public:
  explicit MpscQueue(size_t capacity) : capacity_(capacity) {}

  /// Invoked (unlocked) whenever a producer finds the queue full, before it
  /// waits for space. Set once before producers start.
  void SetFullHandler(std::function<void()> handler) {
    full_handler_ = std::move(handler);
  }

  /// Blocks while the queue is at capacity; calls the full handler each
  /// time it is about to wait.
  void Push(T item) TXALLO_EXCLUDES(mu_) {
    mu_.Lock();
    while (items_.size() >= capacity_) {
      if (full_handler_) {
        // The handler may need locks of its own (the engine's service
        // protocol), so it runs unlocked.
        mu_.Unlock();
        full_handler_();
        mu_.Lock();
        if (items_.size() < capacity_) break;
      }
      cv_space_.Wait(mu_);
    }
    items_.push_back(std::move(item));
    ++total_pushed_;
    if (items_.size() > high_water_) high_water_ = items_.size();
    mu_.Unlock();
  }

  /// Non-blocking push; false when full.
  bool TryPush(T item) TXALLO_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    if (items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    ++total_pushed_;
    if (items_.size() > high_water_) high_water_ = items_.size();
    return true;
  }

  /// Consumer side: moves everything queued to the back of `out` (any
  /// container with push_back). Returns the number of items moved.
  template <typename Container>
  size_t DrainTo(Container& out) TXALLO_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    const size_t n = items_.size();
    while (!items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    if (n > 0) cv_space_.NotifyAll();
    return n;
  }

  /// Copies the queued items (metrics/diagnostics, not consumption).
  template <typename Fn>
  void ForEach(Fn fn) const TXALLO_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    for (const T& item : items_) fn(item);
  }

  size_t size() const TXALLO_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  /// Largest queue depth ever observed (per-shard backpressure metric).
  uint64_t high_water() const TXALLO_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return high_water_;
  }

  uint64_t total_pushed() const TXALLO_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return total_pushed_;
  }

 private:
  const size_t capacity_;
  // Written once before producers start (SetFullHandler contract), so not
  // guarded: producers only ever read it.
  std::function<void()> full_handler_;
  mutable common::Mutex mu_;
  common::CondVar cv_space_;
  std::deque<T> items_ TXALLO_GUARDED_BY(mu_);
  uint64_t high_water_ TXALLO_GUARDED_BY(mu_) = 0;
  uint64_t total_pushed_ TXALLO_GUARDED_BY(mu_) = 0;
};

}  // namespace txallo::engine

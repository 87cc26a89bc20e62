#include "txallo/engine/background_allocator.h"

#include <utility>

#include "txallo/common/stopwatch.h"

namespace txallo::engine {

BackgroundAllocator::BackgroundAllocator()
    : worker_(&BackgroundAllocator::WorkerMain, this) {}

BackgroundAllocator::~BackgroundAllocator() {
  {
    common::MutexLock lock(mu_);
    stopping_ = true;
    cv_worker_.NotifyAll();
  }
  if (worker_.joinable()) worker_.join();
}

void BackgroundAllocator::WorkerMain() {
  mu_.Lock();
  for (;;) {
    while (!(stopping_ || (in_flight_ && !run_done_))) {
      cv_worker_.Wait(mu_);
    }
    if (stopping_) {
      mu_.Unlock();
      return;
    }
    // Run() executes unlocked: the owner cannot touch task_ while
    // in_flight_ && !run_done_ (Launch refuses a second task, Collect
    // blocks on run_done_), so the raw pointee is worker-owned here.
    allocator::RebalanceTask* task = task_.get();
    mu_.Unlock();
    Stopwatch watch;
    Result<alloc::Allocation> result = task->Run();
    const double seconds = watch.ElapsedSeconds();
    mu_.Lock();
    run_result_.emplace(std::move(result));
    run_seconds_ = seconds;
    run_done_ = true;
    cv_owner_.NotifyAll();
  }
}

Status BackgroundAllocator::Launch(
    std::unique_ptr<allocator::RebalanceTask> task) {
  if (task == nullptr) {
    return Status::InvalidArgument("BackgroundAllocator::Launch(null task)");
  }
  common::MutexLock lock(mu_);
  if (in_flight_) {
    return Status::FailedPrecondition(
        "BackgroundAllocator already has a task in flight; Collect() first");
  }
  task_ = std::move(task);
  in_flight_ = true;
  run_done_ = false;
  run_result_.reset();
  run_seconds_ = 0.0;
  cv_worker_.NotifyAll();
  return Status::OK();
}

bool BackgroundAllocator::busy() const {
  common::MutexLock lock(mu_);
  return in_flight_;
}

Result<BackgroundAllocator::Outcome> BackgroundAllocator::Collect() {
  Stopwatch wait_watch;
  common::MutexLock lock(mu_);
  if (!in_flight_) {
    return Status::FailedPrecondition(
        "BackgroundAllocator::Collect() with no task in flight");
  }
  while (!run_done_) {
    cv_owner_.Wait(mu_);
  }
  Outcome outcome;
  outcome.task = std::move(task_);
  outcome.mapping = std::move(*run_result_);
  outcome.run_seconds = run_seconds_;
  run_result_.reset();
  in_flight_ = false;
  run_done_ = false;
  outcome.wait_seconds = wait_watch.ElapsedSeconds();
  return outcome;
}

}  // namespace txallo::engine

#include "txallo/common/fan_out.h"

#include <algorithm>

namespace txallo::common {

FanOut::FanOut(uint32_t num_threads) : num_threads_(std::max(1u, num_threads)) {
  threads_.reserve(num_threads_);
  for (uint32_t s = 0; s < num_threads_; ++s) {
    threads_.emplace_back(&FanOut::ThreadMain, this, s);
  }
}

FanOut::~FanOut() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
    cv_threads_.NotifyAll();
  }
  for (std::thread& thread : threads_) {  // txallo-lint: allow(raw-thread)
    thread.join();
  }
}

void FanOut::ThreadMain(uint32_t slice) {
  uint64_t seen = 0;
  mu_.Lock();
  for (;;) {
    while (!stopping_ && generation_ == seen) cv_threads_.Wait(mu_);
    if (stopping_) {
      mu_.Unlock();
      return;
    }
    seen = generation_;
    const SliceFn* fn = fn_;
    const size_t begin = count_ * slice / num_threads_;
    const size_t end = count_ * (slice + 1) / num_threads_;
    mu_.Unlock();
    if (end > begin) (*fn)(slice, begin, end);
    mu_.Lock();
    if (--pending_ == 0) cv_caller_.NotifyAll();
  }
}

void FanOut::Run(size_t count, const SliceFn& fn) {
  if (count == 0) return;  // Every slice would be empty.
  MutexLock lock(mu_);
  fn_ = &fn;
  count_ = count;
  pending_ = num_threads_;
  ++generation_;
  cv_threads_.NotifyAll();
  while (pending_ != 0) cv_caller_.Wait(mu_);
  fn_ = nullptr;
}

}  // namespace txallo::common

// common::FanOut, the fork-join pool behind parallel engine and mempool
// ingest: slice math, the Run() barrier, and reuse across many runs.
// Labelled "engine" so the TSan preset runs it.
#include "txallo/common/fan_out.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace txallo::common {
namespace {

struct Call {
  uint32_t slice;
  size_t begin;
  size_t end;
};

// One Run's calls, ordered by slice (each slice writes only its own entry).
std::vector<Call> RunOnce(FanOut& pool, size_t count) {
  std::vector<Call> by_slice(pool.size(), Call{UINT32_MAX, 0, 0});
  pool.Run(count, [&](uint32_t slice, size_t begin, size_t end) {
    by_slice[slice] = Call{slice, begin, end};
  });
  std::vector<Call> calls;
  for (const Call& call : by_slice) {
    if (call.slice != UINT32_MAX) calls.push_back(call);
  }
  return calls;
}

TEST(FanOutTest, SlicesAreContiguousAndCoverTheRangeOnce) {
  FanOut pool(4);
  ASSERT_EQ(pool.size(), 4u);
  const std::vector<Call> calls = RunOnce(pool, 10);
  ASSERT_EQ(calls.size(), 4u);
  size_t next = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(calls[s].slice, s);
    EXPECT_EQ(calls[s].begin, next);
    EXPECT_EQ(calls[s].end, 10 * (s + 1) / 4);
    next = calls[s].end;
  }
  EXPECT_EQ(next, 10u);
}

TEST(FanOutTest, EmptySlicesAndEmptyRunsCallNothing) {
  FanOut pool(8);
  // 3 items over 8 threads: only the slices that own an item run.
  const std::vector<Call> calls = RunOnce(pool, 3);
  ASSERT_EQ(calls.size(), 3u);
  for (const Call& call : calls) EXPECT_EQ(call.end - call.begin, 1u);
  EXPECT_TRUE(RunOnce(pool, 0).empty());
}

TEST(FanOutTest, ZeroThreadsClampsToOne) {
  FanOut pool(0);
  ASSERT_EQ(pool.size(), 1u);
  const std::vector<Call> calls = RunOnce(pool, 5);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].begin, 0u);
  EXPECT_EQ(calls[0].end, 5u);
}

TEST(FanOutTest, RunIsABarrierAcrossManyReuses) {
  // Every item is written exactly once per run, and the caller reads the
  // writes right after Run returns — no extra synchronization (TSan checks
  // the happens-before edge).
  FanOut pool(3);
  std::vector<uint64_t> items(1'000, 0);
  for (uint64_t round = 1; round <= 200; ++round) {
    const size_t count = static_cast<size_t>(round * 7 % items.size());
    pool.Run(count, [&](uint32_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) items[i] = round;
    });
    for (size_t i = 0; i < count; ++i) ASSERT_EQ(items[i], round) << i;
  }
}

}  // namespace
}  // namespace txallo::common

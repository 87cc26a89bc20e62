// Mempool property tests.
//
// 1. Serial-reference equivalence: for seeded random arrival schedules, the
//    concurrent pool's admitted/dispatched stream and every driver-side
//    counter match a ~40-line single-threaded reference model of the
//    admission spec (capacity bound, per-account pending limit, per-tick
//    rate limit, fee-desc/seq-asc dispatch).
//
// 2. Producer-count independence: the same schedule offered through a
//    common::FanOut with 1, 2, 4 and 7 threads yields byte-identical
//    dispatch streams and identical AdmissionStats — the determinism claim
//    the open-loop pipeline is built on, exercised at the component level
//    with real thread interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "txallo/chain/transaction.h"
#include "txallo/common/fan_out.h"
#include "txallo/common/rng.h"
#include "txallo/mempool/mempool.h"

namespace txallo::mempool {
namespace {

struct Arrival {
  chain::Transaction tx;
  chain::AccountId payer;
  uint64_t fee;
};

struct Schedule {
  std::vector<std::vector<Arrival>> ticks;
  size_t dispatch_cap;
};

Schedule MakeSchedule(uint64_t seed, size_t num_ticks, size_t max_per_tick,
                      uint64_t num_accounts, uint64_t fee_levels,
                      size_t dispatch_cap) {
  Rng rng(seed);
  Schedule schedule;
  schedule.dispatch_cap = dispatch_cap;
  schedule.ticks.resize(num_ticks);
  for (auto& tick : schedule.ticks) {
    const size_t n = rng.NextBounded(max_per_tick + 1);
    for (size_t i = 0; i < n; ++i) {
      const chain::AccountId from =
          static_cast<chain::AccountId>(1 + rng.NextBounded(num_accounts));
      const chain::AccountId to =
          static_cast<chain::AccountId>(1 + rng.NextBounded(num_accounts));
      tick.push_back(Arrival{chain::Transaction::Simple(from, to), from,
                             1 + rng.NextBounded(fee_levels)});
    }
  }
  return schedule;
}

// The dispatched stream, flattened: one (fee, seq) pair per transaction in
// dispatch order, tick-delimited by (0, UINT64_MAX) markers so batches
// can't alias across ticks.
using Stream = std::vector<std::pair<uint64_t, uint64_t>>;

// Reference model of the admission spec, kReject policy, no TTL.
Stream ReferenceRun(const Schedule& schedule, const MempoolConfig& config,
                    AdmissionStats* stats_out) {
  struct Live {
    uint64_t fee;
    uint64_t seq;
    chain::AccountId payer;
  };
  std::vector<Live> live;
  std::map<chain::AccountId, uint32_t> pending;
  AdmissionStats stats;
  Stream stream;
  uint64_t next_seq = 0;
  for (const auto& tick : schedule.ticks) {
    std::map<chain::AccountId, uint32_t> rate;
    for (const Arrival& arrival : tick) {
      const uint64_t seq = next_seq++;
      ++stats.submitted;
      if (config.capacity > 0 && live.size() >= config.capacity) {
        ++stats.dropped_capacity;
      } else if (config.account_pending_limit > 0 &&
                 pending[arrival.payer] >= config.account_pending_limit) {
        ++stats.dropped_account_pending;
      } else if (config.account_rate_limit > 0 &&
                 rate[arrival.payer] >= config.account_rate_limit) {
        ++stats.dropped_account_rate;
      } else {
        ++stats.admitted;
        ++pending[arrival.payer];
        ++rate[arrival.payer];
        live.push_back(Live{arrival.fee, seq, arrival.payer});
      }
    }
    stats.peak_depth = std::max<uint64_t>(stats.peak_depth, live.size());
    std::sort(live.begin(), live.end(), [](const Live& a, const Live& b) {
      if (a.fee != b.fee) return a.fee > b.fee;
      return a.seq < b.seq;
    });
    const size_t take = std::min(schedule.dispatch_cap, live.size());
    for (size_t i = 0; i < take; ++i) {
      stream.emplace_back(live[i].fee, live[i].seq);
      --pending[live[i].payer];
    }
    live.erase(live.begin(), live.begin() + static_cast<long>(take));
    stream.emplace_back(0, UINT64_MAX);
  }
  if (stats_out != nullptr) *stats_out = stats;
  return stream;
}

// Runs the schedule through a real Mempool. `producers` = 0 submits
// directly from the driver thread; >= 1 offers each tick through a
// common::FanOut with that many threads, each TrySubmit-ting one slice with
// tags seq_base + i — the open-loop pipeline's offer step.
Stream PoolRun(const Schedule& schedule, const MempoolConfig& config,
               uint32_t producers, AdmissionStats* stats_out) {
  Mempool pool(config);
  std::optional<common::FanOut> fan_out;
  if (producers >= 1) fan_out.emplace(producers);
  Stream stream;
  uint64_t tick_number = 0;
  for (const auto& tick : schedule.ticks) {
    const uint64_t seq_base = pool.ReserveSequenceRange(tick.size());
    if (fan_out.has_value()) {
      std::vector<size_t> accepted(fan_out->size(), 0);
      fan_out->Run(tick.size(), [&](uint32_t slice, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          if (pool.TrySubmit(tick[i].tx, tick[i].fee, tick_number,
                             seq_base + i)) {
            ++accepted[slice];
          }
        }
      });
      size_t total = 0;
      for (size_t n : accepted) total += n;
      EXPECT_EQ(total, tick.size());
    } else {
      for (size_t i = 0; i < tick.size(); ++i) {
        EXPECT_TRUE(pool.Submit(tick[i].tx, tick[i].fee, tick_number,
                                seq_base + i)
                        .ok());
      }
    }
    pool.SealTick(tick_number);
    for (const PendingTx& tx : pool.TakeBatch(schedule.dispatch_cap)) {
      stream.emplace_back(tx.fee, tx.pool_seq);
    }
    stream.emplace_back(0, UINT64_MAX);
    ++tick_number;
  }
  if (stats_out != nullptr) *stats_out = pool.stats();
  return stream;
}

TEST(MempoolPropertyTest, MatchesSerialReferenceAcrossRandomSchedules) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    MempoolConfig config;
    // Vary the pressure: tight capacity on even seeds, account limits on
    // seeds divisible by 3, always a finite dispatch cap.
    config.capacity = (seed % 2 == 0) ? 48 : 1 << 12;
    config.account_pending_limit = (seed % 3 == 0) ? 3 : 0;
    config.account_rate_limit = (seed % 4 == 0) ? 2 : 0;
    config.staging_capacity = 256;
    const Schedule schedule =
        MakeSchedule(seed, /*num_ticks=*/40, /*max_per_tick=*/30,
                     /*num_accounts=*/12, /*fee_levels=*/5,
                     /*dispatch_cap=*/17);

    AdmissionStats expected_stats, actual_stats;
    const Stream expected = ReferenceRun(schedule, config, &expected_stats);
    const Stream actual = PoolRun(schedule, config, /*producers=*/0,
                                  &actual_stats);
    ASSERT_EQ(actual, expected) << "seed " << seed;
    EXPECT_EQ(actual_stats, expected_stats) << "seed " << seed;
  }
}

TEST(MempoolPropertyTest, DispatchStreamIndependentOfProducerCount) {
  MempoolConfig config;
  config.capacity = 96;
  config.account_pending_limit = 4;
  config.staging_capacity = 256;  // >= max batch: no timing-dependent drops
  const Schedule schedule =
      MakeSchedule(99, /*num_ticks=*/60, /*max_per_tick=*/40,
                   /*num_accounts=*/20, /*fee_levels=*/7,
                   /*dispatch_cap=*/23);

  AdmissionStats base_stats;
  const Stream base = PoolRun(schedule, config, /*producers=*/1, &base_stats);
  EXPECT_GT(base_stats.dropped_capacity + base_stats.dropped_account_pending,
            0u)
      << "schedule too gentle to exercise admission control";
  for (uint32_t producers : {2u, 4u, 7u}) {
    AdmissionStats stats;
    const Stream stream = PoolRun(schedule, config, producers, &stats);
    ASSERT_EQ(stream, base) << producers << " producers";
    EXPECT_EQ(stats, base_stats) << producers << " producers";
  }
  // And the threaded runs match the driver-thread-only submission path.
  AdmissionStats direct_stats;
  const Stream direct = PoolRun(schedule, config, /*producers=*/0,
                                &direct_stats);
  EXPECT_EQ(direct, base);
  EXPECT_EQ(direct_stats, base_stats);
}

TEST(MempoolPropertyTest, BlockPolicyStreamIndependentOfProducerCount) {
  MempoolConfig config;
  config.capacity = 32;
  config.policy = AdmissionPolicy::kBlock;
  config.staging_capacity = 256;
  const Schedule schedule =
      MakeSchedule(7, /*num_ticks=*/50, /*max_per_tick=*/24,
                   /*num_accounts=*/10, /*fee_levels=*/4,
                   /*dispatch_cap=*/9);

  AdmissionStats base_stats;
  const Stream base = PoolRun(schedule, config, /*producers=*/1, &base_stats);
  EXPECT_GT(base_stats.deferred, 0u)
      << "schedule too gentle to exercise deferral";
  for (uint32_t producers : {3u, 6u}) {
    AdmissionStats stats;
    const Stream stream = PoolRun(schedule, config, producers, &stats);
    ASSERT_EQ(stream, base) << producers << " producers";
    EXPECT_EQ(stats, base_stats) << producers << " producers";
  }
}

}  // namespace
}  // namespace txallo::mempool

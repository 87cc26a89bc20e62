#include "traced_driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "txallo/chain/block.h"
#include "txallo/common/histogram.h"
#include "txallo/common/stopwatch.h"
#include "txallo/mempool/cleaner.h"
#include "txallo/mempool/mempool.h"
#include "txallo/mempool/offered_load.h"
#include "txallo/sim/reconfig.h"
#include "txallo/workload/stream.h"

namespace perfbench {

using namespace txallo;

const char* SpanName(Span span) {
  static constexpr const char* kNames[kSpanCount] = {
      "mempool.setup", "mempool.offer",   "mempool.seal",    "mempool.take",
      "engine.route",  "engine.tick",     "engine.observe",  "engine.snapshot",
      "engine.drain",  "alloc.apply",     "alloc.rebalance", "alloc.install",
      "state.root"};
  return kNames[span];
}

namespace {

// Appends the duration of its own lifetime to one span's sample list.
class SpanTimer {
 public:
  SpanTimer(TracedRun* run, Span span)
      : samples_(&run->spans[span]), start_(Clock::now()) {}
  ~SpanTimer() {
    samples_->push_back(
        std::chrono::duration<double>(Clock::now() - start_).count());
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  std::vector<double>* samples_;
  Clock::time_point start_;
};

// The pipeline's kDriverSync loop, one method per stage, each layer call
// wrapped in its span. Mirrors engine/pipeline.cc with ingest_producers <= 1
// and no record/replay.
class TracedLoop {
 public:
  TracedLoop(const Workload& workload, Setup& setup)
      : workload_(workload),
        ledger_(setup.ledger),
        alloc_(setup.online()),
        engine_(setup.engine.get()) {}

  Result<TracedRun> Run() {
    const Stopwatch wall;
    if (workload_.open_loop) {
      SpanTimer span(&run_, kEngineSnapshot);
      engine_->Snapshot();  // The pipeline's fresh-engine check.
    }
    TXALLO_RETURN_NOT_OK(Install(std::make_shared<const alloc::Allocation>(
        alloc_->CurrentAllocation())));
    {
      SpanTimer span(&run_, kEngineSnapshot);
      engine_->Snapshot();
    }
    TXALLO_RETURN_NOT_OK(workload_.open_loop ? RunOpenLoop()
                                             : RunClosedLoop());
    engine::EngineReport report;
    {
      SpanTimer span(&run_, kEngineDrain);
      report = engine_->DrainAndReport();
    }
    if (workload_.open_loop) ObserveCommits();
    run_.wall_seconds = wall.ElapsedSeconds();

    FillFromReport(report, &run_.outcome, &run_.load);
    run_.outcome.offered = ledger_.num_transactions();
    run_.outcome.accounts_moved = accounts_moved_;
    run_.outcome.rebalances = rebalances_;
    const common::Histogram& latency =
        workload_.open_loop ? latency_ : report.commit_latency_blocks;
    run_.outcome.latency_p50 = latency.Percentile(50.0);
    run_.outcome.latency_p99 = latency.Percentile(99.0);
    {
      SpanTimer span(&run_, kStateRoot);
      run_.outcome.state_root = StateRootHex(engine_);
    }
    return std::move(run_);
  }

 private:
  Status Install(std::shared_ptr<const alloc::Allocation> next) {
    SpanTimer span(&run_, kAllocInstall);
    if (current_ != nullptr) {
      accounts_moved_ += sim::CompareAllocations(*current_, *next).accounts_moved;
    }
    TXALLO_RETURN_NOT_OK(engine_->InstallAllocation(next));
    current_ = std::move(next);
    return Status::OK();
  }

  // Window close: the pipeline's per-window engine snapshot, then the
  // epoch boundary's rebalance and install unless the stream has ended.
  Status CloseWindow(bool more_traffic) {
    {
      SpanTimer span(&run_, kEngineSnapshot);
      engine_->Snapshot();
    }
    if (!more_traffic) return Status::OK();
    ++rebalances_;
    std::optional<Result<alloc::Allocation>> rebalanced;
    {
      SpanTimer span(&run_, kAllocRebalance);
      rebalanced.emplace(alloc_->Rebalance());
    }
    if (!rebalanced->ok()) return rebalanced->status();
    return Install(std::make_shared<const alloc::Allocation>(
        std::move(rebalanced->value())));
  }

  Status RunClosedLoop() {
    workload::BlockWindowStream epochs(&ledger_, workload_.epoch_blocks);
    while (!epochs.Done()) {
      const workload::BlockWindowStream::Window window = epochs.Next();
      for (size_t b = window.first_block_index; b < window.last_block_index;
           ++b) {
        const chain::Block& block = ledger_.blocks()[b];
        {
          SpanTimer span(&run_, kEngineRoute);
          TXALLO_RETURN_NOT_OK(engine_->SubmitBlock(block.transactions()));
        }
        {
          SpanTimer span(&run_, kEngineTick);
          engine_->Tick();
        }
        SpanTimer span(&run_, kAllocApply);
        alloc_->ApplyBlock(block);
      }
      TXALLO_RETURN_NOT_OK(CloseWindow(!epochs.Done()));
    }
    return Status::OK();
  }

  void ObserveCommits() {
    std::vector<engine::TwoPhaseCoordinator::Decision> decisions;
    {
      SpanTimer span(&run_, kEngineObserve);
      decisions = engine_->TakeObservedCommits();
    }
    for (const engine::TwoPhaseCoordinator::Decision& decision : decisions) {
      if (decision.aborted) continue;
      latency_.Record(decision.block - submit_tick_of_seq_[decision.seq]);
    }
  }

  Status RunOpenLoop() {
    engine_->EnableCommitObservation();

    std::optional<mempool::Mempool> pool;
    std::optional<mempool::MempoolCleaner> cleaner;
    std::optional<mempool::OfferedLoadGenerator> generator;
    {
      SpanTimer span(&run_, kMempoolSetup);
      mempool::MempoolConfig pool_config;
      const size_t tick_offer =
          static_cast<size_t>(std::ceil(workload_.offered_load)) + 1;
      pool_config.staging_capacity =
          std::max(pool_config.staging_capacity, tick_offer);
      pool.emplace(pool_config);
      cleaner.emplace(&*pool);
      const engine::OpenLoopConfig defaults;
      generator.emplace(
          ledger_, mempool::OfferedLoadConfig{workload_.offered_load,
                                              defaults.fee_levels,
                                              defaults.fee_seed});
    }
    const size_t dispatch_cap = workload_.dispatch_per_tick == 0
                                    ? std::numeric_limits<size_t>::max()
                                    : workload_.dispatch_per_tick;
    const auto drained = [&] {
      return generator->Done() && pool->live_size() == 0 &&
             pool->deferred_size() == 0 && pool->staged_size() == 0;
    };

    std::vector<mempool::OfferedTx> released;
    uint32_t ticks_in_window = 0;
    while (!drained()) {
      const uint64_t now = engine_->current_block();
      {
        SpanTimer span(&run_, kMempoolOffer);
        released.clear();
        generator->ReleaseTick(&released);
        if (!released.empty()) {
          const uint64_t seq_base = pool->ReserveSequenceRange(released.size());
          for (size_t i = 0; i < released.size(); ++i) {
            pool->TrySubmit(*released[i].tx, released[i].fee, now,
                            seq_base + i);
          }
        }
      }
      {
        SpanTimer span(&run_, kMempoolSeal);
        pool->SealTick(now);
      }
      std::vector<mempool::PendingTx> batch;
      {
        SpanTimer span(&run_, kMempoolTake);
        batch = pool->TakeBatch(dispatch_cap);
      }
      std::vector<chain::Transaction> block_txs;
      block_txs.reserve(batch.size());
      for (mempool::PendingTx& pending : batch) {
        submit_tick_of_seq_.push_back(pending.submit_tick);
        block_txs.push_back(std::move(pending.tx));
      }
      {
        SpanTimer span(&run_, kEngineRoute);
        TXALLO_RETURN_NOT_OK(engine_->SubmitBlock(block_txs));
      }
      {
        SpanTimer span(&run_, kEngineTick);
        engine_->Tick();
      }
      ObserveCommits();
      {
        SpanTimer span(&run_, kAllocApply);
        alloc_->ApplyBlock(chain::Block(now, std::move(block_txs)));
      }
      if (++ticks_in_window == workload_.epoch_blocks) {
        TXALLO_RETURN_NOT_OK(CloseWindow(!drained()));
        ticks_in_window = 0;
      }
    }
    if (ticks_in_window > 0) TXALLO_RETURN_NOT_OK(CloseWindow(false));

    const mempool::AdmissionStats admission = pool->stats();
    run_.outcome.admitted = admission.admitted;
    run_.outcome.dropped = admission.dropped_capacity +
                           admission.dropped_account_pending +
                           admission.dropped_account_rate +
                           admission.dropped_backpressure;
    run_.outcome.expired = admission.expired;
    run_.outcome.peak_depth = admission.peak_depth;
    return Status::OK();
  }

  const Workload& workload_;
  const chain::Ledger& ledger_;
  allocator::OnlineAllocator* const alloc_;
  engine::ParallelEngine* const engine_;

  TracedRun run_;
  std::shared_ptr<const alloc::Allocation> current_;
  uint64_t accounts_moved_ = 0;
  uint64_t rebalances_ = 0;
  common::Histogram latency_;
  std::vector<uint64_t> submit_tick_of_seq_;
};

}  // namespace

Result<TracedRun> RunTraced(const Workload& workload, Setup& setup) {
  TracedLoop loop(workload, setup);
  return loop.Run();
}

}  // namespace perfbench

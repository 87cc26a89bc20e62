// The traced run: the benchmark's own copy of RunReallocatedStream's
// driver-synchronous loop (closed and open loop, driver-side ingest), with a
// span around every call into a layer's public API. Nothing inside the
// program is instrumented; each layer is timed from outside.
//
// The copy is only trustworthy while it does what the pipeline does, so
// run.py fails the run unless its Outcome equals the untraced run's for the
// same workload and seed.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "run.h"
#include "txallo/common/status.h"
#include "workloads.h"

namespace perfbench {

/// One span per layer call site. Names are "<module>.<call>".
enum Span : size_t {
  kMempoolSetup,     // Mempool + MempoolCleaner + OfferedLoadGenerator
  kMempoolOffer,     // ReleaseTick + TrySubmit
  kMempoolSeal,      // SealTick
  kMempoolTake,      // TakeBatch
  kEngineRoute,      // SubmitBlock
  kEngineTick,       // Tick (execute + 2PC + state stage/commit/abort/migrate)
  kEngineObserve,    // TakeObservedCommits
  kEngineSnapshot,   // Snapshot (per epoch window, as the pipeline does)
  kEngineDrain,      // DrainAndReport
  kAllocApply,       // ApplyBlock
  kAllocRebalance,   // Rebalance
  kAllocInstall,     // CompareAllocations + InstallAllocation
  kStateRoot,        // StateDb::GlobalRoot, after the run
  kSpanCount,
};

const char* SpanName(Span span);

struct TracedRun {
  Outcome outcome;
  EngineLoad load;
  /// Wall time of the traced loop, bootstrap to drain (state root
  /// excluded, as in the untraced run).
  double wall_seconds = 0.0;
  /// Per-call durations in seconds, indexed by Span.
  std::array<std::vector<double>, kSpanCount> spans;
};

txallo::Result<TracedRun> RunTraced(const Workload& workload, Setup& setup);

}  // namespace perfbench

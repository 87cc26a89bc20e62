// One measured pass over a workload, and the records the driver prints for
// run.py: the logical outcome (bit-identical for a given seed on any host)
// kept apart from the wall-clock observations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "txallo/common/status.h"
#include "txallo/engine/engine.h"
#include "workloads.h"

namespace perfbench {

/// Logical counters of one run. A pure function of the workload and seed:
/// the output check compares them exactly between the traced and untraced
/// drivers, and against the stored fingerprint.
struct Outcome {
  uint64_t ticks = 0;
  /// Transactions in the ledger (all are offered, in either loop).
  uint64_t offered = 0;
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t cross_shard_submitted = 0;
  uint64_t cross_shard_committed = 0;
  uint64_t prepares = 0;
  uint64_t accounts_migrated = 0;
  uint64_t accounts_moved = 0;
  uint64_t rebalances = 0;
  /// Open loop only (zero in closed loop).
  uint64_t admitted = 0;
  uint64_t dropped = 0;
  uint64_t expired = 0;
  uint64_t peak_depth = 0;
  /// Open loop: end-to-end ticks (commit - submit). Closed loop: engine
  /// commit latency in blocks.
  uint64_t latency_p50 = 0;
  uint64_t latency_p99 = 0;
  /// Hex Merkle root of the final account state; empty with state off.
  std::string state_root;
};

/// Physical observations of the engine after a run (wall-clock dependent).
struct EngineLoad {
  double worker_stall_seconds = 0.0;
  uint32_t workers = 0;
  std::vector<uint64_t> max_queue_depth;
};

/// Fills the engine-derived fields of an Outcome and the EngineLoad.
void FillFromReport(const txallo::engine::EngineReport& report,
                    Outcome* outcome, EngineLoad* load);

/// Hex of the engine's final global state root, or "" with state off.
std::string StateRootHex(txallo::engine::ParallelEngine* engine);

struct UntracedRun {
  Outcome outcome;
  EngineLoad load;
  /// Wall time of the RunReallocatedStream call, drain included.
  double wall_seconds = 0.0;
  /// alloc_seconds of every step that ran a rebalance.
  std::vector<double> alloc_update_seconds;
};

/// Times engine::RunReallocatedStream on a fresh set-up.
txallo::Result<UntracedRun> RunUntraced(const Workload& workload,
                                        Setup& setup);

/// `"key": value` pairs for the records run.py parses.
std::string OutcomeJson(const Outcome& outcome);
std::string EngineLoadJson(const EngineLoad& load);
std::string SecondsJson(const std::vector<double>& seconds);
std::string Quote(const std::string& text);
std::string Number(double value);

}  // namespace perfbench

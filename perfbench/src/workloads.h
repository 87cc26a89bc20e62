// The benchmark's named workloads and the per-run set-up they share: a
// fresh scenario, ledger, allocator and engine built from public library
// calls only. README.md records why each workload exists and which layer it
// is meant to stress or bypass.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "txallo/allocator/allocator.h"
#include "txallo/chain/ledger.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/workload/scenario.h"

namespace perfbench {

/// Every parameter of one workload. The seed is not here: it is a benchmark
/// argument, and the program only ever sees the generated ledger.
struct Workload {
  std::string name;
  /// Scenario registry spec ("ethereum", "stress").
  std::string scenario;
  uint64_t accounts = 0;
  uint32_t communities = 0;
  uint64_t blocks = 0;
  uint64_t txs_per_block = 0;
  int64_t initial_balance = 0;
  uint32_t shards = 0;
  double eta = 0.0;
  /// Allocator registry spec.
  std::string allocator;
  bool state = false;
  bool open_loop = false;
  /// Open loop only: arrivals per tick and the mempool's dispatch cap.
  double offered_load = 0.0;
  uint32_t dispatch_per_tick = 0;
  /// Total engine capacity per tick; each shard gets service_rate / shards.
  double service_rate = 0.0;
  uint32_t epoch_blocks = 0;
};

/// The workload table, in the order README.md lists it.
const std::vector<Workload>& Workloads();

/// The named workload, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// One run's inputs and system under test, built from scratch.
struct Setup {
  /// Owns the account registry the allocator reads; outlives it.
  std::unique_ptr<txallo::workload::Scenario> scenario;
  txallo::chain::Ledger ledger;
  std::unique_ptr<txallo::allocator::Allocator> allocator;
  std::unique_ptr<txallo::engine::ParallelEngine> engine;
  /// Scenario::GenerateLedger alone.
  double generate_seconds = 0.0;
  /// Scenario construction + GenerateLedger + allocator + engine.
  double setup_seconds = 0.0;

  txallo::allocator::OnlineAllocator* online() {
    return allocator->AsOnline();
  }
};

/// Builds the scenario at `seed`, its ledger, the allocator and an engine
/// with `workers` threads. Aborts with a message on a bad workload table
/// entry (a benchmark bug, not a run-time condition).
Setup MakeSetup(const Workload& workload, uint64_t seed, uint32_t workers);

/// The RunReallocatedStream configuration of `workload`: driver-synchronous
/// rebalances and driver-side ingest (no producer threads).
txallo::engine::PipelineConfig MakePipelineConfig(const Workload& workload);

}  // namespace perfbench

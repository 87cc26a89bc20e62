// Deterministic record/replay for the parallel engine.
//
// A ReplayLog is the full deterministic trace of one
// engine::RunReallocatedStream run:
//
//   * the canonical per-tick, per-shard prepare order (PrepareEvent stream)
//     and the 2PC outcome stream (CommitEvent, (block, seq)-sorted, commits
//     and aborts alike), both keyed by ingest sequence tags so they survive
//     thread/producer-count changes;
//   * with the account-state backend on, the per-tick global Merkle root
//     (TickStateRoot stream) — the structural fingerprint replay verifies
//     bit-identically, which pins not just *which* transactions committed
//     but the exact balances/sequences they left behind;
//   * every installed allocation snapshot with the logical block it took
//     effect at (InstallEvent) — replay re-installs these instead of
//     running an allocator, which is why a trace recorded under
//     `background` replays identically under `sync` or no allocator at all;
//   * the per-step StepMetrics series and the run's wall-clock allocation
//     observations (alloc_seconds & co. are preserved verbatim on replay:
//     wall time is not reproducible, the logical schedule is);
//   * workload/config fingerprints (shard count, work model, ledger hash)
//     so a replay against the wrong input fails loudly instead of
//     diverging quietly.
//
// Record with PipelineConfig::record, replay with PipelineConfig::replay
// (or ReplayRecordedStream below). Serialization: a compact little-endian
// binary format (Save/LoadReplayLog) for fixtures and bug reports, plus a
// one-way CSV dump (DumpReplayLogCsv) for eyeballing a trace in a
// spreadsheet. `bench/timeline_series --record/--replay` and
// `examples/replay_debug` drive both ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/chain/ledger.h"
#include "txallo/common/status.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"

namespace txallo::engine {

/// An allocation snapshot publication: `allocation` took effect once the
/// engine's logical clock reached `block` (before the next block's ingest).
struct InstallEvent {
  uint64_t block = 0;
  alloc::Allocation allocation;
  bool operator==(const InstallEvent&) const = default;
};

/// The recorded trace of one pipelined engine run. Plain data — build one
/// by passing it as PipelineConfig::record.
class ReplayLog {
 public:
  struct Meta {
    uint32_t num_shards = 0;
    /// Work-model fingerprint (must match the replaying engine's exactly).
    double eta = 0.0;
    double capacity_per_block = 0.0;
    uint32_t cross_shard_commit_rounds = 0;
    /// Account-state backend fingerprint. Balance/work fields are
    /// normalized to zero when the backend is off, so two state-less
    /// traces always agree regardless of ignored config.
    bool state_enabled = false;
    int64_t state_initial_balance = 0;
    double state_migration_work = 0.0;
    /// Epoch cadence of the recorded run; replay re-uses it.
    uint32_t blocks_per_epoch = 0;
    /// Input-stream fingerprint (FingerprintLedger).
    uint64_t ledger_blocks = 0;
    uint64_t ledger_transactions = 0;
    uint64_t ledger_fingerprint = 0;
    /// Ingest mode of the recorded run (IngestMode as u8; 0 = closed loop);
    /// replay re-uses it. The open-loop driving parameters below are
    /// normalized to zero for closed-loop traces, so two closed-loop traces
    /// always agree regardless of ignored config. Physical-only details
    /// (mempool compaction timing, chunk sizes) are deliberately absent —
    /// they cannot change any recorded byte.
    uint8_t ingest_mode = 0;
    double offered_load = 0.0;
    uint32_t dispatch_per_tick = 0;
    uint32_t fee_levels = 0;
    uint64_t fee_seed = 0;
    uint64_t mempool_capacity = 0;
    uint64_t mempool_staging_capacity = 0;
    uint32_t account_pending_limit = 0;
    uint32_t account_rate_limit = 0;
    uint64_t ttl_ticks = 0;
    /// mempool::AdmissionPolicy as u8.
    uint8_t admission_policy = 0;
    /// Workload scenario spec of the recorded run ("name:key=val,..." from
    /// the scenario registry; empty for programmatic ledgers). The ledger
    /// fingerprint is the binding check; this names the workload so a
    /// gauntlet trace can be replayed against the regenerated scenario, and
    /// a non-empty PipelineConfig::workload_spec must match on replay.
    std::string workload_spec;
    bool operator==(const Meta&) const = default;
  };

  Meta meta;
  /// Canonical (block, shard, lane-position) prepare stream.
  std::vector<PrepareEvent> prepares;
  /// Canonical (block, seq) commit stream (aborted outcomes included).
  std::vector<CommitEvent> commits;
  /// Per-tick global Merkle roots (empty unless the state backend was on).
  std::vector<TickStateRoot> state_roots;
  /// Installed snapshots in block order (the first is the initial mapping).
  std::vector<InstallEvent> installs;
  /// Per-step series, including the trailing drain step when one occurred.
  std::vector<StepMetrics> steps;

  // Wall-clock observations of the recorded run (preserved, not
  // re-measured, on replay).
  double alloc_seconds = 0.0;
  double alloc_wait_seconds = 0.0;
  double alloc_overlap_ratio = 0.0;
  uint64_t epochs = 0;
  uint64_t accounts_moved = 0;
};

/// Order- and content-sensitive hash of a ledger's transaction stream
/// (SHA-256 over block/account structure, truncated to 64 bits). Two
/// ledgers with the same fingerprint replay a trace identically.
uint64_t FingerprintLedger(const chain::Ledger& ledger);

/// First difference between two logs' *deterministic* content — meta,
/// prepare/commit/state-root/install streams, steps' logical fields and
/// accounts_moved — as "<field>: recorded X vs replayed Y" (e.g.
/// "commit[12].aborted: recorded 0 vs replayed 1"), or "" when
/// bit-identical. Wall-clock fields (alloc_seconds & co.) and the copied
/// epoch count are not compared.
std::string DescribeTraceDivergence(const ReplayLog& recorded,
                                    const ReplayLog& replayed);

/// The meta part of DescribeTraceDivergence: "meta.<field>: recorded X vs
/// replayed Y" for the first differing field, or "". The replay guard
/// compares a trace's meta against RunMeta of the replaying run with it.
std::string DescribeMetaDivergence(const ReplayLog::Meta& recorded,
                                   const ReplayLog::Meta& replayed);

/// The meta a run of `config` on an engine configured as `engine` over
/// `ledger` records. Settings the run ignores are normalized to zero (the
/// state fields with the backend off, the open-loop fields in a closed-loop
/// run), so two metas differ only in a value that changed what ran.
ReplayLog::Meta RunMeta(const EngineConfig& engine,
                        const PipelineConfig& config,
                        const chain::Ledger& ledger);

/// The config a replay of a trace with `meta` runs under: `config` with the
/// trace's epoch cadence, ingest mode and open-loop driving parameters, and
/// its workload spec when `config` names none. Physical knobs (producers,
/// threads, chunk sizes) stay the caller's: they cannot change any
/// recorded byte.
PipelineConfig ReplayRunConfig(const ReplayLog::Meta& meta,
                               PipelineConfig config);

/// Companion to DescribeTraceDivergence for prepare-order bugs: splits both
/// logs' prepare streams into per-shard lanes and prints, for every lane
/// that differs, a side-by-side diff anchored at the first divergent entry
/// (its tick, plus `context` entries either side). "" when every lane
/// matches. Unlike DescribeTraceDivergence — which stops at the first
/// global difference — this shows *where in each shard's order* two runs
/// came apart, which is the question when a scheduler change reorders
/// lanes.
std::string DescribeLaneDivergence(const ReplayLog& recorded,
                                   const ReplayLog& replayed,
                                   size_t context = 3);

/// Re-executes `log` on `engine` against `ledger`: same windows, recorded
/// installs at their recorded blocks, no allocator. `config` contributes
/// the execution shape only (ingest_producers; blocks_per_epoch /
/// allocator_mode / replay are ignored, record is honoured). The engine
/// must be fresh and configured compatibly (shard count, work model,
/// hash_route_unassigned). Returns the re-executed run's PipelineResult;
/// fails with Internal if any deterministic field diverged from the log.
Result<PipelineResult> ReplayRecordedStream(const chain::Ledger& ledger,
                                            const ReplayLog& log,
                                            ParallelEngine* engine,
                                            const PipelineConfig& config);

/// Writes `log` in the compact binary trace format (magic "TXTRACE5", a
/// u64 body checksum — the first 8 bytes of the body's SHA-256 — then
/// fixed-width little-endian fields). The format is defined once, in
/// replay.cc: one field list per record (ReplayLog::Meta, the log-level
/// scalars, PrepareEvent, CommitEvent, TickStateRoot, InstallEvent,
/// StepMetrics), in wire order, each field tagged *logical* (re-derived by
/// a replay: dumped to CSV and diffed), *copied* (logical, but taken from
/// the trace on replay: dumped, not diffed) or *wall* (a wall-clock
/// observation: binary only). The writer, the reader, the CSV dump,
/// DescribeTraceDivergence and the replay guard (DescribeMetaDivergence)
/// all walk those lists, so adding a field is one list entry plus a magic
/// bump and a regenerated golden fixture (`regen-golden-trace`, which
/// rewrites golden_small.trace and golden_small.csv). Older traces are
/// rejected as version drift, not silently upgraded — the recorded
/// semantics genuinely differ.
Status SaveReplayLog(const ReplayLog& log, const std::string& path);

/// Reads a trace written by SaveReplayLog. Corruption and version drift
/// surface as Corruption errors: the body checksum is verified before any
/// field is read, every count is checked against the bytes left before
/// anything is allocated, every installed shard against the
/// mapping's shard count, and trailing bytes are corruption too.
Result<ReplayLog> LoadReplayLog(const std::string& path);

/// One-way human-readable dump: one CSV row per non-wall meta field /
/// step / install / prepare / commit / state root, tagged by a leading
/// `kind` column.
Status DumpReplayLogCsv(const ReplayLog& log, const std::string& path);

}  // namespace txallo::engine

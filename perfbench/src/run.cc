#include "run.h"

#include <cstdio>

#include "txallo/common/histogram.h"
#include "txallo/common/sha256.h"
#include "txallo/common/stopwatch.h"

namespace perfbench {

using namespace txallo;

void FillFromReport(const engine::EngineReport& report, Outcome* outcome,
                    EngineLoad* load) {
  outcome->ticks = report.sim.blocks_elapsed;
  outcome->submitted = report.sim.submitted;
  outcome->committed = report.sim.committed;
  outcome->aborted = report.aborted;
  outcome->cross_shard_submitted = report.sim.cross_shard_submitted;
  outcome->cross_shard_committed = report.cross_shard_committed;
  outcome->prepares = report.prepares_received;
  outcome->accounts_migrated = report.accounts_migrated;
  load->worker_stall_seconds = report.worker_stall_seconds;
  load->workers = report.num_workers;
  load->max_queue_depth = report.max_queue_depth;
}

std::string StateRootHex(engine::ParallelEngine* engine) {
  if (engine->state() == nullptr) return "";
  return DigestToHex(engine->state()->GlobalRoot());
}

Result<UntracedRun> RunUntraced(const Workload& workload, Setup& setup) {
  const engine::PipelineConfig config = MakePipelineConfig(workload);
  const Stopwatch wall;
  Result<engine::PipelineResult> result = engine::RunReallocatedStream(
      setup.ledger, setup.online(), setup.engine.get(), config);
  const double wall_seconds = wall.ElapsedSeconds();
  if (!result.ok()) return result.status();

  UntracedRun run;
  run.wall_seconds = wall_seconds;
  FillFromReport(result->report, &run.outcome, &run.load);
  run.outcome.offered = setup.ledger.num_transactions();
  run.outcome.accounts_moved = result->accounts_moved;
  run.outcome.rebalances = result->epochs;
  const common::Histogram& latency = workload.open_loop
                                         ? result->e2e_latency_ticks
                                         : result->report.commit_latency_blocks;
  run.outcome.latency_p50 = latency.Percentile(50.0);
  run.outcome.latency_p99 = latency.Percentile(99.0);
  if (workload.open_loop) {
    const mempool::AdmissionStats& admission = result->admission;
    run.outcome.admitted = admission.admitted;
    run.outcome.dropped = admission.dropped_capacity +
                          admission.dropped_account_pending +
                          admission.dropped_account_rate +
                          admission.dropped_backpressure;
    run.outcome.expired = admission.expired;
    run.outcome.peak_depth = admission.peak_depth;
  }
  for (const engine::StepMetrics& step : result->steps) {
    if (step.installed) run.alloc_update_seconds.push_back(step.alloc_seconds);
  }
  run.outcome.state_root = StateRootHex(setup.engine.get());
  return run;
}

std::string Quote(const std::string& text) {
  std::string quoted = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  return quoted + "\"";
}

std::string Number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

namespace {

// Appends `"key": raw` to an object under construction (opened with "{").
void Append(std::string* object, const char* key, const std::string& raw) {
  if (object->size() > 1) *object += ", ";
  *object += '"';
  *object += key;
  *object += "\": ";
  *object += raw;
}

void Append(std::string* object, const char* key, uint64_t value) {
  Append(object, key, std::to_string(value));
}

}  // namespace

std::string OutcomeJson(const Outcome& o) {
  std::string object = "{";
  Append(&object, "ticks", o.ticks);
  Append(&object, "offered", o.offered);
  Append(&object, "submitted", o.submitted);
  Append(&object, "committed", o.committed);
  Append(&object, "aborted", o.aborted);
  Append(&object, "cross_shard_submitted", o.cross_shard_submitted);
  Append(&object, "cross_shard_committed", o.cross_shard_committed);
  Append(&object, "prepares", o.prepares);
  Append(&object, "accounts_migrated", o.accounts_migrated);
  Append(&object, "accounts_moved", o.accounts_moved);
  Append(&object, "rebalances", o.rebalances);
  Append(&object, "admitted", o.admitted);
  Append(&object, "dropped", o.dropped);
  Append(&object, "expired", o.expired);
  Append(&object, "peak_depth", o.peak_depth);
  Append(&object, "latency_p50", o.latency_p50);
  Append(&object, "latency_p99", o.latency_p99);
  Append(&object, "state_root", Quote(o.state_root));
  return object + "}";
}

std::string EngineLoadJson(const EngineLoad& load) {
  std::string depths = "[";
  for (const uint64_t depth : load.max_queue_depth) {
    if (depths.size() > 1) depths += ", ";
    depths += std::to_string(depth);
  }
  std::string object = "{";
  Append(&object, "worker_stall_s", Number(load.worker_stall_seconds));
  Append(&object, "workers", load.workers);
  Append(&object, "max_queue_depth", depths + "]");
  return object + "}";
}

std::string SecondsJson(const std::vector<double>& seconds) {
  std::string list = "[";
  for (size_t i = 0; i < seconds.size(); ++i) {
    if (i > 0) list += ", ";
    list += Number(seconds[i]);
  }
  return list + "]";
}

}  // namespace perfbench

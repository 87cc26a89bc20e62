#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "txallo/alloc/params.h"
#include "txallo/allocator/registry.h"
#include "txallo/common/stopwatch.h"
#include "txallo/workload/scenario_registry.h"

namespace perfbench {

using namespace txallo;

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      // The state layer (stage, commit, SHA-256, Merkle, all on the driver
      // thread) does most of the work; the hash allocator does almost none.
      {.name = "state-commit",
       .scenario = "ethereum",
       .accounts = 200'000,
       .communities = 2'000,
       .blocks = 120,
       .txs_per_block = 2'000,
       .initial_balance = 1'000,
       .shards = 8,
       .eta = 2.0,
       .allocator = "hash",
       .state = true,
       .open_loop = true,
       .offered_load = 2'000.0,
       .dispatch_per_tick = 2'500,
       .service_rate = 2'500.0,
       .epoch_blocks = 10},
      // The allocator's epoch update dominates: at the paper's headline
      // shard count, three of four rebalances run the adaptive kernel and
      // one the global one, so the update-time median and tail time
      // different code. Service keeps up with the stream, so the engine
      // stays off the blocking path; mempool and state do no work.
      {.name = "realloc-k60",
       .scenario = "ethereum",
       .accounts = 50'000,
       .communities = 500,
       .blocks = 200,
       .txs_per_block = 500,
       .initial_balance = 1'000'000,
       .shards = 60,
       .eta = 2.0,
       .allocator = "txallo-hybrid:global-every=4",
       .state = false,
       .open_loop = false,
       .service_rate = 30'000.0,
       .epoch_blocks = 3},
      // The same layers on their failure paths: tight balances make the
      // state layer abort and revert, installs migrate account records, the
      // offered load overflows the mempool's capacity, and the attack
      // overlay skews traffic onto one shard.
      {.name = "stress-overload",
       .scenario = "stress",
       .accounts = 100'000,
       .communities = 1'000,
       .blocks = 150,
       .txs_per_block = 1'000,
       .initial_balance = 200,
       .shards = 8,
       .eta = 2.0,
       .allocator = "txallo-hybrid:global-every=4",
       .state = true,
       .open_loop = true,
       .offered_load = 3'000.0,
       .dispatch_per_tick = 1'600,
       .service_rate = 1'600.0,
       .epoch_blocks = 10},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

namespace {

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

}  // namespace

Setup MakeSetup(const Workload& workload, uint64_t seed, uint32_t workers) {
  Setup setup;
  const Stopwatch total;

  workload::ScenarioShape shape;
  shape.num_blocks = workload.blocks;
  shape.txs_per_block = workload.txs_per_block;
  shape.num_accounts = workload.accounts;
  shape.num_communities = workload.communities;
  shape.initial_balance = workload.initial_balance;
  shape.seed = seed;
  auto scenario = workload::MakeScenarioFromSpec(workload.scenario, shape);
  if (!scenario.ok()) Die("scenario " + workload.scenario, scenario.status());
  setup.scenario = std::move(*scenario);

  const Stopwatch generate;
  setup.ledger = setup.scenario->GenerateLedger(workload.blocks);
  setup.generate_seconds = generate.ElapsedSeconds();

  allocator::AllocatorOptions options;
  options.params = alloc::AllocationParams::ForExperiment(
      setup.ledger.num_transactions(), workload.shards, workload.eta);
  options.registry = &setup.scenario->registry();
  options.seed = seed;
  auto made = allocator::MakeAllocatorFromSpec(workload.allocator, options);
  if (!made.ok()) Die("allocator " + workload.allocator, made.status());
  setup.allocator = std::move(*made);
  if (setup.allocator->AsOnline() == nullptr) {
    Die("allocator " + workload.allocator,
        Status::InvalidArgument("not an online allocator"));
  }

  engine::EngineConfig config;
  config.num_shards = workload.shards;
  config.work.eta = workload.eta;
  config.work.capacity_per_block = workload.service_rate / workload.shards;
  config.num_threads = workers;
  config.hash_route_unassigned = true;
  config.state.enabled = workload.state;
  config.state.initial_balance = setup.scenario->initial_balance();
  setup.engine = std::make_unique<engine::ParallelEngine>(config, nullptr);

  setup.setup_seconds = total.ElapsedSeconds();
  return setup;
}

engine::PipelineConfig MakePipelineConfig(const Workload& workload) {
  engine::PipelineConfig config;
  config.blocks_per_epoch = workload.epoch_blocks;
  config.allocator_mode = engine::AllocatorMode::kDriverSync;
  config.ingest_producers = 0;
  config.workload_spec = workload.scenario;
  if (workload.open_loop) {
    config.ingest_mode = engine::IngestMode::kOpenLoop;
    config.open_loop.offered_load = workload.offered_load;
    config.open_loop.dispatch_per_tick = workload.dispatch_per_tick;
  }
  return config;
}

}  // namespace perfbench

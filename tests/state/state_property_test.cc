// Abort-path property tests (the "state" + "engine" labels: these run
// under the sanitizer presets too).
//
// (a) Randomized rounds of staged/committed/aborted cross-shard
//     transactions — with migrations interleaved — must leave the sharded
//     StateDb byte-identical to a flat serial reference execution that
//     knows nothing about shards, residency, reservations-vs-migration
//     interactions or Merkle upkeep.
// (b) The engine end-to-end: the same submission sequence under different
//     worker-thread counts must produce byte-identical final account
//     records, the same Merkle fingerprint and the same abort decisions.
// (c) Lazy roots: leaves are hashed only when a root is asked for, so a
//     root taken after any schedule of stages, decisions, overwrites and
//     extract/re-put moves must equal the root of a fresh shard DB built
//     from the same committed records.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/chain/transaction.h"
#include "txallo/common/rng.h"
#include "txallo/engine/engine.h"
#include "txallo/state/state_db.h"
#include "txallo/state/transfer_plan.h"

namespace txallo::state {
namespace {

constexpr uint32_t kShards = 4;
constexpr int64_t kFunding = 25;  // Tight: overdraw aborts must happen.
constexpr chain::AccountId kAccounts = 48;

StateConfig Config() {
  StateConfig config;
  config.enabled = true;
  config.initial_balance = kFunding;
  return config;
}

// Flat serial reference: one account map, no shards, no tries — an
// independent re-statement of the staging contract
// (lazy funded creation, nonce check, spendable = balance - reserved,
// commit applies credit-minus-debit and bumps the nonce of debited
// accounts, abort releases reservations only).
class SerialReference {
 public:
  explicit SerialReference(int64_t initial_balance)
      : initial_balance_(initial_balance) {}

  bool Stage(uint64_t seq, const Op& op) {
    auto [it, created] =
        records_.try_emplace(op.account, AccountState{initial_balance_, 0});
    // Creation is committed state: it survives a later failure or abort.
    AccountState& record = it->second;
    if (op.require_sequence != kAnySequence &&
        op.require_sequence != record.sequence) {
      return false;
    }
    if (op.debit > record.balance - reserved_[op.account]) return false;
    reserved_[op.account] += op.debit;
    staged_[seq].push_back(op);
    return true;
  }

  void Commit(uint64_t seq) {
    for (const Op& op : staged_[seq]) {
      AccountState& record = records_.at(op.account);
      record.balance += op.credit - op.debit;
      if (op.debit > 0) ++record.sequence;
      reserved_[op.account] -= op.debit;
    }
    staged_.erase(seq);
  }

  void Abort(uint64_t seq) {
    for (const Op& op : staged_[seq]) reserved_[op.account] -= op.debit;
    staged_.erase(seq);
  }

  const std::map<chain::AccountId, AccountState>& records() const {
    return records_;
  }

 private:
  const int64_t initial_balance_;
  std::map<chain::AccountId, AccountState> records_;
  std::map<chain::AccountId, int64_t> reserved_;
  std::map<uint64_t, std::vector<Op>> staged_;
};

// Every committed record in the sharded DB, merged across shards into
// account order — the byte-level content the reference is compared to.
std::map<chain::AccountId, AccountState> MergedRecords(StateDb& db) {
  std::map<chain::AccountId, AccountState> merged;
  for (uint32_t s = 0; s < db.num_shards(); ++s) {
    for (const auto& [account, record] : db.shard(s).SortedRecords()) {
      EXPECT_TRUE(merged.emplace(account, record).second)
          << "account " << account << " resides on two shards";
    }
  }
  return merged;
}

// Mimics the engine driver for one transaction: split the sorted op list
// into per-shard parts by placement routing, stage every part (lane
// order), and report the unanimous-vote outcome. A failed StageOp fails
// its part at that op (later ops of the part are never staged) but the
// remaining parts still stage — exactly the engine's per-lane behaviour.
bool StageTransaction(StateDb& db, SerialReference& reference, uint64_t seq,
                      const std::vector<Op>& ops) {
  std::map<uint32_t, std::vector<Op>> parts;
  for (const Op& op : ops) {
    parts[static_cast<uint32_t>(op.account % kShards)].push_back(op);
  }
  bool all_ok = true;
  for (const auto& [placement, part_ops] : parts) {
    if (!db.StagePart(seq, part_ops, placement)) all_ok = false;
    bool ref_ok = true;
    for (const Op& op : part_ops) {
      if (ref_ok) ref_ok = reference.Stage(seq, op);
    }
    if (!ref_ok) all_ok = false;
  }
  return all_ok;
}

chain::Transaction RandomTransaction(Rng& rng) {
  const size_t num_inputs = 1 + rng.NextBounded(3);
  const size_t num_outputs = 1 + rng.NextBounded(2);
  std::vector<chain::AccountId> inputs;
  std::vector<chain::AccountId> outputs;
  for (size_t i = 0; i < num_inputs; ++i) {
    inputs.push_back(static_cast<chain::AccountId>(rng.NextBounded(kAccounts)));
  }
  for (size_t i = 0; i < num_outputs; ++i) {
    outputs.push_back(
        static_cast<chain::AccountId>(rng.NextBounded(kAccounts)));
  }
  return chain::Transaction(inputs, outputs);
}

std::shared_ptr<const alloc::Allocation> RandomMapping(Rng& rng) {
  auto mapping = std::make_shared<alloc::Allocation>(kAccounts, kShards);
  for (chain::AccountId a = 0; a < kAccounts; ++a) {
    // Leave some accounts unassigned so the hash fallback participates.
    if (rng.NextBernoulli(0.8)) {
      mapping->Assign(a, static_cast<alloc::ShardId>(rng.NextBounded(kShards)));
    }
  }
  return mapping;
}

// One full randomized run; returns the final global fingerprint so the
// caller can assert run-to-run reproducibility.
Sha256Digest RunRandomizedRounds(uint64_t seed) {
  StateDb db(kShards, Config());
  SerialReference reference(kFunding);
  Rng rng(seed);

  constexpr uint64_t kRounds = 400;
  constexpr size_t kInFlight = 3;  // Reservations span decisions.
  // (seq, unanimous) decisions not yet issued, FIFO like the 2PC queue.
  std::deque<std::pair<uint64_t, bool>> outstanding;
  uint64_t aborts = 0;

  auto decide_oldest = [&] {
    const auto [seq, unanimous] = outstanding.front();
    outstanding.pop_front();
    const bool commit = unanimous && !rng.NextBernoulli(0.25);
    if (commit) {
      db.Commit(seq);
      reference.Commit(seq);
    } else {
      db.Abort(seq);
      reference.Abort(seq);
      ++aborts;
    }
  };

  for (uint64_t seq = 0; seq < kRounds; ++seq) {
    const chain::Transaction tx = RandomTransaction(rng);
    const std::vector<Op> ops = BuildTransferOps(tx, seq);
    outstanding.emplace_back(seq, StageTransaction(db, reference, seq, ops));
    if (outstanding.size() > kInFlight) decide_oldest();
    if (seq % 7 == 6) {
      // Allocation install mid-stream: reservation-locked records defer.
      db.BeginMigration(RandomMapping(rng), /*hash_route_unassigned=*/true);
    }
    if (db.migration_pending()) db.ContinueMigration();
  }
  while (!outstanding.empty()) decide_oldest();
  for (int i = 0; i < 8 && db.migration_pending(); ++i) {
    db.ContinueMigration();
  }
  EXPECT_FALSE(db.migration_pending());
  EXPECT_GT(aborts, 0u) << "funding too generous: abort path not exercised";

  // Byte-identical to the serial reference, shard by shard clean.
  EXPECT_EQ(MergedRecords(db), reference.records());
  EXPECT_EQ(db.total_accounts(), reference.records().size());
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(db.shard(s).pending_transactions(), 0u) << "shard " << s;
  }
  return db.GlobalRoot();
}

TEST(StatePropertyTest, RandomizedAbortRoundsMatchSerialReference) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE(seed);
    const Sha256Digest first = RunRandomizedRounds(seed);
    // Identical seed -> bit-identical fingerprint: the whole pipeline
    // (staging, decisions, migrations, trie upkeep) is deterministic.
    EXPECT_EQ(RunRandomizedRounds(seed), first);
  }
}

// ---------------------------------------------------------------------------
// (b) Engine end-to-end: thread count must not leak into state.

engine::EngineConfig PropertyEngineConfig(uint32_t threads) {
  engine::EngineConfig config;
  config.num_shards = kShards;
  config.num_threads = threads;
  config.work.eta = 2.0;
  config.work.capacity_per_block = 12.0;  // Multi-tick backlogs.
  config.work.cross_shard_commit_rounds = 1;
  config.hash_route_unassigned = true;
  config.state.enabled = true;
  config.state.initial_balance = kFunding;
  config.state.migration_work_per_account = 1.0;
  return config;
}

struct EngineOutcome {
  std::map<chain::AccountId, AccountState> records;
  Sha256Digest root{};
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t migrated = 0;
};

EngineOutcome RunEngine(uint32_t threads,
                        const std::vector<std::vector<chain::Transaction>>&
                            blocks) {
  Rng rng(99);  // Same draws per run: both engines install one mapping.
  engine::ParallelEngine engine(PropertyEngineConfig(threads),
                                RandomMapping(rng));
  for (size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_TRUE(engine.SubmitBlock(blocks[b]).ok());
    engine.Tick();
    if (b == blocks.size() / 2) {
      // Reallocation mid-run: records migrate while backlogs are live.
      EXPECT_TRUE(engine.InstallAllocation(RandomMapping(rng)).ok());
    }
  }
  engine::EngineReport report = engine.DrainAndReport();
  EngineOutcome outcome;
  outcome.records = MergedRecords(*engine.state());
  outcome.root = engine.state()->GlobalRoot();
  outcome.committed = report.sim.committed;
  outcome.aborted = report.aborted;
  outcome.migrated = report.accounts_migrated;
  return outcome;
}

TEST(StatePropertyTest, EngineStateIsIndependentOfWorkerThreads) {
  Rng rng(17);
  std::vector<std::vector<chain::Transaction>> blocks(6);
  for (auto& block : blocks) {
    for (int i = 0; i < 24; ++i) block.push_back(RandomTransaction(rng));
  }
  const EngineOutcome serial = RunEngine(1, blocks);
  EXPECT_GT(serial.aborted, 0u)
      << "funding too generous: abort path not exercised";
  EXPECT_GT(serial.migrated, 0u)
      << "install moved nothing: migration path not exercised";
  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const EngineOutcome parallel = RunEngine(threads, blocks);
    EXPECT_EQ(parallel.records, serial.records);
    EXPECT_EQ(parallel.root, serial.root);
    EXPECT_EQ(parallel.committed, serial.committed);
    EXPECT_EQ(parallel.aborted, serial.aborted);
    EXPECT_EQ(parallel.migrated, serial.migrated);
  }
}

// ---------------------------------------------------------------------------
// (c) Lazy leaves: a root never depends on the mutation history.

// The root a shard DB holding exactly `db`'s committed records reports.
Sha256Digest FreshRoot(const ShardStateDb& db) {
  ShardStateDb fresh(db.initial_balance());
  for (const auto& [account, record] : db.SortedRecords()) {
    fresh.Put(account, record);
  }
  return fresh.RootHash();
}

void RunLazyRootSchedule(uint64_t seed) {
  StateDb db(kShards, Config());
  Rng rng(seed);
  // Where each account's record lives (absent: none anywhere), and the
  // undecided (shard, seq) stagings.
  std::map<chain::AccountId, uint32_t> home;
  std::vector<std::pair<uint32_t, uint64_t>> open;
  uint64_t next_seq = 0;
  uint64_t roots = 0;
  uint64_t moves = 0;

  for (int step = 0; step < 3000; ++step) {
    const auto account =
        static_cast<chain::AccountId>(rng.NextBounded(kAccounts));
    const auto it = home.find(account);
    const uint32_t shard = it != home.end()
                               ? it->second
                               : static_cast<uint32_t>(rng.NextBounded(kShards));
    switch (rng.NextBounded(6)) {
      case 0: {  // Stage one op (lazily creating the record).
        Op op;
        op.account = account;
        op.debit = static_cast<int64_t>(rng.NextBounded(8));
        op.credit = static_cast<int64_t>(rng.NextBounded(8));
        const uint64_t seq = next_seq++;
        if (db.shard(shard).StageOp(seq, op)) open.emplace_back(shard, seq);
        home[account] = shard;
        break;
      }
      case 1:
      case 2: {  // Decide an undecided staging.
        if (open.empty()) break;
        const size_t pick = rng.NextBounded(open.size());
        const auto [s, seq] = open[pick];
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
        if (rng.NextBernoulli(0.7)) {
          db.shard(s).CommitStaged(seq);
        } else {
          db.shard(s).AbortStaged(seq);
        }
        break;
      }
      case 3:  // Overwrite or insert a committed record.
        db.shard(shard).Put(
            account, AccountState{static_cast<int64_t>(rng.NextBounded(50)),
                                  rng.NextBounded(4)});
        home[account] = shard;
        break;
      default: {  // Extract, then re-put here or elsewhere, or drop.
        if (it == home.end()) break;
        const std::optional<AccountState> record =
            db.shard(shard).Extract(account);
        if (!record.has_value()) break;  // Pinned by a staged op.
        ++moves;
        const uint64_t fate = rng.NextBounded(3);
        if (fate == 2) {
          home.erase(account);
          break;
        }
        const uint32_t to =
            fate == 0 ? shard
                      : static_cast<uint32_t>((shard + 1 + rng.NextBounded(
                                                               kShards - 1)) %
                                              kShards);
        db.shard(to).Put(account, *record);
        home[account] = to;
        break;
      }
    }
    if (rng.NextBernoulli(0.15)) {
      const auto s = static_cast<uint32_t>(rng.NextBounded(kShards));
      ++roots;
      ASSERT_EQ(db.shard(s).RootHash(), FreshRoot(db.shard(s)))
          << "shard " << s << " at step " << step;
    }
  }
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(db.shard(s).RootHash(), FreshRoot(db.shard(s))) << "shard " << s;
  }
  EXPECT_GT(roots, 100u);
  EXPECT_GT(moves, 100u);
}

TEST(StatePropertyTest, LazyRootsMatchAFreshDbOverTheSameRecords) {
  for (uint64_t seed : {3u, 11u, 2023u}) {
    SCOPED_TRACE(seed);
    RunLazyRootSchedule(seed);
  }
}

}  // namespace
}  // namespace txallo::state

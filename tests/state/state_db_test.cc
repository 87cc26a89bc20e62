// StateDb: residency-based dispatch of staged parts across shard DBs,
// cross-shard commit/abort, and the record-migration contract of
// allocation installs (deferral of reservation-locked records included).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "txallo/alloc/allocation.h"
#include "txallo/state/state_db.h"
#include "txallo/state/transfer_plan.h"

namespace txallo::state {
namespace {

constexpr uint32_t kShards = 4;
constexpr int64_t kFunding = 100;

StateConfig Config() {
  StateConfig config;
  config.enabled = true;
  config.initial_balance = kFunding;
  return config;
}

Op Debit(chain::AccountId account, int64_t amount) {
  Op op;
  op.account = account;
  op.debit = amount;
  return op;
}

Op Credit(chain::AccountId account, int64_t amount) {
  Op op;
  op.account = account;
  op.credit = amount;
  return op;
}

std::shared_ptr<const alloc::Allocation> MappingOf(
    const std::vector<std::pair<chain::AccountId, alloc::ShardId>>& assign,
    uint64_t num_accounts = 64) {
  auto mapping = std::make_shared<alloc::Allocation>(num_accounts, kShards);
  for (const auto& [account, shard] : assign) {
    mapping->Assign(account, shard);
  }
  return mapping;
}

TEST(StateDbTest, StagePartPlacesNewAccountsOnThePlacementShard) {
  StateDb db(kShards, Config());
  ASSERT_TRUE(db.StagePart(/*seq=*/0, {Debit(10, 5), Credit(11, 5)},
                           /*placement_shard=*/2));
  EXPECT_EQ(db.ResidencyOf(10), 2u);
  EXPECT_EQ(db.ResidencyOf(11), 2u);
  EXPECT_EQ(db.ResidencyOf(12), StateDb::kNoShard);
  EXPECT_EQ(db.Commit(0), 2u);
  EXPECT_EQ(db.Find(10)->balance, kFunding - 5);
  EXPECT_EQ(db.Find(11)->balance, kFunding + 5);
  EXPECT_EQ(db.total_accounts(), 2u);
}

TEST(StateDbTest, ResidencyBeatsPlacementForExistingRecords) {
  StateDb db(kShards, Config());
  db.Fund(7, {50, 0}, /*shard=*/1);
  // Part routed to shard 3, but account 7's record lives on shard 1: the
  // op must stage where the record is.
  ASSERT_TRUE(db.StagePart(0, {Debit(7, 20)}, /*placement_shard=*/3));
  EXPECT_EQ(db.shard(1).pending_transactions(), 1u);
  EXPECT_EQ(db.shard(3).pending_transactions(), 0u);
  EXPECT_EQ(db.Commit(0), 1u);
  EXPECT_EQ(db.Find(7)->balance, 30);
  EXPECT_EQ(db.ResidencyOf(7), 1u);
}

TEST(StateDbTest, CrossShardAbortRevertsEveryShard) {
  StateDb db(kShards, Config());
  db.Fund(0, {10, 0}, 0);
  db.Fund(1, {20, 0}, 1);
  db.Fund(2, {30, 0}, 2);
  const Sha256Digest before = db.GlobalRoot();
  ASSERT_TRUE(db.StagePart(5, {Debit(0, 3)}, 0));
  ASSERT_TRUE(db.StagePart(5, {Debit(1, 4)}, 1));
  ASSERT_TRUE(db.StagePart(5, {Credit(2, 7)}, 2));
  EXPECT_EQ(db.Abort(5), 3u);
  EXPECT_EQ(db.GlobalRoot(), before);
  EXPECT_EQ(db.Find(0)->balance, 10);
  EXPECT_EQ(db.Find(1)->balance, 20);
  EXPECT_EQ(db.Find(2)->balance, 30);
}

TEST(StateDbTest, FailedVoteLeavesEarlierOpsForTheAbortToClean) {
  StateDb db(kShards, Config());
  db.Fund(0, {100, 0}, 0);
  db.Fund(1, {1, 0}, 1);
  // Op on shard 0 stages fine; the overdraw on shard 1 fails the part.
  EXPECT_FALSE(db.StagePart(9, {Debit(0, 10), Debit(1, 50)}, 0));
  EXPECT_EQ(db.shard(0).pending_transactions(), 1u);
  // The 2PC decision (abort) cleans up the partial staging.
  EXPECT_EQ(db.Abort(9), 1u);
  EXPECT_EQ(db.Find(0)->balance, 100);
  EXPECT_EQ(db.Find(1)->balance, 1);
  EXPECT_EQ(db.shard(0).pending_transactions(), 0u);
}

TEST(StateDbTest, CommitAndAbortTouchOnlyParticipantShards) {
  constexpr uint32_t kWide = 8;
  StateDb db(kWide, Config());
  for (chain::AccountId a = 0; a < kWide; ++a) db.Fund(a, {50, 0}, a);
  // seq 1 stages on shards {1, 3}, in two parts; seqs 2 and 3 stage on
  // the shards around them.
  ASSERT_TRUE(db.StagePart(1, {Debit(1, 5), Credit(3, 5)}, 1));
  ASSERT_TRUE(db.StagePart(1, {Debit(3, 2)}, 3));
  ASSERT_TRUE(db.StagePart(2, {Debit(2, 7)}, 2));
  ASSERT_TRUE(db.StagePart(3, {Debit(4, 9), Credit(0, 9)}, 4));

  EXPECT_EQ(db.Commit(1), 3u);
  EXPECT_EQ(*db.Find(1), (AccountState{45, 1}));
  EXPECT_EQ(*db.Find(3), (AccountState{53, 1}));
  for (uint32_t s : {1u, 3u}) {
    EXPECT_EQ(db.shard(s).pending_transactions(), 0u) << "shard " << s;
  }
  // Everything else is still staged, committed state untouched.
  EXPECT_TRUE(db.shard(2).HasStaged(2));
  EXPECT_TRUE(db.shard(4).HasStaged(3));
  EXPECT_TRUE(db.shard(0).HasStaged(3));
  EXPECT_EQ(*db.Find(2), (AccountState{50, 0}));
  EXPECT_EQ(*db.Find(4), (AccountState{50, 0}));
  EXPECT_EQ(*db.Find(0), (AccountState{50, 0}));

  // A decided seq is forgotten; an unknown one never existed.
  EXPECT_EQ(db.Commit(1), 0u);
  EXPECT_EQ(db.Abort(1), 0u);
  EXPECT_EQ(db.Commit(99), 0u);
  EXPECT_EQ(db.Abort(99), 0u);

  EXPECT_EQ(db.Commit(2), 1u);
  EXPECT_EQ(db.Abort(3), 2u);
  for (uint32_t s = 0; s < kWide; ++s) {
    EXPECT_EQ(db.shard(s).pending_transactions(), 0u) << "shard " << s;
  }
  EXPECT_EQ(*db.Find(2), (AccountState{43, 1}));
  EXPECT_EQ(*db.Find(4), (AccountState{50, 0}));

  // A part whose second op fails its vote: the first op (shard 5) stays
  // staged until the abort, which must still find it.
  EXPECT_FALSE(db.StagePart(4, {Debit(5, 10), Debit(6, 500)}, 5));
  EXPECT_TRUE(db.shard(5).HasStaged(4));
  EXPECT_FALSE(db.shard(6).HasStaged(4));
  EXPECT_EQ(db.Abort(4), 1u);
  EXPECT_EQ(db.shard(5).pending_transactions(), 0u);
  EXPECT_EQ(*db.Find(5), (AccountState{50, 0}));
  EXPECT_EQ(db.Abort(4), 0u);
}

TEST(StateDbTest, MigrationMovesRecordsAndCountsPerShardFlows) {
  StateDb db(kShards, Config());
  db.Fund(0, {11, 1}, 0);
  db.Fund(1, {22, 2}, 0);
  db.Fund(2, {33, 3}, 1);

  // New mapping: 0 stays, 1 -> shard 2, 2 -> shard 3.
  MigrationReport report = db.BeginMigration(
      MappingOf({{0, 0}, {1, 2}, {2, 3}}), /*hash_route_unassigned=*/false);
  EXPECT_EQ(report.accounts_moved, 2u);
  EXPECT_EQ(report.accounts_deferred, 0u);
  ASSERT_EQ(report.moved_out.size(), kShards);
  EXPECT_EQ(report.moved_out[0], 1u);
  EXPECT_EQ(report.moved_out[1], 1u);
  EXPECT_EQ(report.moved_in[2], 1u);
  EXPECT_EQ(report.moved_in[3], 1u);
  EXPECT_FALSE(db.migration_pending());

  // Records arrive intact, balances and nonces included.
  EXPECT_EQ(db.ResidencyOf(1), 2u);
  EXPECT_EQ(*db.Find(1), (AccountState{22, 2}));
  EXPECT_EQ(db.ResidencyOf(2), 3u);
  EXPECT_EQ(*db.Find(2), (AccountState{33, 3}));
  EXPECT_EQ(db.ResidencyOf(0), 0u);
}

TEST(StateDbTest, ReservedRecordsDeferUntilTheRoundResolves) {
  StateDb db(kShards, Config());
  db.Fund(5, {40, 0}, 0);
  db.Fund(6, {40, 0}, 0);
  ASSERT_TRUE(db.StagePart(1, {Debit(5, 10)}, 0));

  MigrationReport first = db.BeginMigration(
      MappingOf({{5, 2}, {6, 2}}), /*hash_route_unassigned=*/false);
  // Account 6 moves immediately; account 5 is locked by the pending
  // reservation and defers.
  EXPECT_EQ(first.accounts_moved, 1u);
  EXPECT_EQ(first.accounts_deferred, 1u);
  EXPECT_TRUE(db.migration_pending());
  EXPECT_EQ(db.ResidencyOf(5), 0u);
  EXPECT_EQ(db.ResidencyOf(6), 2u);

  // Still locked: retrying before the decision moves nothing.
  MigrationReport stuck = db.ContinueMigration();
  EXPECT_EQ(stuck.accounts_moved, 0u);
  EXPECT_EQ(stuck.accounts_deferred, 1u);

  db.Commit(1);
  MigrationReport resolved = db.ContinueMigration();
  EXPECT_EQ(resolved.accounts_moved, 1u);
  EXPECT_EQ(resolved.accounts_deferred, 0u);
  EXPECT_FALSE(db.migration_pending());
  EXPECT_EQ(db.ResidencyOf(5), 2u);
  EXPECT_EQ(db.Find(5)->balance, 30);
}

TEST(StateDbTest, HashFallbackRoutesUnassignedAccounts) {
  StateDb db(kShards, Config());
  db.Fund(9, {15, 0}, 0);  // 9 % 4 == 1: should move under the fallback.
  MigrationReport with_fallback = db.BeginMigration(
      MappingOf({}), /*hash_route_unassigned=*/true);
  EXPECT_EQ(with_fallback.accounts_moved, 1u);
  EXPECT_EQ(db.ResidencyOf(9), 1u);

  // Without the fallback an unassigned record stays put.
  MigrationReport without = db.BeginMigration(
      MappingOf({}), /*hash_route_unassigned=*/false);
  EXPECT_EQ(without.accounts_moved, 0u);
  EXPECT_EQ(db.ResidencyOf(9), 1u);
}

TEST(StateDbTest, GlobalRootCoversShardPlacement) {
  // The same records on different shards must fingerprint differently —
  // the global root commits to residency, not just contents.
  StateDb left(kShards, Config());
  left.Fund(1, {5, 0}, 0);
  StateDb right(kShards, Config());
  right.Fund(1, {5, 0}, 1);
  EXPECT_NE(left.GlobalRoot(), right.GlobalRoot());

  StateDb same(kShards, Config());
  same.Fund(1, {5, 0}, 0);
  EXPECT_EQ(left.GlobalRoot(), same.GlobalRoot());
}

TEST(TransferPlanTest, OpsConserveValueAndSortByAccount) {
  chain::Transaction tx({3, 1, 1}, {7, 2});  // Account 1 pays twice.
  for (uint64_t seq : {0u, 5u, 13u}) {
    const std::vector<Op> ops = BuildTransferOps(tx, seq);
    int64_t debits = 0;
    int64_t credits = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      debits += ops[i].debit;
      credits += ops[i].credit;
      if (i > 0) {
        EXPECT_LT(ops[i - 1].account, ops[i].account);
      }
    }
    EXPECT_EQ(debits, credits) << "seq " << seq;
    EXPECT_EQ(debits, 3 * TransferAmount(seq));
  }
  // Identical (tx, seq) -> identical ops: the determinism the replayed
  // Merkle roots rest on.
  EXPECT_EQ(BuildTransferOps(tx, 5), BuildTransferOps(tx, 5));
}

}  // namespace
}  // namespace txallo::state

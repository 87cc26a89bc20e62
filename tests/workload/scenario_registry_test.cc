// Conformance suite over the scenario registry: every name in
// RegisteredScenarioNames() must honour the Scenario contract (per-seed
// determinism, shape keys, strict option validation) and self-describe.
// Scenario-specific behavior lives in scenario_test.cc; this file is the
// part a new scenario gets for free — and cannot opt out of.
#include "txallo/workload/scenario_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "txallo/engine/replay.h"

namespace txallo::workload {
namespace {

ScenarioShape SmallShape() {
  ScenarioShape shape;
  shape.num_blocks = 12;
  shape.txs_per_block = 30;
  shape.num_accounts = 600;
  shape.num_communities = 10;
  shape.seed = 11;
  return shape;
}

TEST(ScenarioRegistryTest, EveryRegisteredNameInstantiates) {
  for (const std::string& name : RegisteredScenarioNames()) {
    SCOPED_TRACE(name);
    auto scenario = MakeScenarioFromSpec(name, SmallShape());
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    EXPECT_EQ((*scenario)->spec(), name);
    EXPECT_EQ((*scenario)->num_blocks(), SmallShape().num_blocks);
    const chain::Ledger ledger =
        (*scenario)->GenerateLedger((*scenario)->num_blocks());
    EXPECT_EQ(ledger.num_blocks(), SmallShape().num_blocks);
    EXPECT_EQ(ledger.num_transactions(),
              SmallShape().num_blocks * SmallShape().txs_per_block);
    // The registry covers the whole stream (accounts pre-interned).
    EXPECT_GE((*scenario)->registry().size(), SmallShape().num_accounts);
  }
}

TEST(ScenarioRegistryTest, EveryScenarioIsDeterministicPerSeed) {
  for (const std::string& name : RegisteredScenarioNames()) {
    SCOPED_TRACE(name);
    auto fingerprint = [&](uint64_t seed) {
      ScenarioShape shape = SmallShape();
      shape.seed = seed;
      auto scenario = MakeScenarioFromSpec(name, shape);
      EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
      return engine::FingerprintLedger(
          (*scenario)->GenerateLedger((*scenario)->num_blocks()));
    };
    EXPECT_EQ(fingerprint(3), fingerprint(3));
    EXPECT_NE(fingerprint(3), fingerprint(4))
        << "seed does not reach the stream";
  }
}

TEST(ScenarioRegistryTest, CommonShapeKeysOverrideTheProgrammaticShape) {
  for (const std::string& name : RegisteredScenarioNames()) {
    SCOPED_TRACE(name);
    auto scenario = MakeScenarioFromSpec(
        name + ":blocks=5,txs-per-block=7,accounts=300,communities=6,seed=2",
        SmallShape());
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    const chain::Ledger ledger = (*scenario)->GenerateLedger(5);
    EXPECT_EQ((*scenario)->num_blocks(), 5u);
    EXPECT_EQ(ledger.num_transactions(), 35u);
  }
}

TEST(ScenarioRegistryTest, UnknownNameIsNotFoundAndListsTheRegistry) {
  auto scenario = MakeScenarioFromSpec("tsunami", SmallShape());
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kNotFound);
  EXPECT_NE(scenario.status().message().find("ethereum"), std::string::npos);
}

TEST(ScenarioRegistryTest, UnknownKeyIsRejectedForEveryScenario) {
  for (const std::string& name : RegisteredScenarioNames()) {
    SCOPED_TRACE(name);
    auto scenario =
        MakeScenarioFromSpec(name + ":bogus-knob=1", SmallShape());
    ASSERT_FALSE(scenario.ok());
    EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(scenario.status().message().find("bogus-knob"),
              std::string::npos);
  }
}

TEST(ScenarioRegistryTest, MalformedNumbersAreRejectedNotTruncated) {
  auto scenario = MakeScenarioFromSpec("ethereum:blocks=12banana",
                                       SmallShape());
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScenarioRegistryTest, NegativeAndOverflowingIntegersNameTheirKey) {
  // Each of these used to be accepted: "-1" wrapped to 2^64 - 1 (a run
  // that never finished building its registry) and the overflow clamped
  // silently to 2^64 - 1.
  const std::pair<const char*, const char*> bad_specs[] = {
      {"ethereum:accounts=-1", "accounts"},
      {"ethereum:blocks=-5", "blocks"},
      {"spike:seed=99999999999999999999999", "seed"},
      {"diurnal:width=-1", "width"},
      {"ethereum:accounts=4294967296", "'accounts'"},
  };
  for (const auto& [spec, key] : bad_specs) {
    SCOPED_TRACE(spec);
    auto scenario = MakeScenarioFromSpec(spec, SmallShape());
    ASSERT_FALSE(scenario.ok());
    EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(scenario.status().message().find(key), std::string::npos)
        << scenario.status().message();
  }
}

TEST(ScenarioRegistryTest, AllocationSizingKeysAreCappedAndNamed) {
  // Each of these sizes an allocation up front: unchecked, it dies with
  // std::bad_alloc instead of returning an error.
  const std::pair<const char*, const char*> bad_specs[] = {
      {"shard-attack:txs-per-block=4294967296", "txs-per-block"},
      {"churn:pool=1099511627776", "pool"},
      {"multi-asset:assets=4294967295", "assets"},
      {"sybil:sybils=1099511627776", "sybils"},
      {"sybil:fanout=4294967295", "fanout"},
      {"shard-attack:attackers=4294967295", "attackers"},
      {"ethereum:accounts=4294967295,communities=4294967295", "accounts"},
      {"ethereum:accounts=100000000,communities=10", "accounts"},
      {"ethereum:communities=4294967295", "communities"},
      // One past each cap.
      {"ethereum:accounts=16777217", "accounts"},
      {"ethereum:communities=16777217", "communities"},
      {"ethereum:txs-per-block=1048577", "txs-per-block"},
      {"churn:pool=16777217", "pool"},
      {"sybil:fanout=1025", "fanout"},
  };
  for (const auto& [spec, key] : bad_specs) {
    SCOPED_TRACE(spec);
    auto scenario = MakeScenarioFromSpec(spec, SmallShape());
    ASSERT_FALSE(scenario.ok());
    EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(scenario.status().message().find(std::string("'") + key + "'"),
              std::string::npos)
        << scenario.status().message();
  }
  // The cap applies to the resolved value, not only to spec keys.
  ScenarioShape wide = SmallShape();
  wide.txs_per_block = uint64_t{1} << 32;
  auto scenario = MakeScenarioFromSpec("ethereum", wide);
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
  ScenarioShape many = SmallShape();
  many.num_accounts = (uint64_t{1} << 24) + 1;
  EXPECT_EQ(MakeScenarioFromSpec("ethereum", many).status().code(),
            StatusCode::kInvalidArgument);
  // A value at the cap is accepted.
  EXPECT_TRUE(MakeScenarioFromSpec("sybil:fanout=1024", SmallShape()).ok());
}

TEST(ScenarioRegistryTest, UsageTextStatesEachCap) {
  const std::string usage = ScenarioUsageText();
  EXPECT_NE(usage.find("txs-per-block=<uint> (<= 1048576)"),
            std::string::npos);
  EXPECT_NE(usage.find("accounts=<uint> (<= 16777216)"), std::string::npos);
  EXPECT_NE(usage.find("communities=<uint> (<= 16777216)"),
            std::string::npos);
  for (const char* key : {"pool", "assets", "attackers", "sybils"}) {
    EXPECT_NE(usage.find(std::string("    ") + key + "=<uint>"),
              std::string::npos)
        << key;
  }
  EXPECT_NE(usage.find("<= 16777216"), std::string::npos);
  EXPECT_NE(usage.find("<= 1024"), std::string::npos);
}

TEST(ScenarioRegistryTest, OutOfRangeValuesFailValidation) {
  const char* bad_specs[] = {
      "ethereum:intra=1.5",        // Fraction above 1.
      "ethereum:hub-share=-0.1",   // Fraction below 0.
      "spike:peak-share=2",        // Fraction above 1.
      "spike:ramp=0",              // Ramp must cover >= 1 block.
      "diurnal:period=0",          // Period must be > 0.
      "diurnal:width=0",           // Width must be > 0.
      "churn:pool=0",              // Pool must be > 0.
      "multi-asset:assets=0",      // Need at least one asset.
      "multi-asset:asset-skew=-1", // Zipf skew must be >= 0.
      "shard-attack:shards=0",     // Shards must be > 0.
      "shard-attack:shards=4,target=4",  // Target must be < shards.
      "sybil:fanout=0",            // Fanout must be > 0.
      "stress:target=9",           // Default shards=8; target out of range.
      "ethereum:blocks=0",         // Config-level validation: empty run.
      "ethereum:accounts=1",       // Need >= 2 accounts to transact.
  };
  for (const char* spec : bad_specs) {
    SCOPED_TRACE(spec);
    auto scenario = MakeScenarioFromSpec(spec, SmallShape());
    ASSERT_FALSE(scenario.ok());
    EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ScenarioRegistryTest, MakeScenarioRendersACanonicalSpec) {
  std::map<std::string, std::string> options = {{"peak-share", "0.7"},
                                                {"start", "3"}};
  auto scenario = MakeScenario("spike", SmallShape(), options);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  EXPECT_EQ((*scenario)->spec(), "spike:peak-share=0.7,start=3");
}

TEST(ScenarioRegistryTest, DescriptionsCoverEveryNameAndOption) {
  const auto names = RegisteredScenarioNames();
  const auto docs = DescribeScenarios();
  ASSERT_EQ(docs.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    SCOPED_TRACE(names[i]);
    EXPECT_EQ(docs[i].name, names[i]);
    EXPECT_FALSE(docs[i].summary.empty());
    EXPECT_EQ(DescribeScenario(names[i]), docs[i].summary);
    // Every documented key is accepted (with its default untouched the
    // scenario must still build); round-trip through a real spec.
    for (const ScenarioOptionDoc& option : docs[i].options) {
      EXPECT_FALSE(option.help.empty());
      EXPECT_FALSE(option.type.empty());
    }
  }
  EXPECT_EQ(DescribeScenario("tsunami"), "");
}

TEST(ScenarioRegistryTest, UsageTextMentionsEveryScenarioAndCommonKeys) {
  const std::string usage = ScenarioUsageText();
  for (const std::string& name : RegisteredScenarioNames()) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
  }
  for (const char* key :
       {"blocks", "txs-per-block", "accounts", "communities", "seed"}) {
    EXPECT_NE(usage.find(key), std::string::npos) << key;
  }
}

TEST(ScenarioRegistryTest, NamesAreSortedAndStable) {
  const auto names = RegisteredScenarioNames();
  ASSERT_FALSE(names.empty());
  for (size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
  // The catalog this PR ships; growing it is fine, renaming is a break.
  EXPECT_NE(std::find(names.begin(), names.end(), "ethereum"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "spike"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "shard-attack"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "sybil"), names.end());
}

}  // namespace
}  // namespace txallo::workload

#include "txallo/common/flags.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

namespace txallo {
namespace {

Flags ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags::Parse(static_cast<int>(args.size()),
                      const_cast<char**>(args.data()));
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f = ParseArgs({"--txs=5000", "--eta=2.5", "--name=run1"});
  EXPECT_EQ(f.GetInt("txs", 0), 5000);
  EXPECT_DOUBLE_EQ(f.GetDouble("eta", 0.0), 2.5);
  EXPECT_EQ(f.GetString("name", ""), "run1");
}

TEST(FlagsTest, SpaceSyntax) {
  Flags f = ParseArgs({"--txs", "7000"});
  EXPECT_EQ(f.GetInt("txs", 0), 7000);
}

TEST(FlagsTest, BareFlagIsTrue) {
  Flags f = ParseArgs({"--verbose"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_TRUE(f.Has("verbose"));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags f = ParseArgs({});
  EXPECT_EQ(f.GetInt("txs", 123), 123);
  EXPECT_DOUBLE_EQ(f.GetDouble("eta", 4.5), 4.5);
  EXPECT_FALSE(f.GetBool("verbose", false));
  EXPECT_FALSE(f.Has("txs"));
}

TEST(FlagsTest, MalformedNumberFallsBackToDefault) {
  Flags f = ParseArgs({"--txs=abc"});
  EXPECT_EQ(f.GetInt("txs", 55), 55);
}

TEST(FlagsTest, BoolSpellings) {
  Flags f = ParseArgs({"--a=true", "--b=1", "--c=yes", "--d=false"});
  EXPECT_TRUE(f.GetBool("a", false));
  EXPECT_TRUE(f.GetBool("b", false));
  EXPECT_TRUE(f.GetBool("c", false));
  EXPECT_FALSE(f.GetBool("d", true));
}

TEST(FlagsTest, ReadFlagsPassTheUnknownFlagCheck) {
  Flags f = ParseArgs({"--txs=5", "--verbose", "--name", "run1"});
  EXPECT_EQ(f.GetInt("txs", 0), 5);
  EXPECT_TRUE(f.Has("verbose"));  // Has() counts as a read.
  EXPECT_EQ(f.GetString("name", ""), "run1");
  f.ExitOnUnknownFlags();  // Returns: every parsed flag was read.
}

TEST(FlagsTest, ReadingAnAbsentFlagIsNotAnError) {
  Flags f = ParseArgs({});
  EXPECT_EQ(f.GetInt("txs", 7), 7);
  f.ExitOnUnknownFlags();
}

TEST(FlagsDeathTest, UnreadFlagIsAUsageError) {
  // A removed or misspelt flag exits 2 and names itself, even after the
  // binary has read its own flags.
  Flags f = ParseArgs({"--blocks=24", "--overrun=1", "--no-cleaner"});
  EXPECT_EQ(f.GetInt("blocks", 0), 24);
  EXPECT_EXIT(f.ExitOnUnknownFlags(), testing::ExitedWithCode(2),
              "unknown flag --no-cleaner=true\nunknown flag --overrun=1");
}

TEST(FlagsDeathTest, SharedResolversMarkTheirFlagsRead) {
  Flags f = ParseArgs({"--scale=small", "--txs=10", "--threads=2", "--k=4"});
  ResolveBenchScale(f);
  EXPECT_EXIT(f.ExitOnUnknownFlags(), testing::ExitedWithCode(2),
              "unknown flag --k=4");
  f.GetInt("k", 0);
  f.ExitOnUnknownFlags();
}

TEST(BenchScaleTest, FlagOverridesPreset) {
  Flags f = ParseArgs({"--scale=small", "--txs=999", "--max-shards=12"});
  BenchScale scale = ResolveBenchScale(f);
  EXPECT_EQ(scale.num_transactions, 999u);
  EXPECT_EQ(scale.max_shards, 12);
}

TEST(BenchScaleTest, ThreadsFlagPinsEngineParallelism) {
  Flags f = ParseArgs({"--threads=6"});
  EXPECT_EQ(ResolveBenchScale(f).num_threads, 6);
}

TEST(BenchScaleTest, ThreadsDefaultsToAuto) {
  // 0 = let the engine pick (hardware concurrency clamped to shards).
  // Hermetic against the caller's environment.
  ::unsetenv("TXALLO_THREADS");
  Flags f = ParseArgs({});
  EXPECT_EQ(ResolveBenchScale(f).num_threads, 0);
}

TEST(BenchScaleTest, ThreadsEnvIsTheFallback) {
  ::setenv("TXALLO_THREADS", "5", /*overwrite=*/1);
  EXPECT_EQ(ResolveBenchScale(ParseArgs({})).num_threads, 5);
  // An explicit flag still wins over the environment.
  EXPECT_EQ(ResolveBenchScale(ParseArgs({"--threads=2"})).num_threads, 2);
  ::unsetenv("TXALLO_THREADS");
}

TEST(BenchScaleTest, NegativeThreadsClampsToAuto) {
  // Explicit nonsense clamps to auto; it must NOT fall through to the env.
  ::setenv("TXALLO_THREADS", "7", /*overwrite=*/1);
  Flags f = ParseArgs({"--threads=-3"});
  EXPECT_EQ(ResolveBenchScale(f).num_threads, 0);
  ::unsetenv("TXALLO_THREADS");
}

TEST(BenchScaleTest, PresetsAreOrdered) {
  Flags small = ParseArgs({"--scale=small"});
  Flags medium = ParseArgs({"--scale=medium"});
  Flags large = ParseArgs({"--scale=large"});
  EXPECT_LT(ResolveBenchScale(small).num_transactions,
            ResolveBenchScale(medium).num_transactions);
  EXPECT_LT(ResolveBenchScale(medium).num_transactions,
            ResolveBenchScale(large).num_transactions);
}

}  // namespace
}  // namespace txallo

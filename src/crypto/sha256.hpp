// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for enclave measurements, module hashes, evidence binding and as the
// hash underlying HMAC and Lamport signatures. Verified against NIST test
// vectors in tests/crypto_test.cpp.
//
// Two compression functions produce identical states. On x86-64 CPUs with
// the SHA extensions (CPUID leaf 7 EBX bit 29, plus SSSE3 and SSE4.1) the
// first Sha256 use selects one built on sha256rnds2/sha256msg1/sha256msg2;
// everywhere else the portable one runs. The CPU decides: there is no
// option. The portable function is also the reference the differential
// tests compare the hardware one against.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"

namespace acctee::crypto {

/// A 32-byte SHA-256 digest.
using Digest = std::array<uint8_t, 32>;

/// The eight 32-bit chaining words H0..H7.
using Sha256State = std::array<uint32_t, 8>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  /// Absorbs more input. May be called repeatedly.
  void update(BytesView data);

  /// Finalises and returns the digest. The context must not be reused
  /// afterwards except via reset().
  Digest finish();

  /// Resets to the initial state.
  void reset();

 private:
  Sha256State state_;
  std::array<uint8_t, 64> buffer_;
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
};

/// One-shot convenience.
Digest sha256(BytesView data);

/// Digest as owned bytes (for wire formats).
Bytes digest_bytes(const Digest& d);

/// Digest as lowercase hex.
std::string digest_hex(const Digest& d);

// Exposed for tests and benches. Each absorbs `nblocks` consecutive 64-byte
// blocks starting at `blocks` into `state`.

/// Runs on every CPU.
void sha256_compress_portable(Sha256State& state, const uint8_t* blocks,
                              size_t nblocks);

#if defined(__x86_64__)
/// Requires SHA, SSSE3 and SSE4.1: call only when sha256_backend() is
/// "sha-ni".
void sha256_compress_sha_ni(Sha256State& state, const uint8_t* blocks,
                            size_t nblocks);
#endif

/// The compression function Sha256 uses on this CPU: "sha-ni" or
/// "portable".
std::string_view sha256_backend();

}  // namespace acctee::crypto

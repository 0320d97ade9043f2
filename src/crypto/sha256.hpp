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
//
// Batches of independent equal-length messages (Lamport preimages, key
// fingerprints, HMAC slots) go through sha256_many, which on CPUs with
// AVX-512F hashes them sixteen at a time in one 16-lane kernel, and
// elsewhere one at a time straight into the compression function.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
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
  // Reads the midstate every message of a sha256_many call continues from.
  friend struct MultiMessage;

  Sha256State state_;
  std::array<uint8_t, 64> buffer_;
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
};

/// Hashes a canonical serialization as it is written. Each record claims
/// its exact size up front, then stores its fields little-endian by shifts
/// (the same bytes on every host) into a fixed chunk that reaches the
/// context in one update() whenever it fills.
class Sha256Writer {
 public:
  static constexpr size_t kChunk = 4096;

  /// One record's bytes. It must write exactly the size it claimed. Its
  /// cursor is a local, so a field store never makes the compiler reload
  /// the writer's state.
  class Record {
   public:
    Record(uint8_t* p, size_t n) : p_(p), end_(p + n) {}
    ~Record() { assert(p_ == end_); }
    Record(const Record&) = delete;
    Record& operator=(const Record&) = delete;

    Record& u8(uint8_t v) {
      assert(p_ + 1 <= end_);
      *p_++ = v;
      return *this;
    }
    Record& u32(uint32_t v) {
      assert(p_ + 4 <= end_);
      for (size_t i = 0; i < 4; ++i) {
        p_[i] = static_cast<uint8_t>(v >> (8 * i));
      }
      p_ += 4;
      return *this;
    }
    Record& u64(uint64_t v) {
      assert(p_ + 8 <= end_);
      for (size_t i = 0; i < 8; ++i) {
        p_[i] = static_cast<uint8_t>(v >> (8 * i));
      }
      p_ += 8;
      return *this;
    }

   private:
    uint8_t* p_;
    uint8_t* end_;
  };

  /// Claims the next `n` bytes (n ≤ kChunk) for one record.
  Record record(size_t n) {
    if (len_ + n > kChunk) flush();
    uint8_t* p = buf_.data() + len_;
    len_ += n;
    return Record(p, n);
  }
  /// Any length.
  void bytes(BytesView data);
  void bytes(std::string_view text) {
    bytes(BytesView(reinterpret_cast<const uint8_t*>(text.data()),
                    text.size()));
  }

  Digest finish();

 private:
  void flush();

  Sha256 ctx_;
  std::array<uint8_t, kChunk> buf_;
  size_t len_ = 0;
};

/// One-shot convenience.
Digest sha256(BytesView data);

/// Hashes independent messages of one length: out[i] is the SHA-256 of
/// what `from` absorbed followed by the `length` bytes at messages[i].
/// `from` must hold whole blocks only (a fresh context, or a keyed HMAC
/// midstate) and `out` one slot per message; each out[i] may be the very
/// bytes messages[i] points at, and may overlap nothing else. Throws
/// std::invalid_argument otherwise.
void sha256_many(std::span<const uint8_t* const> messages, size_t length,
                 std::span<Digest> out, const Sha256& from = Sha256());

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

/// sha256_many with each full group of sixteen messages hashed in lockstep
/// by the 16-lane kernel compiled for the baseline ISA. Far slower than
/// one at a time, but it runs the lane, transpose and padding logic on
/// every CPU.
void sha256_many_x16_portable(std::span<const uint8_t* const> messages,
                              size_t length, std::span<Digest> out,
                              const Sha256& from);

#if defined(__x86_64__)
/// The same 16-lane kernel compiled for AVX-512F: call only when
/// sha256_many_backend() is "avx512-x16".
void sha256_many_x16_avx512(std::span<const uint8_t* const> messages,
                            size_t length, std::span<Digest> out,
                            const Sha256& from);
#endif

/// The path sha256_many takes on this CPU: "avx512-x16" (sixteen messages
/// at a time, a remainder one at a time) or "one-at-a-time".
std::string_view sha256_many_backend();

}  // namespace acctee::crypto

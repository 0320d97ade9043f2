// HMAC-SHA-256 (RFC 2104), used for SGX quote MACs (the quoting enclave and
// the simulated attestation service share platform keys, mirroring how real
// EPID quotes are only verifiable through Intel's attestation service), and
// as the PRF that derives Lamport one-time keys from a seed.
#pragma once

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace acctee::crypto {

/// HMAC-SHA-256 under one key. The key's ipad and opad blocks are absorbed
/// once, at construction, and each mac() starts from copies of those two
/// midstates: a MAC of a message shorter than 56 bytes costs two
/// compressions instead of four.
class HmacSha256 {
 public:
  explicit HmacSha256(BytesView key);

  /// HMAC-SHA-256(key, message).
  Digest mac(BytesView message) const;

  /// out[i] = mac() of the `length` bytes at messages[i], in two
  /// sha256_many passes: the inner hashes from the ipad midstate, then the
  /// outer hashes of the inner digests from the opad midstate. Throws
  /// std::invalid_argument unless `out` has one slot per message.
  void mac_many(std::span<const uint8_t* const> messages, size_t length,
                std::span<Digest> out) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// Computes HMAC-SHA-256(key, message).
Digest hmac_sha256(BytesView key, BytesView message);

/// Verifies a MAC in constant time.
bool hmac_verify(BytesView key, BytesView message, BytesView mac);

/// HKDF-style key derivation: derive a subkey for `label` from a root key.
/// Used to give each simulated platform / enclave its own key material.
Bytes derive_key(BytesView root_key, std::string_view label);

}  // namespace acctee::crypto

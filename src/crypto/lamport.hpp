// Lamport one-time signatures over SHA-256.
//
// AccTEE needs *offline-verifiable* signatures for instrumentation evidence
// and resource-usage logs: either party must be able to check them without
// talking to a service. Lamport OTS is hash-based, so it composes with the
// SHA-256 primitive we already trust for enclave measurements, and requires
// no big-integer arithmetic. Multi-use signing is layered on top via a
// Merkle tree of one-time keys (see signer.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace acctee::crypto {

/// 256 bit positions x 2 values per bit.
constexpr size_t kLamportSlots = 256;

/// A one-time private key: 512 random 32-byte preimages.
struct LamportPrivateKey {
  std::array<std::array<uint8_t, 32>, 2 * kLamportSlots> preimages;
};

/// The matching public key: SHA-256 of each preimage.
struct LamportPublicKey {
  std::array<Digest, 2 * kLamportSlots> hashes;

  /// The slot hashes as one contiguous run of 2 * kLamportSlots * 32
  /// bytes: the serialized key, and what fingerprint() hashes.
  BytesView bytes() const;

  /// Compact commitment to this public key: SHA-256 of bytes().
  Digest fingerprint() const;

  Bytes serialize() const;
  static LamportPublicKey deserialize(BytesView data);
};

/// A signature: one revealed preimage per message-digest bit.
struct LamportSignature {
  std::array<std::array<uint8_t, 32>, kLamportSlots> revealed;

  Bytes serialize() const;
  static LamportSignature deserialize(BytesView data);
};

/// Derives a key pair deterministically from a 32-byte seed. Deterministic
/// derivation keeps experiments reproducible; seeds come from the enclave's
/// sealed key material in the SGX simulation.
struct LamportKeyPair {
  LamportPrivateKey priv;
  LamportPublicKey pub;

  static LamportKeyPair from_seed(BytesView seed);
};

/// Signs the SHA-256 digest of `message`.
LamportSignature lamport_sign(const LamportPrivateKey& priv, BytesView message);

/// Verifies a signature over `message` against `pub`.
bool lamport_verify(const LamportPublicKey& pub, BytesView message,
                    const LamportSignature& sig);

}  // namespace acctee::crypto

// Multi-use hash-based signer: a Merkle tree over N Lamport one-time keys.
//
// The signer's *identity* is the 32-byte Merkle root. Each signature embeds
// the one-time public key, its index, and an inclusion proof, so verifiers
// need only the root. Enclaves in the SGX simulation bind their identity
// root into attestation quotes (sgx/attestation.hpp), giving remote parties
// an offline-verifiable chain: quote -> identity root -> signature.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/lamport.hpp"
#include "crypto/merkle.hpp"

namespace acctee::crypto {

/// A self-contained, offline-verifiable signature.
struct Signature {
  uint32_t key_index = 0;
  LamportPublicKey one_time_key;
  MerkleProof inclusion;
  LamportSignature lamport;

  Bytes serialize() const;
  static Signature deserialize(BytesView data);
};

/// Holds N one-time keys derived from a seed; signs up to N messages.
class Signer {
 public:
  /// Derives `num_keys` one-time keys from `seed`.
  Signer(BytesView seed, uint32_t num_keys);

  /// The public identity (Merkle root over one-time key fingerprints).
  Digest identity() const { return tree_.root(); }

  /// Signs `message` with the next unused one-time key. Throws Error once
  /// all keys are exhausted.
  Signature sign(BytesView message);

  uint32_t keys_remaining() const {
    return static_cast<uint32_t>(keys_.size()) - next_key_;
  }

 private:
  std::vector<LamportKeyPair> keys_;
  MerkleTree tree_;
  uint32_t next_key_ = 0;

  static MerkleTree build_tree(const std::vector<LamportKeyPair>& keys);
};

/// Verifies `sig` over `message` against a signer identity root.
bool signature_verify(const Digest& identity, BytesView message,
                      const Signature& sig);

/// Verifies each *signatures[i] over messages[i] against one identity and
/// returns the verdicts in input order, each what signature_verify would
/// return. The one-time keys' fingerprints are hashed in one sha256_many
/// batch. Throws std::invalid_argument if the two spans differ in size.
std::vector<bool> signature_verify_many(
    const Digest& identity, std::span<const BytesView> messages,
    std::span<const Signature* const> signatures);

}  // namespace acctee::crypto

// Binary Merkle tree with inclusion proofs.
//
// Used to commit to a batch of Lamport one-time public keys under a single
// 32-byte identity (signer.hpp), and available to embedders that want to
// commit to batches of resource logs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace acctee::crypto {

/// An inclusion proof: sibling hashes from leaf to root, plus the leaf index
/// (whose bits select left/right at each level).
struct MerkleProof {
  uint64_t leaf_index = 0;
  std::vector<Digest> siblings;

  Bytes serialize() const;
  static MerkleProof deserialize(BytesView data);
};

/// Merkle tree over pre-hashed leaves. Leaves are domain-separated from
/// interior nodes (0x00 / 0x01 prefixes) to prevent second-preimage attacks.
class MerkleTree {
 public:
  /// Builds a tree over `leaf_data` (each element is hashed as a leaf).
  /// Throws std::invalid_argument if empty.
  explicit MerkleTree(std::span<const Bytes> leaf_data);

  Digest root() const { return levels_.back()[0]; }
  size_t leaf_count() const { return levels_[0].size(); }

  /// Proof for leaf `index`; throws std::out_of_range if invalid.
  MerkleProof prove(uint64_t index) const;

  /// Hashes used for leaves / interior nodes (exposed for verification).
  static Digest hash_leaf(BytesView data);
  static Digest hash_node(const Digest& left, const Digest& right);

 private:
  // levels_[0] = leaf hashes, levels_.back() = {root}. Odd nodes are paired
  // with themselves (Bitcoin-style duplication).
  std::vector<std::vector<Digest>> levels_;
};

/// Verifies that `leaf_data` is included under `root` via `proof`. A
/// leaf_index with a bit set above the proof's depth is rejected. Known
/// limit: a level's last node paired with itself verifies from either side,
/// so with an odd leaf count the last leaf also verifies at its index + 1.
bool merkle_verify(const Digest& root, BytesView leaf_data,
                   const MerkleProof& proof);

}  // namespace acctee::crypto

#include "crypto/merkle.hpp"
#include <algorithm>

#include <stdexcept>

namespace acctee::crypto {

Bytes MerkleProof::serialize() const {
  Bytes out;
  append_u64le(out, leaf_index);
  append_u32le(out, static_cast<uint32_t>(siblings.size()));
  for (const auto& s : siblings) append(out, BytesView(s.data(), s.size()));
  return out;
}

MerkleProof MerkleProof::deserialize(BytesView data) {
  MerkleProof proof;
  proof.leaf_index = read_u64le(data, 0);
  uint32_t n = read_u32le(data, 8);
  if (data.size() != 12 + static_cast<size_t>(n) * 32) {
    throw std::invalid_argument("MerkleProof: bad size");
  }
  proof.siblings.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::copy_n(data.begin() + 12 + i * 32, 32, proof.siblings[i].begin());
  }
  return proof;
}

Digest MerkleTree::hash_leaf(BytesView data) {
  Sha256 ctx;
  uint8_t tag = 0x00;
  ctx.update(BytesView(&tag, 1));
  ctx.update(data);
  return ctx.finish();
}

Digest MerkleTree::hash_node(const Digest& left, const Digest& right) {
  Sha256 ctx;
  uint8_t tag = 0x01;
  ctx.update(BytesView(&tag, 1));
  ctx.update(BytesView(left.data(), left.size()));
  ctx.update(BytesView(right.data(), right.size()));
  return ctx.finish();
}

MerkleTree::MerkleTree(std::span<const Bytes> leaf_data) {
  if (leaf_data.empty()) {
    throw std::invalid_argument("MerkleTree: no leaves");
  }
  std::vector<Digest> level;
  level.reserve(leaf_data.size());
  for (const auto& d : leaf_data) level.push_back(hash_leaf(d));
  levels_.push_back(std::move(level));

  while (levels_.back().size() > 1) {
    const auto& prev = levels_.back();
    std::vector<Digest> next;
    next.reserve((prev.size() + 1) / 2);
    for (size_t i = 0; i < prev.size(); i += 2) {
      const Digest& left = prev[i];
      const Digest& right = (i + 1 < prev.size()) ? prev[i + 1] : prev[i];
      next.push_back(hash_node(left, right));
    }
    levels_.push_back(std::move(next));
  }
}

MerkleProof MerkleTree::prove(uint64_t index) const {
  if (index >= levels_[0].size()) {
    throw std::out_of_range("MerkleTree::prove: bad index");
  }
  MerkleProof proof;
  proof.leaf_index = index;
  uint64_t pos = index;
  for (size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
    const auto& nodes = levels_[lvl];
    uint64_t sibling = pos ^ 1;
    proof.siblings.push_back(sibling < nodes.size() ? nodes[sibling]
                                                    : nodes[pos]);
    pos >>= 1;
  }
  return proof;
}

bool merkle_verify(const Digest& root, BytesView leaf_data,
                   const MerkleProof& proof) {
  // Each sibling consumes one bit of leaf_index; a set bit above them would
  // let one proof verify under several indices.
  if (proof.siblings.size() < 64 &&
      (proof.leaf_index >> proof.siblings.size()) != 0) {
    return false;
  }
  Digest h = MerkleTree::hash_leaf(leaf_data);
  uint64_t pos = proof.leaf_index;
  for (const auto& sibling : proof.siblings) {
    h = (pos & 1) ? MerkleTree::hash_node(sibling, h)
                  : MerkleTree::hash_node(h, sibling);
    pos >>= 1;
  }
  return h == root;
}

}  // namespace acctee::crypto

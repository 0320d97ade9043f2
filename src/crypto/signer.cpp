#include "crypto/signer.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/error.hpp"
#include "crypto/hmac.hpp"

namespace acctee::crypto {

Bytes Signature::serialize() const {
  Bytes out;
  append_u32le(out, key_index);
  Bytes pub = one_time_key.serialize();
  append_u32le(out, static_cast<uint32_t>(pub.size()));
  append(out, pub);
  Bytes proof = inclusion.serialize();
  append_u32le(out, static_cast<uint32_t>(proof.size()));
  append(out, proof);
  Bytes sig = lamport.serialize();
  append_u32le(out, static_cast<uint32_t>(sig.size()));
  append(out, sig);
  return out;
}

Signature Signature::deserialize(BytesView data) {
  Signature out;
  size_t off = 0;
  out.key_index = read_u32le(data, off);
  off += 4;
  auto take = [&](const char* what) {
    uint32_t len = read_u32le(data, off);
    off += 4;
    if (off + len > data.size()) {
      throw std::invalid_argument(std::string("Signature: truncated ") + what);
    }
    BytesView view = data.subspan(off, len);
    off += len;
    return view;
  };
  out.one_time_key = LamportPublicKey::deserialize(take("public key"));
  out.inclusion = MerkleProof::deserialize(take("proof"));
  out.lamport = LamportSignature::deserialize(take("lamport"));
  if (off != data.size()) {
    throw std::invalid_argument("Signature: trailing bytes");
  }
  return out;
}

namespace {

std::vector<LamportKeyPair> derive_keys(BytesView seed, uint32_t num_keys) {
  if (num_keys == 0) throw Error("Signer: num_keys must be > 0");
  HmacSha256 prf(seed);
  // Key seed_i = HMAC(seed, "signer-key" || u32le(i)).
  constexpr std::string_view kPrefix = "signer-key";
  std::array<uint8_t, kPrefix.size() + 4> label{};
  std::copy(kPrefix.begin(), kPrefix.end(), label.begin());
  std::vector<LamportKeyPair> keys;
  keys.reserve(num_keys);
  for (uint32_t i = 0; i < num_keys; ++i) {
    for (size_t b = 0; b < 4; ++b) {
      label[kPrefix.size() + b] = static_cast<uint8_t>(i >> (8 * b));
    }
    Digest key_seed = prf.mac(BytesView(label.data(), label.size()));
    keys.push_back(LamportKeyPair::from_seed(BytesView(key_seed.data(), 32)));
  }
  return keys;
}

// The one-time keys' fingerprints (LamportPublicKey::fingerprint), as one
// batch.
std::vector<Digest> fingerprints(std::span<const LamportPublicKey* const> keys) {
  std::vector<const uint8_t*> messages(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    messages[i] = keys[i]->bytes().data();
  }
  std::vector<Digest> out(keys.size());
  sha256_many(messages, sizeof(LamportPublicKey::hashes), out);
  return out;
}

}  // namespace

MerkleTree Signer::build_tree(const std::vector<LamportKeyPair>& keys) {
  std::vector<const LamportPublicKey*> pubs;
  pubs.reserve(keys.size());
  for (const auto& kp : keys) pubs.push_back(&kp.pub);
  std::vector<Bytes> leaves;
  leaves.reserve(keys.size());
  for (const Digest& fp : fingerprints(pubs)) leaves.push_back(digest_bytes(fp));
  return MerkleTree(leaves);
}

Signer::Signer(BytesView seed, uint32_t num_keys)
    : keys_(derive_keys(seed, num_keys)), tree_(build_tree(keys_)) {}

Signature Signer::sign(BytesView message) {
  if (next_key_ >= keys_.size()) {
    throw Error("Signer: one-time keys exhausted");
  }
  uint32_t idx = next_key_++;
  Signature sig;
  sig.key_index = idx;
  sig.one_time_key = keys_[idx].pub;
  sig.inclusion = tree_.prove(idx);
  sig.lamport = lamport_sign(keys_[idx].priv, message);
  return sig;
}

bool signature_verify(const Digest& identity, BytesView message,
                      const Signature& sig) {
  const Signature* one = &sig;
  return signature_verify_many(identity, {&message, 1}, {&one, 1})[0];
}

std::vector<bool> signature_verify_many(
    const Digest& identity, std::span<const BytesView> messages,
    std::span<const Signature* const> signatures) {
  if (messages.size() != signatures.size()) {
    throw std::invalid_argument(
        "signature_verify_many: one signature per message");
  }
  std::vector<const LamportPublicKey*> keys(signatures.size());
  for (size_t i = 0; i < signatures.size(); ++i) {
    keys[i] = &signatures[i]->one_time_key;
  }
  std::vector<Digest> fps = fingerprints(keys);
  std::vector<bool> ok(signatures.size());
  for (size_t i = 0; i < signatures.size(); ++i) {
    const Signature& sig = *signatures[i];
    ok[i] = sig.inclusion.leaf_index == sig.key_index &&
            merkle_verify(identity, BytesView(fps[i].data(), fps[i].size()),
                          sig.inclusion) &&
            lamport_verify(sig.one_time_key, messages[i], sig.lamport);
  }
  return ok;
}

}  // namespace acctee::crypto

#include "crypto/lamport.hpp"
#include <algorithm>

#include <stdexcept>

#include "crypto/hmac.hpp"

namespace acctee::crypto {

BytesView LamportPublicKey::bytes() const {
  static_assert(sizeof(hashes) == 2 * kLamportSlots * 32,
                "the slot hashes are one contiguous array");
  return BytesView(hashes[0].data(), sizeof(hashes));
}

Digest LamportPublicKey::fingerprint() const { return sha256(bytes()); }

Bytes LamportPublicKey::serialize() const {
  return Bytes(bytes().begin(), bytes().end());
}

LamportPublicKey LamportPublicKey::deserialize(BytesView data) {
  if (data.size() != 2 * kLamportSlots * 32) {
    throw std::invalid_argument("LamportPublicKey: bad size");
  }
  LamportPublicKey pub;
  for (size_t i = 0; i < 2 * kLamportSlots; ++i) {
    std::copy_n(data.begin() + i * 32, 32, pub.hashes[i].begin());
  }
  return pub;
}

Bytes LamportSignature::serialize() const {
  Bytes out;
  out.reserve(kLamportSlots * 32);
  for (const auto& r : revealed) append(out, BytesView(r.data(), r.size()));
  return out;
}

LamportSignature LamportSignature::deserialize(BytesView data) {
  if (data.size() != kLamportSlots * 32) {
    throw std::invalid_argument("LamportSignature: bad size");
  }
  LamportSignature sig;
  for (size_t i = 0; i < kLamportSlots; ++i) {
    std::copy_n(data.begin() + i * 32, 32, sig.revealed[i].begin());
  }
  return sig;
}

LamportKeyPair LamportKeyPair::from_seed(BytesView seed) {
  // Preimage_i = HMAC(seed, "lamport-slot" || u32le(i)), and its public
  // hash: two batches of 512 independent equal-length hashes.
  constexpr std::string_view kPrefix = "lamport-slot";
  constexpr size_t kKeys = 2 * kLamportSlots;
  std::array<std::array<uint8_t, kPrefix.size() + 4>, kKeys> labels{};
  std::array<const uint8_t*, kKeys> messages{};
  for (size_t i = 0; i < kKeys; ++i) {
    std::copy(kPrefix.begin(), kPrefix.end(), labels[i].begin());
    for (size_t b = 0; b < 4; ++b) {
      labels[i][kPrefix.size() + b] = static_cast<uint8_t>(i >> (8 * b));
    }
    messages[i] = labels[i].data();
  }
  LamportKeyPair kp;
  HmacSha256(seed).mac_many(messages, labels[0].size(), kp.priv.preimages);
  for (size_t i = 0; i < kKeys; ++i) {
    messages[i] = kp.priv.preimages[i].data();
  }
  sha256_many(messages, sizeof(Digest), kp.pub.hashes);
  return kp;
}

LamportSignature lamport_sign(const LamportPrivateKey& priv, BytesView message) {
  Digest md = sha256(message);
  LamportSignature sig;
  for (size_t bit = 0; bit < kLamportSlots; ++bit) {
    int value = (md[bit / 8] >> (7 - bit % 8)) & 1;
    sig.revealed[bit] = priv.preimages[2 * bit + value];
  }
  return sig;
}

bool lamport_verify(const LamportPublicKey& pub, BytesView message,
                    const LamportSignature& sig) {
  std::array<const uint8_t*, kLamportSlots> revealed{};
  for (size_t bit = 0; bit < kLamportSlots; ++bit) {
    revealed[bit] = sig.revealed[bit].data();
  }
  std::array<Digest, kLamportSlots> hashes{};
  sha256_many(revealed, sizeof(Digest), hashes);
  Digest md = sha256(message);
  bool ok = true;
  for (size_t bit = 0; bit < kLamportSlots; ++bit) {
    int value = (md[bit / 8] >> (7 - bit % 8)) & 1;
    ok &= hashes[bit] == pub.hashes[2 * bit + value];
  }
  return ok;
}

}  // namespace acctee::crypto

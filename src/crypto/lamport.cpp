#include "crypto/lamport.hpp"
#include <algorithm>

#include <stdexcept>

#include "crypto/hmac.hpp"

namespace acctee::crypto {

Digest LamportPublicKey::fingerprint() const {
  Sha256 ctx;
  for (const auto& h : hashes) ctx.update(BytesView(h.data(), h.size()));
  return ctx.finish();
}

Bytes LamportPublicKey::serialize() const {
  Bytes out;
  out.reserve(2 * kLamportSlots * 32);
  for (const auto& h : hashes) append(out, BytesView(h.data(), h.size()));
  return out;
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
  LamportKeyPair kp;
  HmacSha256 prf(seed);
  // Preimage_i = HMAC(seed, "lamport-slot" || u32le(i)): one PRF call per
  // slot.
  constexpr std::string_view kPrefix = "lamport-slot";
  std::array<uint8_t, kPrefix.size() + 4> label{};
  std::copy(kPrefix.begin(), kPrefix.end(), label.begin());
  for (size_t i = 0; i < 2 * kLamportSlots; ++i) {
    for (size_t b = 0; b < 4; ++b) {
      label[kPrefix.size() + b] = static_cast<uint8_t>(i >> (8 * b));
    }
    Digest pre = prf.mac(BytesView(label.data(), label.size()));
    std::copy(pre.begin(), pre.end(), kp.priv.preimages[i].begin());
    kp.pub.hashes[i] = sha256(BytesView(pre.data(), pre.size()));
  }
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
  Digest md = sha256(message);
  for (size_t bit = 0; bit < kLamportSlots; ++bit) {
    int value = (md[bit / 8] >> (7 - bit % 8)) & 1;
    Digest h = sha256(BytesView(sig.revealed[bit].data(), 32));
    if (h != pub.hashes[2 * bit + value]) return false;
  }
  return true;
}

}  // namespace acctee::crypto

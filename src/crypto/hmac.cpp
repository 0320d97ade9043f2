#include "crypto/hmac.hpp"

#include <algorithm>
#include <vector>

namespace acctee::crypto {

HmacSha256::HmacSha256(BytesView key) {
  constexpr size_t kBlock = 64;
  std::array<uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    Digest kd = sha256(key);
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<uint8_t, kBlock> ipad{}, opad{};
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.update(BytesView(ipad.data(), ipad.size()));
  outer_.update(BytesView(opad.data(), opad.size()));
}

Digest HmacSha256::mac(BytesView message) const {
  Sha256 inner = inner_;
  inner.update(message);
  Digest inner_digest = inner.finish();

  Sha256 outer = outer_;
  outer.update(BytesView(inner_digest.data(), inner_digest.size()));
  return outer.finish();
}

void HmacSha256::mac_many(std::span<const uint8_t* const> messages,
                          size_t length, std::span<Digest> out) const {
  sha256_many(messages, length, out, inner_);
  // Each inner digest is hashed in place into its MAC.
  std::vector<const uint8_t*> inner_digests(out.size());
  for (size_t i = 0; i < out.size(); ++i) inner_digests[i] = out[i].data();
  sha256_many(inner_digests, sizeof(Digest), out, outer_);
}

Digest hmac_sha256(BytesView key, BytesView message) {
  return HmacSha256(key).mac(message);
}

bool hmac_verify(BytesView key, BytesView message, BytesView mac) {
  Digest expected = hmac_sha256(key, message);
  return ct_equal(BytesView(expected.data(), expected.size()), mac);
}

Bytes derive_key(BytesView root_key, std::string_view label) {
  Digest d = hmac_sha256(root_key, to_bytes(label));
  return digest_bytes(d);
}

}  // namespace acctee::crypto

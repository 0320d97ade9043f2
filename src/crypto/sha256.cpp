#include "crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace acctee::crypto {

namespace {

constexpr std::array<uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<uint32_t, 8> kInit = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                           0xa54ff53a, 0x510e527f, 0x9b05688c,
                                           0x1f83d9ab, 0x5be0cd19};

uint32_t rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)

// Compiled for the SHA extensions without raising the baseline of any other
// code; only called after cpu_has_sha_ni() said yes.
#define ACCTEE_SHA_NI_TARGET __attribute__((target("sha,ssse3,sse4.1")))

bool cpu_has_sha_ni() {
  constexpr unsigned kSsse3 = 1u << 9;   // CPUID.1:ECX
  constexpr unsigned kSse41 = 1u << 19;  // CPUID.1:ECX
  constexpr unsigned kSha = 1u << 29;    // CPUID.(EAX=7,ECX=0):EBX
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & kSsse3) == 0 || (ecx & kSse41) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & kSha) != 0;
}

// Message words W[4g..4g+3] from the four previous groups.
ACCTEE_SHA_NI_TARGET __m128i schedule(__m128i w0, __m128i w1, __m128i w2,
                                      __m128i w3) {
  __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                            _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

// Rounds 4g..4g+3. The state lives as (ABEF, CDGH), the layout
// sha256rnds2 works on.
ACCTEE_SHA_NI_TARGET void four_rounds(__m128i& abef, __m128i& cdgh, __m128i w,
                                      size_t g) {
  __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g]));
  __m128i wk = _mm_add_epi32(w, k);
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

ACCTEE_SHA_NI_TARGET __m128i load_be(const uint8_t* p) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
                          kByteSwap);
}

#endif  // __x86_64__

using CompressFn = void (*)(Sha256State&, const uint8_t*, size_t);

struct Backend {
  CompressFn compress;
  std::string_view name;
};

// Chosen once, on first use; a function-local static is initialised
// thread-safely and independently of static-initialisation order.
const Backend& backend() {
  static const Backend chosen = [] {
#if defined(__x86_64__)
    if (cpu_has_sha_ni()) return Backend{sha256_compress_sha_ni, "sha-ni"};
#endif
    return Backend{sha256_compress_portable, "portable"};
  }();
  return chosen;
}

}  // namespace

void sha256_compress_portable(Sha256State& state, const uint8_t* blocks,
                              size_t nblocks) {
  for (size_t n = 0; n < nblocks; ++n) {
    const uint8_t* block = blocks + 64 * n;
    uint32_t w[64];
    for (size_t i = 0; i < 16; ++i) {
      w[i] = static_cast<uint32_t>(block[4 * i]) << 24 |
             static_cast<uint32_t>(block[4 * i + 1]) << 16 |
             static_cast<uint32_t>(block[4 * i + 2]) << 8 |
             static_cast<uint32_t>(block[4 * i + 3]);
    }
    for (size_t i = 16; i < 64; ++i) {
      uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (size_t i = 0; i < 64; ++i) {
      uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
ACCTEE_SHA_NI_TARGET void sha256_compress_sha_ni(Sha256State& state,
                                                 const uint8_t* blocks,
                                                 size_t nblocks) {
  // (A,B,C,D), (E,F,G,H) -> (A,B,E,F), (C,D,G,H), high word first.
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (size_t n = 0; n < nblocks; ++n) {
    const uint8_t* block = blocks + 64 * n;
    __m128i abef_in = abef;
    __m128i cdgh_in = cdgh;
    __m128i w0 = load_be(block);
    __m128i w1 = load_be(block + 16);
    __m128i w2 = load_be(block + 32);
    __m128i w3 = load_be(block + 48);
    four_rounds(abef, cdgh, w0, 0);
    four_rounds(abef, cdgh, w1, 1);
    four_rounds(abef, cdgh, w2, 2);
    four_rounds(abef, cdgh, w3, 3);
    for (size_t g = 4; g < 16; g += 4) {
      w0 = schedule(w0, w1, w2, w3);
      four_rounds(abef, cdgh, w0, g);
      w1 = schedule(w1, w2, w3, w0);
      four_rounds(abef, cdgh, w1, g + 1);
      w2 = schedule(w2, w3, w0, w1);
      four_rounds(abef, cdgh, w2, g + 2);
      w3 = schedule(w3, w0, w1, w2);
      four_rounds(abef, cdgh, w3, g + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), hgfe);
}
#endif  // __x86_64__

std::string_view sha256_backend() { return backend().name; }

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = kInit;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(BytesView data) {
  total_len_ += data.size();
  CompressFn compress = backend().compress;
  size_t pos = 0;
  if (buffer_len_ > 0) {
    size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    pos += take;
    if (buffer_len_ == buffer_.size()) {
      compress(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  size_t whole = (data.size() - pos) / 64;
  if (whole > 0) {
    compress(state_, data.data() + pos, whole);
    pos += 64 * whole;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
    buffer_len_ = data.size() - pos;
  }
}

Digest Sha256::finish() {
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad[72];
  size_t pad_len = (buffer_len_ < 56) ? 56 - buffer_len_ : 120 - buffer_len_;
  std::memset(pad, 0, sizeof(pad));
  pad[0] = 0x80;
  for (int i = 0; i < 8; ++i) {
    pad[pad_len + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(BytesView(pad, pad_len + 8));

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

void Sha256Writer::bytes(BytesView data) {
  if (data.empty()) return;
  if (data.size() > kChunk - len_) {
    flush();
    if (data.size() >= kChunk) {
      ctx_.update(data);
      return;
    }
  }
  std::memcpy(buf_.data() + len_, data.data(), data.size());
  len_ += data.size();
}

void Sha256Writer::flush() {
  ctx_.update(BytesView(buf_.data(), len_));
  len_ = 0;
}

Digest Sha256Writer::finish() {
  flush();
  return ctx_.finish();
}

Digest sha256(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Bytes digest_bytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

std::string digest_hex(const Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

}  // namespace acctee::crypto

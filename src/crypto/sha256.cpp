#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

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

// AVX-512F, on an OS that saves the opmask and ZMM registers.
bool cpu_has_avx512f() {
  constexpr unsigned kOsxsave = 1u << 27;  // CPUID.1:ECX
  constexpr unsigned kAvx512f = 1u << 16;  // CPUID.(EAX=7,ECX=0):EBX
  // XCR0: SSE, AVX, opmask, upper halves of ZMM0-15, ZMM16-31.
  constexpr unsigned kZmmState =
      (1u << 1) | (1u << 2) | (1u << 5) | (1u << 6) | (1u << 7);
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & kOsxsave) == 0) return false;
  unsigned xcr0 = 0, xcr0_high = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
  if ((xcr0 & kZmmState) != kZmmState) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & kAvx512f) != 0;
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

uint32_t load_be32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 | static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
}

void store_be32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

// Writes in place: a digest built on the stack and then copied would be
// read back by a wide load its narrow stores cannot forward to.
void store_digest(const Sha256State& state, Digest& out) {
  for (size_t i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state[i]);
}

// The last one or two blocks of a `total`-byte message whose partial block
// holds `rem` bytes: the 0x80 marker, zeros and the bit length, with the
// first `rem` bytes left for the message. Returns the block count.
using Tail = std::array<uint8_t, 128>;
size_t pad_tail(Tail& tail, size_t rem, uint64_t total) {
  tail.fill(0);
  tail[rem] = 0x80;
  size_t blocks = rem < 56 ? 1 : 2;
  uint64_t bits = total * 8;
  for (size_t i = 0; i < 8; ++i) {
    tail[64 * blocks - 8 + i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
  }
  return blocks;
}

// ---- Sixteen messages in lockstep ----------------------------------------

constexpr size_t kLanes = 16;
using LaneBlocks = std::array<const uint8_t*, kLanes>;

// Sixteen messages of one sha256_many call, hashed in lockstep: each lane
// starts from *start, absorbs `whole` blocks at blocks[lane] and then
// `tail_blocks` at tails[lane], and its digest goes to out[lane].
struct LaneGroup {
  const Sha256State* start;
  LaneBlocks blocks;
  size_t whole;
  LaneBlocks tails;
  size_t tail_blocks;
  Digest* out;
};

// One 32-bit word of each of the sixteen messages.
using Lanes = uint32_t __attribute__((vector_size(4 * kLanes)));

// A lane-wise rotate. A macro, not a function: a vector passed or returned
// by value across a call changes ABI with the target (GCC's -Wpsabi).
#define ACCTEE_ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

// Plain operators on the vector type, which GCC turns into vprord and
// vpternlogd under AVX-512F: each wrapper below compiles this body for its
// own target. Vector k of the state holds word k of every lane, and the
// message words are transposed into vectors with scalar loads.
[[gnu::always_inline]] inline void hash_lanes(const LaneGroup& group) {
  Lanes s[8];
  for (size_t k = 0; k < 8; ++k) s[k] = Lanes{} + (*group.start)[k];
  for (size_t n = 0; n < group.whole + group.tail_blocks; ++n) {
    const LaneBlocks& src = n < group.whole ? group.blocks : group.tails;
    size_t offset = 64 * (n < group.whole ? n : n - group.whole);
    Lanes w[16];
    for (size_t t = 0; t < 16; ++t) {
      alignas(sizeof(Lanes)) uint32_t word[kLanes];
      for (size_t lane = 0; lane < kLanes; ++lane) {
        word[lane] = load_be32(src[lane] + offset + 4 * t);
      }
      std::memcpy(&w[t], word, sizeof(Lanes));
    }
    Lanes a = s[0], b = s[1], c = s[2], d = s[3];
    Lanes e = s[4], f = s[5], g = s[6], h = s[7];
#if defined(__clang__)
#pragma unroll
#else
#pragma GCC unroll 64
#endif
    for (size_t i = 0; i < 64; ++i) {
      if (i >= 16) {
        const Lanes w15 = w[(i - 15) % 16];
        const Lanes w2 = w[(i - 2) % 16];
        w[i % 16] +=
            (ACCTEE_ROTR(w15, 7) ^ ACCTEE_ROTR(w15, 18) ^ (w15 >> 3)) +
            w[(i - 7) % 16] +
            (ACCTEE_ROTR(w2, 17) ^ ACCTEE_ROTR(w2, 19) ^ (w2 >> 10));
      }
      Lanes t1 = h + (ACCTEE_ROTR(e, 6) ^ ACCTEE_ROTR(e, 11) ^
                      ACCTEE_ROTR(e, 25)) +
                 ((e & f) ^ (~e & g)) + kK[i] + w[i % 16];
      Lanes t2 = (ACCTEE_ROTR(a, 2) ^ ACCTEE_ROTR(a, 13) ^
                  ACCTEE_ROTR(a, 22)) +
                 ((a & b) ^ (a & c) ^ (b & c));
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    s[0] += a;
    s[1] += b;
    s[2] += c;
    s[3] += d;
    s[4] += e;
    s[5] += f;
    s[6] += g;
    s[7] += h;
  }
  for (size_t k = 0; k < 8; ++k) {
    alignas(sizeof(Lanes)) uint32_t word[kLanes];
    std::memcpy(word, &s[k], sizeof(Lanes));
    for (size_t lane = 0; lane < kLanes; ++lane) {
      store_be32(group.out[lane].data() + 4 * k, word[lane]);
    }
  }
}

#undef ACCTEE_ROTR

using HashLanesFn = void (*)(const LaneGroup&);

void hash_lanes_baseline(const LaneGroup& group) { hash_lanes(group); }

#if defined(__x86_64__)
// Compiled for AVX-512F without raising the baseline of any other code;
// only called after cpu_has_avx512f() said yes.
__attribute__((target("avx512f"))) void hash_lanes_avx512(
    const LaneGroup& group) {
  hash_lanes(group);
}
#endif

struct ManyBackend {
  HashLanesFn lanes;  // null: every message one at a time
  std::string_view name;
};

// Chosen once, on first use, like backend().
const ManyBackend& many_backend() {
  static const ManyBackend chosen = [] {
#if defined(__x86_64__)
    if (cpu_has_avx512f()) return ManyBackend{hash_lanes_avx512, "avx512-x16"};
#endif
    return ManyBackend{nullptr, "one-at-a-time"};
  }();
  return chosen;
}

}  // namespace

// One sha256_many call: the midstate every message continues from and the
// block layout all its messages share.
struct MultiMessage {
  Sha256State start;
  size_t whole;  // whole blocks per message
  size_t rem;    // bytes in the partial block
  Tail tail;     // padded tail, its first `rem` bytes left for the message
  size_t tail_blocks;

  MultiMessage(const Sha256& from, std::span<const uint8_t* const> messages,
               size_t length, std::span<Digest> out)
      : start(from.state_), whole(length / 64), rem(length % 64) {
    if (from.buffer_len_ != 0) {
      throw std::invalid_argument("sha256_many: midstate holds a partial block");
    }
    if (out.size() != messages.size()) {
      throw std::invalid_argument("sha256_many: one digest slot per message");
    }
    tail_blocks = pad_tail(tail, rem, from.total_len_ + length);
  }

  // Every message's blocks go straight to the compression function.
  void one_at_a_time(std::span<const uint8_t* const> messages,
                     std::span<Digest> out) const {
    CompressFn compress = backend().compress;
    Tail padded = tail;
    for (size_t i = 0; i < messages.size(); ++i) {
      Sha256State state = start;
      if (whole > 0) compress(state, messages[i], whole);
      if (rem > 0) std::memcpy(padded.data(), messages[i] + 64 * whole, rem);
      compress(state, padded.data(), tail_blocks);
      store_digest(state, out[i]);
    }
  }

  // Full groups of sixteen through `lanes`, the remainder one at a time.
  void sixteen_at_a_time(HashLanesFn lanes,
                         std::span<const uint8_t* const> messages,
                         std::span<Digest> out) const {
    size_t grouped = messages.size() - messages.size() % kLanes;
    // Each lane's tail keeps its padding; only the message bytes change.
    std::array<Tail, kLanes> padded;
    padded.fill(tail);
    LaneGroup group{&start, {}, whole, {}, tail_blocks, nullptr};
    for (size_t lane = 0; lane < kLanes; ++lane) {
      group.tails[lane] = padded[lane].data();
    }
    for (size_t first = 0; first < grouped; first += kLanes) {
      for (size_t lane = 0; lane < kLanes; ++lane) {
        group.blocks[lane] = messages[first + lane];
        if (rem > 0) {
          std::memcpy(padded[lane].data(), group.blocks[lane] + 64 * whole,
                      rem);
        }
      }
      group.out = out.data() + first;
      lanes(group);
    }
    one_at_a_time(messages.subspan(grouped), out.subspan(grouped));
  }
};

void sha256_compress_portable(Sha256State& state, const uint8_t* blocks,
                              size_t nblocks) {
  for (size_t n = 0; n < nblocks; ++n) {
    const uint8_t* block = blocks + 64 * n;
    uint32_t w[64];
    for (size_t i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
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

std::string_view sha256_many_backend() { return many_backend().name; }

void sha256_many(std::span<const uint8_t* const> messages, size_t length,
                 std::span<Digest> out, const Sha256& from) {
  MultiMessage batch(from, messages, length, out);
  if (HashLanesFn lanes = many_backend().lanes) {
    batch.sixteen_at_a_time(lanes, messages, out);
  } else {
    batch.one_at_a_time(messages, out);
  }
}

void sha256_many_x16_portable(std::span<const uint8_t* const> messages,
                              size_t length, std::span<Digest> out,
                              const Sha256& from) {
  MultiMessage(from, messages, length, out)
      .sixteen_at_a_time(hash_lanes_baseline, messages, out);
}

#if defined(__x86_64__)
void sha256_many_x16_avx512(std::span<const uint8_t* const> messages,
                            size_t length, std::span<Digest> out,
                            const Sha256& from) {
  MultiMessage(from, messages, length, out)
      .sixteen_at_a_time(hash_lanes_avx512, messages, out);
}
#endif

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
  Tail tail;
  size_t blocks = pad_tail(tail, buffer_len_, total_len_);
  std::memcpy(tail.data(), buffer_.data(), buffer_len_);
  backend().compress(state_, tail.data(), blocks);
  Digest out;
  store_digest(state_, out);
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

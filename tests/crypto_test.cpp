// Unit tests for src/crypto: SHA-256/HMAC against published test vectors,
// the hardware SHA-256 compression and the multi-message paths against the
// portable one, Lamport one-time signatures, Merkle trees, and the
// multi-use Signer.
#include <gtest/gtest.h>

#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "crypto/hmac.hpp"
#include "crypto/lamport.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"

namespace acctee::crypto {
namespace {

// SHA-256 with its own padding over the portable compression function: the
// reference Sha256's buffering and the hardware compression are checked
// against.
Digest portable_sha256(BytesView data) {
  Sha256State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded(data.begin(), data.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  sha256_compress_portable(state, padded.data(), padded.size() / 64);
  Digest out;
  for (size_t i = 0; i < 8; ++i) {
    for (size_t b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return out;
}

TEST(Sha256, NistVectors) {
  // FIPS 180-4 examples.
  EXPECT_EQ(digest_hex(sha256(to_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_hex(sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      digest_hex(sha256(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 ctx;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(to_bytes(chunk));
  EXPECT_EQ(digest_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes data = Xoshiro256(5).next_bytes(1000);
  for (size_t split : {0ul, 1ul, 63ul, 64ul, 65ul, 999ul, 1000ul}) {
    Sha256 ctx;
    ctx.update(BytesView(data).subspan(0, split));
    ctx.update(BytesView(data).subspan(split));
    EXPECT_EQ(ctx.finish(), sha256(data)) << "split=" << split;
  }
}

TEST(Sha256, ShaNiCompressMatchesPortable) {
  if (sha256_backend() == "portable") {
    GTEST_SKIP() << "this CPU has no SHA extensions";
  }
#if defined(__x86_64__)
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 32; ++trial) {
    for (size_t nblocks = 1; nblocks <= 8; ++nblocks) {
      Sha256State start;
      for (uint32_t& word : start) word = static_cast<uint32_t>(rng.next());
      Bytes blocks = rng.next_bytes(64 * nblocks);
      Sha256State hw = start;
      Sha256State sw = start;
      sha256_compress_sha_ni(hw, blocks.data(), nblocks);
      sha256_compress_portable(sw, blocks.data(), nblocks);
      EXPECT_EQ(hw, sw) << "trial=" << trial << " nblocks=" << nblocks;
    }
  }
#endif
}

TEST(Sha256, EveryLengthMatchesPortable) {
  Bytes data = Xoshiro256(6).next_bytes(1100);
  for (size_t len = 0; len <= data.size(); ++len) {
    BytesView prefix = BytesView(data).subspan(0, len);
    ASSERT_EQ(sha256(prefix), portable_sha256(prefix)) << "len=" << len;
  }
}

TEST(Sha256, OddChunkUpdatesMatchPortable) {
  Bytes data = Xoshiro256(8).next_bytes(1100);
  Digest expected = portable_sha256(data);
  for (size_t chunk : {1ul, 3ul, 7ul, 13ul, 55ul, 63ul, 65ul, 127ul, 129ul,
                       191ul}) {
    Sha256 ctx;
    for (size_t pos = 0; pos < data.size(); pos += chunk) {
      ctx.update(BytesView(data).subspan(pos, std::min(chunk,
                                                       data.size() - pos)));
    }
    EXPECT_EQ(ctx.finish(), expected) << "chunk=" << chunk;
  }
}

TEST(Sha256Concurrent, FirstUseFromManyThreads) {
  // Nothing in this process has hashed before (ctest runs each test in its
  // own process), so the threads race on the one-time backend pick.
  constexpr size_t kThreads = 8;
  Bytes data = Xoshiro256(9).next_bytes(300);
  std::vector<Digest> digests(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      digests[t] = sha256(data);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Digest& d : digests) EXPECT_EQ(d, digests[0]);
  EXPECT_EQ(digests[0], portable_sha256(data));
}

// ---- Multi-message SHA-256 ------------------------------------------------

using ManyFn = void (*)(std::span<const uint8_t* const>, size_t,
                        std::span<Digest>, const Sha256&);

// `count` messages of `length` bytes, laid end to end in one random buffer.
std::vector<const uint8_t*> lay_out(const Bytes& data, size_t count,
                                    size_t length) {
  std::vector<const uint8_t*> messages(count);
  for (size_t i = 0; i < count; ++i) messages[i] = data.data() + i * length;
  return messages;
}

// Counts that fill no lane group, part of one, exactly one, one plus a
// remainder, and many; lengths 0-130 cover one- and two-block tails at
// every offset, 16,384 is a one-time public key.
constexpr size_t kManyCounts[] = {0, 1, 15, 16, 17, 33, 512};

std::vector<size_t> many_lengths() {
  std::vector<size_t> lengths;
  for (size_t length = 0; length <= 130; ++length) lengths.push_back(length);
  lengths.push_back(16384);
  return lengths;
}

// Every digest `many` produces from a fresh context equals portable_sha256
// of the same message.
void expect_many_matches_portable(ManyFn many) {
  Bytes data = Xoshiro256(21).next_bytes(512 * 16384);
  for (size_t length : many_lengths()) {
    for (size_t count : kManyCounts) {
      std::vector<const uint8_t*> messages = lay_out(data, count, length);
      std::vector<Digest> out(count);
      many(messages, length, out, Sha256());
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], portable_sha256(BytesView(messages[i], length)))
            << "length=" << length << " count=" << count << " i=" << i;
      }
    }
  }
}

// From a midstate that absorbed one or two blocks, each digest equals the
// portable one of prefix || message, and out[i] may be messages[i] itself.
void expect_many_continues_from_midstate(ManyFn many) {
  Bytes data = Xoshiro256(22).next_bytes(40 * 130);
  for (size_t prefix_len : {64ul, 128ul}) {
    Bytes prefix = Xoshiro256(prefix_len).next_bytes(prefix_len);
    Sha256 from;
    from.update(prefix);
    for (size_t length : {0ul, 14ul, 16ul, 32ul, 55ul, 56ul, 64ul, 130ul}) {
      for (size_t count : {1ul, 16ul, 17ul, 33ul}) {
        std::vector<const uint8_t*> messages = lay_out(data, count, length);
        std::vector<Digest> out(count);
        many(messages, length, out, from);
        for (size_t i = 0; i < count; ++i) {
          Bytes whole = prefix;
          whole.insert(whole.end(), messages[i], messages[i] + length);
          ASSERT_EQ(out[i], portable_sha256(whole))
              << "prefix=" << prefix_len << " length=" << length
              << " count=" << count << " i=" << i;
        }
      }
    }
  }
  // In place: 32-byte messages hashed over themselves.
  std::vector<Digest> digests(33);
  std::vector<Digest> expected(digests.size());
  std::vector<const uint8_t*> messages(digests.size());
  for (size_t i = 0; i < digests.size(); ++i) {
    digests[i] = sha256(to_bytes("message " + std::to_string(i)));
    expected[i] = portable_sha256(digests[i]);
    messages[i] = digests[i].data();
  }
  many(messages, sizeof(Digest), digests, Sha256());
  EXPECT_EQ(digests, expected);
}

TEST(Sha256Many, MatchesPortableAtEveryLengthAndCount) {
  expect_many_matches_portable(sha256_many);
  expect_many_continues_from_midstate(sha256_many);
}

TEST(Sha256Many, PortableLanesMatchPortable) {
  // The 16-lane body compiled for the baseline ISA, so every CPU checks
  // the lane, transpose and padding logic.
  expect_many_matches_portable(sha256_many_x16_portable);
  expect_many_continues_from_midstate(sha256_many_x16_portable);
}

TEST(Sha256Many, Avx512LanesMatchPortable) {
  if (sha256_many_backend() != "avx512-x16") {
    GTEST_SKIP() << "this CPU has no AVX-512F";
  }
#if defined(__x86_64__)
  expect_many_matches_portable(sha256_many_x16_avx512);
  expect_many_continues_from_midstate(sha256_many_x16_avx512);
#endif
}

TEST(Sha256Many, RejectsPartialMidstateAndMismatchedOutput) {
  Bytes data(64, 0x5a);
  std::vector<const uint8_t*> messages = lay_out(data, 2, 32);
  std::vector<Digest> out(2);
  Sha256 partial;
  partial.update(BytesView(data).subspan(0, 10));
  EXPECT_THROW(sha256_many(messages, 32, out, partial), std::invalid_argument);
  std::vector<Digest> short_out(1);
  EXPECT_THROW(sha256_many(messages, 32, short_out), std::invalid_argument);
  EXPECT_THROW(sha256_many_x16_portable(messages, 32, short_out, Sha256()),
               std::invalid_argument);
}

TEST(Sha256Concurrent, ManyFirstUseFromManyThreads) {
  // As FirstUseFromManyThreads, for the multi-message pick: each thread's
  // first hash is a sha256_many call wide enough to reach the lanes.
  constexpr size_t kThreads = 8;
  constexpr size_t kCount = 40;
  Bytes data = Xoshiro256(23).next_bytes(kCount * 32);
  std::vector<const uint8_t*> messages = lay_out(data, kCount, 32);
  std::vector<std::vector<Digest>> digests(kThreads,
                                           std::vector<Digest>(kCount));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      sha256_many(messages, 32, digests[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::vector<Digest>& d : digests) EXPECT_EQ(d, digests[0]);
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(digests[0][i], portable_sha256(BytesView(messages[i], 32)));
  }
}

TEST(Hmac, Rfc4231Vectors) {
  // RFC 4231 test case 1.
  Bytes key(20, 0x0b);
  Digest mac = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(digest_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Test case 2: short key.
  mac = hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(digest_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Test case 6: key longer than block size.
  Bytes long_key(131, 0xaa);
  mac = hmac_sha256(long_key,
                    to_bytes("Test Using Larger Than Block-Size Key - Hash "
                             "Key First"));
  EXPECT_EQ(digest_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, ContextReusedAcrossMessages) {
  // RFC 4231 test cases 6 and 7 share one key longer than a block; case 7's
  // message spans three blocks.
  Bytes key(131, 0xaa);
  Bytes m6 = to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  Bytes m7 = to_bytes(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.");
  HmacSha256 ctx(key);
  EXPECT_EQ(digest_hex(ctx.mac(m6)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  EXPECT_EQ(digest_hex(ctx.mac(m7)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
  EXPECT_EQ(ctx.mac(m6), hmac_sha256(key, m6));
  EXPECT_EQ(ctx.mac(m7), hmac_sha256(key, m7));
}

TEST(Hmac, MacManyMatchesMac) {
  Bytes data = Xoshiro256(24).next_bytes(512 * 100);
  // A key shorter than a block and one hashed down first.
  for (const Bytes& key : {to_bytes("Jefe"), Bytes(131, 0xaa)}) {
    HmacSha256 ctx(key);
    for (size_t length : {0ul, 14ul, 16ul, 32ul, 55ul, 56ul, 100ul}) {
      for (size_t count : {0ul, 1ul, 16ul, 17ul, 512ul}) {
        std::vector<const uint8_t*> messages = lay_out(data, count, length);
        std::vector<Digest> out(count);
        ctx.mac_many(messages, length, out);
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(out[i], ctx.mac(BytesView(messages[i], length)))
              << "key=" << key.size() << " length=" << length
              << " count=" << count << " i=" << i;
        }
      }
    }
  }
}

TEST(Hmac, VerifyAcceptsAndRejects) {
  Bytes key = to_bytes("k");
  Bytes msg = to_bytes("message");
  Digest mac = hmac_sha256(key, msg);
  EXPECT_TRUE(hmac_verify(key, msg, BytesView(mac.data(), mac.size())));
  Digest bad = mac;
  bad[0] ^= 1;
  EXPECT_FALSE(hmac_verify(key, msg, BytesView(bad.data(), bad.size())));
  EXPECT_FALSE(hmac_verify(to_bytes("k2"), msg, BytesView(mac.data(), 32)));
}

TEST(Hmac, DeriveKeyIsLabelSeparated) {
  Bytes root = to_bytes("root-key");
  EXPECT_NE(derive_key(root, "a"), derive_key(root, "b"));
  EXPECT_EQ(derive_key(root, "a"), derive_key(root, "a"));
}

TEST(Lamport, SignVerify) {
  auto kp = LamportKeyPair::from_seed(to_bytes("seed-1"));
  Bytes msg = to_bytes("resource usage log payload");
  LamportSignature sig = lamport_sign(kp.priv, msg);
  EXPECT_TRUE(lamport_verify(kp.pub, msg, sig));
}

TEST(Lamport, RejectsWrongMessage) {
  auto kp = LamportKeyPair::from_seed(to_bytes("seed-2"));
  LamportSignature sig = lamport_sign(kp.priv, to_bytes("A"));
  EXPECT_FALSE(lamport_verify(kp.pub, to_bytes("B"), sig));
}

TEST(Lamport, RejectsTamperedSignature) {
  auto kp = LamportKeyPair::from_seed(to_bytes("seed-3"));
  Bytes msg = to_bytes("msg");
  LamportSignature sig = lamport_sign(kp.priv, msg);
  sig.revealed[100][5] ^= 0xff;
  EXPECT_FALSE(lamport_verify(kp.pub, msg, sig));
}

TEST(Lamport, RejectsWrongKey) {
  auto kp1 = LamportKeyPair::from_seed(to_bytes("seed-4"));
  auto kp2 = LamportKeyPair::from_seed(to_bytes("seed-5"));
  Bytes msg = to_bytes("msg");
  LamportSignature sig = lamport_sign(kp1.priv, msg);
  EXPECT_FALSE(lamport_verify(kp2.pub, msg, sig));
}

TEST(Lamport, SerializationRoundTrip) {
  auto kp = LamportKeyPair::from_seed(to_bytes("seed-6"));
  Bytes pub_bytes = kp.pub.serialize();
  LamportPublicKey pub2 = LamportPublicKey::deserialize(pub_bytes);
  EXPECT_EQ(pub2.fingerprint(), kp.pub.fingerprint());
  LamportSignature sig = lamport_sign(kp.priv, to_bytes("x"));
  LamportSignature sig2 = LamportSignature::deserialize(sig.serialize());
  EXPECT_TRUE(lamport_verify(pub2, to_bytes("x"), sig2));
}

TEST(Merkle, SingleLeaf) {
  std::vector<Bytes> leaves = {to_bytes("only")};
  MerkleTree tree(leaves);
  MerkleProof proof = tree.prove(0);
  EXPECT_TRUE(merkle_verify(tree.root(), to_bytes("only"), proof));
}

TEST(Merkle, AllLeavesProvable) {
  for (size_t n : {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 13ul}) {
    std::vector<Bytes> leaves;
    for (size_t i = 0; i < n; ++i) {
      leaves.push_back(to_bytes("leaf-" + std::to_string(i)));
    }
    MerkleTree tree(leaves);
    for (size_t i = 0; i < n; ++i) {
      MerkleProof proof = tree.prove(i);
      EXPECT_TRUE(merkle_verify(tree.root(), leaves[i], proof))
          << "n=" << n << " i=" << i;
      // Wrong leaf data must not verify.
      EXPECT_FALSE(merkle_verify(tree.root(), to_bytes("evil"), proof));
    }
  }
}

TEST(Merkle, ProofForWrongIndexFails) {
  std::vector<Bytes> leaves = {to_bytes("a"), to_bytes("b"), to_bytes("c"),
                               to_bytes("d")};
  MerkleTree tree(leaves);
  MerkleProof proof = tree.prove(1);
  proof.leaf_index = 2;
  EXPECT_FALSE(merkle_verify(tree.root(), leaves[1], proof));
}

TEST(Merkle, ProofSerializationRoundTrip) {
  std::vector<Bytes> leaves = {to_bytes("a"), to_bytes("b"), to_bytes("c")};
  MerkleTree tree(leaves);
  MerkleProof proof = tree.prove(2);
  MerkleProof proof2 = MerkleProof::deserialize(proof.serialize());
  EXPECT_TRUE(merkle_verify(tree.root(), leaves[2], proof2));
}

TEST(Merkle, EmptyTreeRejected) {
  std::vector<Bytes> leaves;
  EXPECT_THROW(MerkleTree tree(leaves), std::invalid_argument);
}

TEST(Signer, MultipleSignaturesVerify) {
  Signer signer(to_bytes("enclave-seed"), 4);
  Digest id = signer.identity();
  for (int i = 0; i < 4; ++i) {
    Bytes msg = to_bytes("log entry " + std::to_string(i));
    Signature sig = signer.sign(msg);
    EXPECT_TRUE(signature_verify(id, msg, sig)) << i;
  }
}

TEST(Signer, ExhaustionThrows) {
  Signer signer(to_bytes("s"), 2);
  signer.sign(to_bytes("1"));
  signer.sign(to_bytes("2"));
  EXPECT_EQ(signer.keys_remaining(), 0u);
  EXPECT_THROW(signer.sign(to_bytes("3")), acctee::Error);
}

TEST(Signer, RejectsCrossSignerForgery) {
  Signer alice(to_bytes("alice"), 2);
  Signer mallory(to_bytes("mallory"), 2);
  Bytes msg = to_bytes("pay mallory");
  Signature sig = mallory.sign(msg);
  EXPECT_FALSE(signature_verify(alice.identity(), msg, sig));
}

TEST(Signer, RejectsKeyIndexConfusion) {
  Signer signer(to_bytes("s2"), 4);
  Bytes msg = to_bytes("m");
  Signature sig = signer.sign(msg);
  sig.key_index = 1;  // proof is for index 0
  EXPECT_FALSE(signature_verify(signer.identity(), msg, sig));
}

TEST(Signer, RejectsKeyIndexAliasAboveTreeDepth) {
  // The proof has depth 2, so index 0 + 4 must not reuse its path bits.
  Signer signer(to_bytes("s4"), 4);
  Bytes msg = to_bytes("m");
  Signature sig = signer.sign(msg);
  ASSERT_TRUE(signature_verify(signer.identity(), msg, sig));
  sig.key_index += 4;
  sig.inclusion.leaf_index += 4;
  EXPECT_FALSE(signature_verify(signer.identity(), msg, sig));
}

TEST(Signer, ZeroKeysThrowsError) {
  EXPECT_THROW(Signer(to_bytes("s"), 0), acctee::Error);
}

TEST(Signer, KeyMaterialPinned) {
  // Any change to hashing, key derivation or the signature encoding that
  // moves key material fails here.
  Signer signer(to_bytes("seed"), 4);
  EXPECT_EQ(digest_hex(signer.identity()),
            "2cf388332fc52f67d17f295ba019d2ffb579dc39a8a1f42fd7b74e145b07e865");
  Signature sig = signer.sign(to_bytes("pinned message"));
  EXPECT_EQ(digest_hex(sha256(sig.serialize())),
            "4bd65d2af943a1e789313dad79e44c7e61c0b4d380589702dd85cd17b29d1801");
}

TEST(Signer, KeyMaterialPinnedAcrossLaneGroups) {
  // 37 keys: two full groups of sixteen and a remainder, for the key
  // fingerprints batched in the tree; every key's 512 slots are batched
  // too. Both values were computed before the batched paths existed.
  Signer signer(to_bytes("seed"), 37);
  EXPECT_EQ(digest_hex(signer.identity()),
            "ce22d8af82c0f0e8e13914e047c50025e4d9281efcc91431233904dbd8386d01");
  for (int i = 0; i < 36; ++i) signer.sign(to_bytes("x"));
  Signature sig = signer.sign(to_bytes("pinned message"));
  EXPECT_EQ(sig.key_index, 36u);
  EXPECT_EQ(digest_hex(sha256(sig.serialize())),
            "b1a471b3f91f37a37fd29dbdb3fbdcef894c0fd6699cf4e17ef989286c685c3c");
}

TEST(Signer, DeserializeRejectsTrailingBytes) {
  // One canonical encoding: junk after the Lamport part must not decode
  // to a signature that still verifies but re-serializes differently.
  Signer signer(to_bytes("s5"), 2);
  Bytes msg = to_bytes("m");
  Bytes bytes = signer.sign(msg).serialize();
  ASSERT_TRUE(signature_verify(signer.identity(), msg,
                               Signature::deserialize(bytes)));
  bytes.push_back(0x00);
  bytes.push_back(0x01);
  EXPECT_THROW(Signature::deserialize(bytes), std::invalid_argument);
}

TEST(Signer, SignatureSerializationRoundTrip) {
  Signer signer(to_bytes("s3"), 2);
  Bytes msg = to_bytes("serialized");
  Signature sig = signer.sign(msg);
  Signature sig2 = Signature::deserialize(sig.serialize());
  EXPECT_TRUE(signature_verify(signer.identity(), msg, sig2));
}

}  // namespace
}  // namespace acctee::crypto

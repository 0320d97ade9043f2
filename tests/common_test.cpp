// Unit tests for src/common: byte utilities, LEB128, deterministic RNG,
// zero-page buffer.
#include <gtest/gtest.h>

#include <cstring>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/leb128.hpp"
#include "common/rng.hpp"
#include "common/zero_pages.hpp"

namespace acctee {
namespace {

TEST(Hex, RoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(data), "0001abff7f");
  EXPECT_EQ(from_hex("0001abff7f"), data);
  EXPECT_EQ(from_hex("0001ABFF7F"), data);
}

TEST(Hex, EmptyInput) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Hex, RejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);    // non-hex
}

TEST(CtEqual, Basics) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  Bytes d = {1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
}

TEST(Endian, FixedWidthRoundTrip) {
  Bytes out;
  append_u32le(out, 0xdeadbeef);
  append_u64le(out, 0x0123456789abcdefULL);
  EXPECT_EQ(read_u32le(out, 0), 0xdeadbeefu);
  EXPECT_EQ(read_u64le(out, 4), 0x0123456789abcdefULL);
  EXPECT_THROW(read_u32le(out, 9), std::out_of_range);
  EXPECT_THROW(read_u64le(out, 5), std::out_of_range);
}

TEST(Leb128, UnsignedKnownEncodings) {
  Bytes out;
  write_uleb128(out, 0);
  EXPECT_EQ(out, Bytes({0x00}));
  out.clear();
  write_uleb128(out, 624485);  // classic example from the DWARF spec
  EXPECT_EQ(out, Bytes({0xe5, 0x8e, 0x26}));
}

TEST(Leb128, SignedKnownEncodings) {
  Bytes out;
  write_sleb128(out, -123456);
  EXPECT_EQ(out, Bytes({0xc0, 0xbb, 0x78}));
  out.clear();
  write_sleb128(out, 64);  // needs an extra byte to keep the sign clear
  EXPECT_EQ(out, Bytes({0xc0, 0x00}));
}

TEST(Leb128, UnsignedRoundTripSweep) {
  for (uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
        0xffffffffull, 0xffffffffffffffffull}) {
    Bytes out;
    write_uleb128(out, v);
    size_t off = 0;
    EXPECT_EQ(read_uleb128(out, &off), v);
    EXPECT_EQ(off, out.size());
    EXPECT_EQ(uleb128_size(v), out.size());
  }
}

TEST(Leb128, SignedRoundTripSweep) {
  const int64_t cases[] = {0,    1,     -1,        63,       64, -64,
                           -65,  8191,  -8192,     INT64_MAX, INT64_MIN};
  for (int64_t v : cases) {
    Bytes out;
    write_sleb128(out, v);
    size_t off = 0;
    EXPECT_EQ(read_sleb128(out, &off), v);
    EXPECT_EQ(off, out.size());
  }
}

TEST(Leb128, TruncatedInputThrows) {
  Bytes out;
  write_uleb128(out, 1u << 20);
  out.pop_back();
  size_t off = 0;
  // Typed ParseError, not a raw std:: exception: LEB128 sits on the
  // attacker-facing wasm::decode path, whose callers catch acctee errors.
  EXPECT_THROW(read_uleb128(out, &off), ParseError);
}

TEST(Leb128, OverlongEncodingThrows) {
  Bytes bad(11, 0x80);
  size_t off = 0;
  EXPECT_THROW(read_uleb128(bad, &off), ParseError);
  off = 0;
  EXPECT_THROW(read_sleb128(bad, &off), ParseError);
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
  }
  // Different seed diverges immediately with overwhelming probability.
  Xoshiro256 a2(42);
  EXPECT_NE(a2.next(), c.next());
}

TEST(Rng, NextBelowIsInRangeAndCoversValues) {
  Xoshiro256 rng(7);
  bool seen[10] = {};
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, DoubleIsInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, BytesAreSeedDependent) {
  Xoshiro256 a(1), b(2);
  EXPECT_NE(a.next_bytes(32), b.next_bytes(32));
}

bool all_bytes(const ZeroPages& buf, size_t from, size_t to, uint8_t value) {
  for (size_t i = from; i < to; ++i) {
    if (buf.data()[i] != value) return false;
  }
  return true;
}

TEST(ZeroPages, GrowthReadsZeroAfterAShrink) {
  ZeroPages buf(10000);
  ASSERT_EQ(buf.size(), 10000u);
  EXPECT_TRUE(all_bytes(buf, 0, 10000, 0));
  std::memset(buf.data(), 0xab, buf.size());

  // Shrinking keeps the prefix; growing again, within the last kept page
  // and past it, reads zero beyond that prefix.
  buf.resize(100);
  buf.resize(300000);
  EXPECT_TRUE(all_bytes(buf, 0, 100, 0xab));
  EXPECT_TRUE(all_bytes(buf, 100, 300000, 0));

  ZeroPages moved(std::move(buf));
  EXPECT_EQ(moved.size(), 300000u);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(all_bytes(moved, 0, 100, 0xab));
  moved.resize(0);
  EXPECT_EQ(moved.size(), 0u);
  moved.resize(64);
  EXPECT_TRUE(all_bytes(moved, 0, 64, 0));
}

}  // namespace
}  // namespace acctee

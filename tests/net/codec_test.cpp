#include "net/codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bigint/random_source.hpp"

namespace pisa::net {
namespace {

/// The byte-at-a-time CRC-32 loop, bit by bit: the definition the sliced
/// implementation must reproduce.
std::uint32_t bitwise_crc32(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Codec, ScalarRoundTrip) {
  Encoder e;
  e.put_u8(0xAB);
  e.put_u32(0xDEADBEEF);
  e.put_u64(0x0123456789ABCDEFULL);
  e.put_i64(-42);
  e.put_f64(3.14159);
  auto buf = e.take();

  Decoder d{buf};
  EXPECT_EQ(d.get_u8(), 0xAB);
  EXPECT_EQ(d.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(d.get_i64(), -42);
  EXPECT_DOUBLE_EQ(d.get_f64(), 3.14159);
  EXPECT_TRUE(d.done());
  EXPECT_NO_THROW(d.expect_done());
}

TEST(Codec, StringAndBytesRoundTrip) {
  Encoder e;
  e.put_string("hello, spectrum");
  e.put_string("");
  std::vector<std::uint8_t> blob = {0, 1, 2, 255, 254};
  e.put_bytes(blob);
  auto buf = e.take();

  Decoder d{buf};
  EXPECT_EQ(d.get_string(), "hello, spectrum");
  EXPECT_EQ(d.get_string(), "");
  EXPECT_EQ(d.get_bytes(), blob);
  EXPECT_TRUE(d.done());
}

TEST(Codec, BigUintRoundTrip) {
  bn::SplitMix64Random rng{1};
  Encoder e;
  std::vector<bn::BigUint> values;
  values.push_back(bn::BigUint{});
  values.push_back(bn::BigUint{1});
  for (std::size_t bytes : {8u, 64u, 256u, 513u}) {
    std::vector<std::uint8_t> raw(bytes);
    rng.fill(raw);
    values.push_back(bn::BigUint::from_bytes_be(raw));
  }
  for (const auto& v : values) e.put_biguint(v);
  auto buf = e.take();
  Decoder d{buf};
  for (const auto& v : values) EXPECT_EQ(d.get_biguint(), v);
  EXPECT_TRUE(d.done());
}

TEST(Codec, TruncatedInputThrows) {
  Encoder e;
  e.put_u64(7);
  auto buf = e.take();
  buf.pop_back();
  Decoder d{buf};
  EXPECT_THROW(d.get_u64(), DecodeError);
}

TEST(Codec, TruncatedLengthPrefixThrows) {
  Encoder e;
  e.put_string("this string will be cut");
  auto buf = e.take();
  buf.resize(buf.size() / 2);
  Decoder d{buf};
  EXPECT_THROW(d.get_string(), DecodeError);
}

TEST(Codec, BogusLengthThrows) {
  // A length prefix far larger than the remaining input must not allocate
  // or read out of bounds.
  std::vector<std::uint8_t> buf = {0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3};
  Decoder d{buf};
  EXPECT_THROW(d.get_bytes(), DecodeError);
}

TEST(Codec, TrailingBytesDetected) {
  Encoder e;
  e.put_u8(1);
  e.put_u8(2);
  auto buf = e.take();
  Decoder d{buf};
  d.get_u8();
  EXPECT_FALSE(d.done());
  EXPECT_THROW(d.expect_done(), DecodeError);
  EXPECT_EQ(d.remaining(), 1u);
}

TEST(Codec, TakeResetsEncoder) {
  Encoder e;
  e.put_u32(5);
  EXPECT_EQ(e.size(), 4u);
  (void)e.take();
  EXPECT_EQ(e.size(), 0u);
}

TEST(Codec, NegativeAndSpecialF64) {
  Encoder e;
  e.put_f64(-0.0);
  e.put_f64(1e308);
  e.put_f64(-1e-308);
  auto buf = e.take();
  Decoder d{buf};
  EXPECT_DOUBLE_EQ(d.get_f64(), -0.0);
  EXPECT_DOUBLE_EQ(d.get_f64(), 1e308);
  EXPECT_DOUBLE_EQ(d.get_f64(), -1e-308);
}

TEST(Crc32, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(check.data()),
                   check.size()}),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, MatchesBytewiseLoopAtEveryLengthAndOffset) {
  // Every length 0..2048 at every start offset 0..7, so each alignment of
  // the 8-byte steps and each tail length is covered.
  bn::SplitMix64Random r{0xC5C};
  std::vector<std::uint8_t> buf(2048 + 8);
  r.fill(buf);
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t len = 0; len <= 2048; ++len)
      ASSERT_EQ(crc32({buf.data() + off, len}),
                bitwise_crc32(buf.data() + off, len))
          << "offset " << off << " length " << len;
}

TEST(Crc32, SealedFramesOpenAndDetectFlips) {
  bn::SplitMix64Random r{0xF4A};
  std::vector<std::uint8_t> frame(300);
  r.fill(frame);
  const std::uint32_t expect = bitwise_crc32(frame.data(), frame.size());
  auto sealed = frame;
  seal_frame(sealed);
  ASSERT_EQ(sealed.size(), frame.size() + 4);
  std::uint32_t trailer = 0;
  for (int i = 0; i < 4; ++i)
    trailer |= std::uint32_t{sealed[frame.size() + i]} << (8 * i);
  EXPECT_EQ(trailer, expect);
  auto flipped = sealed;
  flipped[123] ^= 0x10;
  EXPECT_FALSE(open_frame(flipped));
  EXPECT_TRUE(open_frame(sealed));
  EXPECT_EQ(sealed, frame);
}

}  // namespace
}  // namespace pisa::net

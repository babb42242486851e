#include "crypto/chacha_rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

namespace pisa::crypto {
namespace {

TEST(ChaChaRng, DeterministicForSameSeed) {
  ChaChaRng a{std::uint64_t{42}}, b{std::uint64_t{42}};
  std::vector<std::uint8_t> ba(1000), bb(1000);
  a.fill(ba);
  b.fill(bb);
  EXPECT_EQ(ba, bb);
}

TEST(ChaChaRng, DifferentSeedsDiffer) {
  ChaChaRng a{std::uint64_t{1}}, b{std::uint64_t{2}};
  std::vector<std::uint8_t> ba(64), bb(64);
  a.fill(ba);
  b.fill(bb);
  EXPECT_NE(ba, bb);
}

TEST(ChaChaRng, KnownAnswerZeroKeyKeystream) {
  // The canonical ChaCha20 keystream for an all-zero key, zero nonce and
  // counter 0 (draft-agl-tls-chacha20poly1305 / djb test vector; the RFC
  // 7539 state layout coincides when nonce and counter are all zero).
  std::array<std::uint8_t, 32> key{};
  ChaChaRng rng{key};
  std::vector<std::uint8_t> out(32);
  rng.fill(out);
  const std::vector<std::uint8_t> expected = {
      0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a,
      0xe5, 0x53, 0x86, 0xbd, 0x28, 0xbd, 0xd2, 0x19, 0xb8, 0xa0, 0x8d,
      0xed, 0x1a, 0xa8, 0x36, 0xef, 0xcc, 0x8b, 0x77, 0x0d, 0xc7};
  EXPECT_EQ(out, expected);
}

TEST(ChaChaRng, SplitReadsMatchBulkRead) {
  ChaChaRng a{std::uint64_t{7}}, b{std::uint64_t{7}};
  std::vector<std::uint8_t> bulk(256);
  a.fill(bulk);
  std::vector<std::uint8_t> pieced;
  for (std::size_t sz : {1u, 3u, 60u, 64u, 65u, 63u}) {
    std::vector<std::uint8_t> part(sz);
    b.fill(part);
    pieced.insert(pieced.end(), part.begin(), part.end());
  }
  ASSERT_EQ(pieced.size(), 256u);
  EXPECT_EQ(pieced, bulk);
}

TEST(ChaChaRng, ByteDistributionRoughlyUniform) {
  ChaChaRng rng{std::uint64_t{99}};
  std::vector<std::uint8_t> buf(256 * 1024);
  rng.fill(buf);
  std::array<std::size_t, 256> counts{};
  for (auto b : buf) counts[b]++;
  double expected = static_cast<double>(buf.size()) / 256.0;
  double chi2 = 0;
  for (auto c : counts) {
    double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  // 255 dof; 3-sigma-ish acceptance band.
  EXPECT_GT(chi2, 150.0);
  EXPECT_LT(chi2, 400.0);
}

TEST(ChaChaRng, NextU64Progresses) {
  ChaChaRng rng{std::uint64_t{5}};
  auto a = rng.next_u64();
  auto b = rng.next_u64();
  EXPECT_NE(a, b);
}

TEST(ChaChaRng, OsEntropyProducesDistinctStreams) {
  auto a = ChaChaRng::from_os_entropy();
  auto b = ChaChaRng::from_os_entropy();
  std::vector<std::uint8_t> ba(32), bb(32);
  a.fill(ba);
  b.fill(bb);
  EXPECT_NE(ba, bb);
}

TEST(ChaChaRng, StreamIdsAreDeterministicAndIndependent) {
  std::array<std::uint8_t, ChaChaRng::kSeedSize> seed{};
  ChaChaRng{std::uint64_t{42}}.fill(seed);

  // The same (seed, id) is the same stream, regardless of when or in what
  // order the streams are instantiated.
  ChaChaRng s0{seed, 0};
  ChaChaRng s7{seed, 7};
  ChaChaRng s7_again{seed, 7};
  ChaChaRng s0_again{seed, 0};
  std::vector<std::uint8_t> x(64), y(64);
  s7.fill(x);
  s7_again.fill(y);
  EXPECT_EQ(x, y);
  s0.fill(x);
  s0_again.fill(y);
  EXPECT_EQ(x, y);
  // Stream 0 is the plain single-stream generator.
  ChaChaRng plain{seed};
  plain.fill(y);
  EXPECT_EQ(x, y);

  // Distinct ids give distinct output.
  ChaChaRng u{seed, 1};
  ChaChaRng v{seed, 2};
  u.fill(x);
  v.fill(y);
  EXPECT_NE(x, y);
  // The id spans both nonce words.
  ChaChaRng lo{seed, 1};
  ChaChaRng hi{seed, std::uint64_t{1} << 32};
  lo.fill(x);
  hi.fill(y);
  EXPECT_NE(x, y);
}

}  // namespace
}  // namespace pisa::crypto

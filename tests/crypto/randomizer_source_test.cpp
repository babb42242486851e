// crypto::RandomizerSource: factor k is a pure function of (key, seed, k),
// taken indices never depend on what was cached, and the cache only ever
// grows at its next missing index.
#include "crypto/randomizer_source.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "crypto/chacha_rng.hpp"
#include "exec/thread_pool.hpp"

namespace pisa::crypto {
namespace {

class RandomizerSourceTest : public ::testing::Test {
 protected:
  static const PaillierKeyPair& kp() {
    static PaillierKeyPair k = [] {
      ChaChaRng rng{std::uint64_t{0x5eed}};
      return paillier_generate(512, rng, 16);
    }();
    return k;
  }

  static RandomizerSource::Seed seed() {
    RandomizerSource::Seed s{};
    ChaChaRng{std::uint64_t{0xFAC7}}.fill(s);
    return s;
  }

  static RandomizerSource source() { return RandomizerSource{kp().pk, seed()}; }

  static std::vector<bn::BigUint> expected(std::uint64_t first, std::size_t count) {
    const auto src = source();
    std::vector<bn::BigUint> out;
    for (std::size_t i = 0; i < count; ++i) out.push_back(src.factor(first + i));
    return out;
  }

  static std::vector<bn::BigUint> taken(RandomizerSource& src, std::size_t count) {
    auto r = src.take(count);
    std::vector<bn::BigUint> out;
    for (std::size_t i = 0; i < count; ++i) out.push_back(src.factor(r, i));
    return out;
  }
};

TEST_F(RandomizerSourceTest, FactorIsRnOfTheIndexedStream) {
  const auto src = source();
  ChaChaRng r_stream{seed(), 5};
  EXPECT_EQ(src.factor(5), kp().pk.make_randomizer(r_stream));
  EXPECT_NE(src.factor(5), src.factor(6));
}

TEST_F(RandomizerSourceTest, CachedFactorsServeBeforeInlineInIndexOrder) {
  auto src = source();
  src.precompute(3);
  EXPECT_EQ(src.cached(), 3u);
  EXPECT_EQ(src.next_missing(), 3u);

  // Five taken: indices 0..4, the first three from the cache.
  auto r = src.take(5);
  EXPECT_EQ(r.first, 0u);
  EXPECT_EQ(r.cached.size(), 3u);
  EXPECT_EQ(src.cached(), 0u);
  std::vector<bn::BigUint> got;
  for (std::size_t i = 0; i < 5; ++i) got.push_back(src.factor(r, i));
  EXPECT_EQ(got, expected(0, 5));

  // A cache larger than the request keeps its tail for the next one.
  src.precompute(4);
  EXPECT_EQ(taken(src, 2), expected(5, 2));
  EXPECT_EQ(src.cached(), 2u);
  EXPECT_EQ(taken(src, 3), expected(7, 3));
  EXPECT_EQ(src.cached(), 0u);
  EXPECT_EQ(src.next_missing(), 10u);
}

TEST_F(RandomizerSourceTest, OfferAcceptsOnlyTheNextMissingIndex) {
  auto src = source();
  EXPECT_FALSE(src.offer(1, src.factor(1))) << "index 0 is still missing";
  EXPECT_TRUE(src.offer(0, src.factor(0)));
  EXPECT_FALSE(src.offer(0, src.factor(0))) << "index 0 is already cached";
  EXPECT_TRUE(src.offer(1, src.factor(1)));
  EXPECT_EQ(src.cached(), 2u);

  // An encryption took indices 2..4 inline meanwhile (cache drained first):
  // a late factor for index 2 is stale, the next missing one is 4.
  taken(src, 4);
  EXPECT_EQ(src.next_missing(), 4u);
  EXPECT_FALSE(src.offer(2, src.factor(2)));
  EXPECT_TRUE(src.offer(4, src.factor(4)));
  EXPECT_EQ(taken(src, 1), expected(4, 1));
}

TEST_F(RandomizerSourceTest, PrecomputeIsThreadCountInvariant) {
  std::vector<std::vector<bn::BigUint>> runs;
  for (std::size_t nt : {1u, 4u}) {
    exec::ThreadPool pool{nt};
    auto src = source();
    src.precompute(2, &pool);
    src.precompute(7, &pool);  // tops up the missing five
    EXPECT_EQ(src.cached(), 7u);
    src.precompute(3, &pool);  // already deeper: computes nothing
    EXPECT_EQ(src.cached(), 7u);
    runs.push_back(taken(src, 7));
  }
  EXPECT_EQ(runs[0], expected(0, 7));
  EXPECT_EQ(runs[1], expected(0, 7));
}

TEST_F(RandomizerSourceTest, EncryptDecryptsWithCachedAndInlineFactors) {
  std::vector<bn::BigUint> ms{bn::BigUint{31337}, bn::BigUint{0},
                              kp().pk.n() - bn::BigUint{1}, bn::BigUint{7}};
  auto cold = source();
  auto warm = source();
  warm.precompute(2);
  exec::ThreadPool pool{4};
  const auto a = cold.encrypt(ms);
  const auto b = warm.encrypt(ms, &pool);
  EXPECT_EQ(a, b) << "a ciphertext depends on (seed, index, m) only";
  const auto factors = expected(0, ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(kp().sk.decrypt(a[i]), ms[i]);
    EXPECT_EQ(a[i], kp().pk.rerandomize_with(kp().pk.encrypt_deterministic(ms[i]),
                                             factors[i]));
  }

  // An out-of-range plaintext throws before any index is taken.
  std::vector<bn::BigUint> bad{bn::BigUint{1}, kp().pk.n()};
  EXPECT_THROW(cold.encrypt(bad), std::out_of_range);
  EXPECT_EQ(cold.next_missing(), ms.size());
}

TEST_F(RandomizerSourceTest, DrawsItsSeedOnceAtConstruction) {
  ChaChaRng parent{std::uint64_t{9}};
  RandomizerSource src{kp().pk, parent};
  const auto mark = parent.next_u64();
  // Taking, precomputing and encrypting never read the parent again.
  src.precompute(2);
  taken(src, 3);
  ChaChaRng parent2{std::uint64_t{9}};
  RandomizerSource src2{kp().pk, parent2};
  EXPECT_EQ(parent2.next_u64(), mark);
  // Same parent state, same source.
  EXPECT_EQ(src2.factor(0), src.factor(0));
}

}  // namespace
}  // namespace pisa::crypto

// Batch-API equivalence: every *_batch call must be bit-identical to the
// per-entry loop it replaces, given the same rng state — and independent of
// the thread count. This is the determinism contract the protocol layers
// (SdcServer / SuClient / StpServer) rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bigint/prime.hpp"
#include "crypto/chacha_rng.hpp"
#include "crypto/paillier.hpp"
#include "exec/thread_pool.hpp"

namespace pisa::crypto {
namespace {

class PaillierBatchTest : public ::testing::Test {
 protected:
  static const PaillierKeyPair& kp() {
    static PaillierKeyPair k = [] {
      ChaChaRng rng{std::uint64_t{0x5eed}};
      return paillier_generate(512, rng, 16);
    }();
    return k;
  }

  static std::vector<bn::BigUint> plains(std::size_t count, std::uint64_t seed) {
    ChaChaRng rng{seed};
    std::vector<bn::BigUint> ms(count);
    for (auto& m : ms) m = bn::random_bits(rng, 60);
    return ms;
  }
};

TEST_F(PaillierBatchTest, EncryptBatchMatchesPerEntryLoop) {
  auto ms = plains(17, 1);
  ChaChaRng rng_a{std::uint64_t{7}};
  ChaChaRng rng_b{std::uint64_t{7}};

  std::vector<PaillierCiphertext> expected;
  for (const auto& m : ms) expected.push_back(kp().pk.encrypt(m, rng_a));
  auto got = kp().pk.encrypt_batch(ms, rng_b, nullptr);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], expected[i]) << "entry " << i;
  // Both consumed the same amount of randomness.
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
}

TEST_F(PaillierBatchTest, EncryptBatchIsThreadCountInvariant) {
  auto ms = plains(23, 2);
  ChaChaRng rng_ref{std::uint64_t{9}};
  auto reference = kp().pk.encrypt_batch(ms, rng_ref, nullptr);

  for (std::size_t nt : {1u, 2u, 4u}) {
    exec::ThreadPool pool{nt};
    ChaChaRng rng{std::uint64_t{9}};
    auto got = kp().pk.encrypt_batch(ms, rng, &pool);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], reference[i]) << "threads=" << nt << " entry " << i;
  }
}

TEST_F(PaillierBatchTest, ScalarMulBatchMatchesPerEntryAndBroadcasts) {
  auto ms = plains(12, 4);
  ChaChaRng rng{std::uint64_t{13}};
  auto cts = kp().pk.encrypt_batch(ms, rng, nullptr);

  std::vector<bn::BigUint> ks(cts.size());
  for (auto& k : ks) k = bn::random_bits(rng, 100);

  exec::ThreadPool pool{4};
  auto got = kp().pk.scalar_mul_batch(ks, cts, &pool);
  ASSERT_EQ(got.size(), cts.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], kp().pk.scalar_mul(ks[i], cts[i])) << "entry " << i;

  // Size-1 ks broadcasts the one scalar to every ciphertext.
  std::vector<bn::BigUint> one_k{ks[0]};
  auto broadcast = kp().pk.scalar_mul_batch(one_k, cts, &pool);
  ASSERT_EQ(broadcast.size(), cts.size());
  for (std::size_t i = 0; i < broadcast.size(); ++i)
    EXPECT_EQ(broadcast[i], kp().pk.scalar_mul(ks[0], cts[i])) << "entry " << i;
}

TEST_F(PaillierBatchTest, DecryptBatchMatchesPerEntry) {
  auto ms = plains(19, 5);
  ChaChaRng rng{std::uint64_t{17}};
  auto cts = kp().pk.encrypt_batch(ms, rng, nullptr);

  for (std::size_t nt : {1u, 4u}) {
    exec::ThreadPool pool{nt};
    auto got = kp().sk.decrypt_batch(cts, &pool);
    ASSERT_EQ(got.size(), ms.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], ms[i]) << "threads=" << nt << " entry " << i;
  }
}

TEST(FixedBaseTableTest, PowMatchesMontgomeryPow) {
  ChaChaRng rng{std::uint64_t{0xF1}};
  bn::BigUint modulus = bn::random_bits(rng, 256);
  modulus.set_bit(0);  // Montgomery needs an odd modulus
  bn::Montgomery mont{modulus};
  bn::BigUint base = bn::random_below(rng, modulus);

  bn::FixedBaseTable table{mont, base, 128};
  EXPECT_EQ(table.pow(bn::BigUint{0}), bn::BigUint{1});
  EXPECT_EQ(table.pow(bn::BigUint{1}), mont.pow(base, bn::BigUint{1}));
  for (int i = 0; i < 10; ++i) {
    bn::BigUint e = bn::random_bits(rng, 128);
    EXPECT_EQ(table.pow(e), mont.pow(base, e)) << "iteration " << i;
  }
  // Exponent wider than the table was built for must be rejected.
  bn::BigUint wide = bn::BigUint{1} << 128;
  EXPECT_THROW(table.pow(wide), std::out_of_range);
}

}  // namespace
}  // namespace pisa::crypto

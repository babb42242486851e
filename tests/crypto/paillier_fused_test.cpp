// The fused Paillier operations must be bit-identical to the operation
// chains they replace — the SDC protocol's oracle tests depend on every
// ciphertext byte, so each fusion is checked against the original
// composition, not just against decryption.
#include <gtest/gtest.h>

#include "bigint/prime.hpp"
#include "bigint/random_source.hpp"
#include "crypto/paillier.hpp"

namespace pisa::crypto {
namespace {

using bn::BigUint;

class PaillierFusedTest : public ::testing::Test {
 protected:
  PaillierFusedTest() : rng_(0xfeedULL), kp_(paillier_generate(512, rng_, 12)) {}

  bn::SplitMix64Random rng_;
  PaillierKeyPair kp_;
};

TEST_F(PaillierFusedTest, DeterministicEncryptionIsClosedFormAndCanonical) {
  const auto& pk = kp_.pk;
  for (std::uint64_t m : {0ULL, 1ULL, 2ULL, 12345ULL}) {
    auto c = pk.encrypt_deterministic(BigUint{m});
    EXPECT_LT(c.value, pk.n_squared());
    EXPECT_EQ(c.value, (BigUint{1} + BigUint{m} * pk.n()) % pk.n_squared());
    EXPECT_EQ(kp_.sk.decrypt(c).to_u64(), m);
  }
  auto top = pk.encrypt_deterministic(pk.n() - BigUint{1});
  EXPECT_LT(top.value, pk.n_squared());
  EXPECT_EQ(kp_.sk.decrypt(top), pk.n() - BigUint{1});
  EXPECT_THROW((void)pk.encrypt_deterministic(pk.n()), std::out_of_range);
}

TEST_F(PaillierFusedTest, DeterministicInverseMatchesModularInverse) {
  const auto& pk = kp_.pk;
  for (std::uint64_t m : {0ULL, 1ULL, 7ULL, 99999ULL}) {
    auto inv = pk.encrypt_deterministic_inverse(BigUint{m});
    // negate() is the extended-gcd canonical inverse: must match exactly.
    EXPECT_EQ(inv, pk.negate(pk.encrypt_deterministic(BigUint{m}))) << m;
  }
  EXPECT_THROW((void)pk.encrypt_deterministic_inverse(pk.n()),
               std::out_of_range);
}

TEST_F(PaillierFusedTest, SubDeterministicMatchesSub) {
  const auto& pk = kp_.pk;
  auto c = pk.encrypt(BigUint{424242}, rng_);
  for (std::uint64_t m : {0ULL, 1ULL, 1000ULL}) {
    EXPECT_EQ(pk.sub_deterministic(c, BigUint{m}),
              pk.sub(c, pk.encrypt_deterministic(BigUint{m})))
        << m;
  }
}

TEST_F(PaillierFusedTest, AddManyMatchesSequentialFold) {
  const auto& pk = kp_.pk;
  for (std::size_t count : {0u, 1u, 2u, 5u, 17u}) {
    std::vector<PaillierCiphertext> cs(count);
    for (auto& c : cs)
      c = pk.encrypt(bn::random_below(rng_, pk.n()), rng_);
    auto folded = pk.encrypt_deterministic(BigUint{0});
    for (const auto& c : cs) folded = pk.add(folded, c);
    EXPECT_EQ(pk.add_many(cs), folded) << count;
  }
}

TEST_F(PaillierFusedTest, BlindEntryMatchesUnfusedChain) {
  const auto& pk = kp_.pk;
  for (int epsilon : {+1, -1}) {
    for (int trial = 0; trial < 4; ++trial) {
      auto budget = pk.encrypt(bn::random_below(rng_, pk.n()), rng_);
      auto f = pk.encrypt(bn::random_below(rng_, pk.n()), rng_);
      BigUint x{3 + static_cast<std::uint64_t>(trial)};
      BigUint alpha = bn::random_bits(rng_, 128);
      alpha.set_bit(127);
      BigUint beta = bn::random_below(rng_, alpha - BigUint{1}) + BigUint{1};

      // The original eq. (11)+(14) composition from SdcServer::begin_request.
      auto r_ct = pk.scalar_mul(x, f);
      auto i_ct = pk.sub(budget, r_ct);
      auto blinded =
          pk.sub(pk.scalar_mul(alpha, i_ct), pk.encrypt_deterministic(beta));
      auto expect = epsilon < 0 ? pk.negate(blinded) : blinded;

      EXPECT_EQ(pk.blind_entry(budget, f, x, alpha, beta, epsilon), expect)
          << "epsilon=" << epsilon << " trial=" << trial;

      // x = 0, the §3.8 budget probe: its original scalar_mul/sub/negate
      // chain against the call SdcServer makes without an F term — the
      // budget stands in for the unused F̃ base, and only ε < 0 passes a
      // real inverse.
      auto probe = pk.sub_deterministic(pk.scalar_mul(alpha, budget), beta);
      if (epsilon < 0) probe = pk.negate(probe);
      const auto budget_inv = pk.negate(budget);
      EXPECT_EQ(pk.blind_entry(budget, budget, BigUint{0}, alpha, beta, epsilon,
                               epsilon < 0 ? &budget_inv : &budget),
                probe)
          << "x=0 epsilon=" << epsilon << " trial=" << trial;
      EXPECT_EQ(pk.blind_entry(budget, f, BigUint{0}, alpha, beta, epsilon),
                probe)
          << "x=0 (own inverse) epsilon=" << epsilon << " trial=" << trial;
    }
  }
}

}  // namespace
}  // namespace pisa::crypto

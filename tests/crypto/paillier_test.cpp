#include "crypto/paillier.hpp"

#include <gtest/gtest.h>

#include "bigint/modular.hpp"
#include "bigint/prime.hpp"
#include "crypto/chacha_rng.hpp"

namespace pisa::crypto {
namespace {

using bn::BigInt;
using bn::BigUint;

// Small but real keys keep the suite fast; a 2048-bit smoke test runs once.
constexpr std::size_t kTestKeyBits = 512;

struct PaillierFixture : ::testing::Test {
  ChaChaRng rng{std::uint64_t{12345}};
  PaillierKeyPair kp = paillier_generate(kTestKeyBits, rng, 16);
};

TEST_F(PaillierFixture, KeyShape) {
  EXPECT_EQ(kp.pk.n().bit_length(), kTestKeyBits);
  EXPECT_EQ(kp.pk.n_squared(), kp.pk.n() * kp.pk.n());
  EXPECT_EQ(kp.pk.ciphertext_bytes(), 2 * kTestKeyBits / 8);
  EXPECT_EQ(kp.pk.public_key_bytes(), 2 * kTestKeyBits / 8);
}

TEST_F(PaillierFixture, EncryptDecryptRoundTrip) {
  for (std::uint64_t m : {0ULL, 1ULL, 2ULL, 255ULL, 1ULL << 60}) {
    auto ct = kp.pk.encrypt(BigUint{m}, rng);
    EXPECT_EQ(kp.sk.decrypt(ct).to_u64(), m);
  }
  // A full-width plaintext just below n.
  BigUint big = kp.pk.n() - BigUint{1};
  EXPECT_EQ(kp.sk.decrypt(kp.pk.encrypt(big, rng)), big);
}

TEST_F(PaillierFixture, EncryptRejectsOutOfRange) {
  EXPECT_THROW(kp.pk.encrypt(kp.pk.n(), rng), std::out_of_range);
  EXPECT_THROW(kp.pk.encrypt(kp.pk.n() + BigUint{5}, rng), std::out_of_range);
}

TEST_F(PaillierFixture, SemanticSecurityCiphertextsDiffer) {
  auto c1 = kp.pk.encrypt(BigUint{42}, rng);
  auto c2 = kp.pk.encrypt(BigUint{42}, rng);
  EXPECT_NE(c1, c2) << "fresh randomness must give distinct ciphertexts";
  EXPECT_EQ(kp.sk.decrypt(c1), kp.sk.decrypt(c2));
}

TEST_F(PaillierFixture, HomomorphicAddition) {
  for (int i = 0; i < 10; ++i) {
    BigUint a = bn::random_bits(rng, 60);
    BigUint b = bn::random_bits(rng, 60);
    auto sum = kp.pk.add(kp.pk.encrypt(a, rng), kp.pk.encrypt(b, rng));
    EXPECT_EQ(kp.sk.decrypt(sum), a + b);
  }
}

TEST_F(PaillierFixture, HomomorphicSubtraction) {
  for (int i = 0; i < 10; ++i) {
    BigUint a = bn::random_bits(rng, 60);
    BigUint b = bn::random_bits(rng, 60);
    auto diff = kp.pk.sub(kp.pk.encrypt(a, rng), kp.pk.encrypt(b, rng));
    BigInt expected = BigInt{a} - BigInt{b};
    EXPECT_EQ(kp.sk.decrypt_signed(diff), expected);
  }
}

TEST_F(PaillierFixture, HomomorphicScalarMul) {
  for (int i = 0; i < 10; ++i) {
    BigUint m = bn::random_bits(rng, 50);
    BigUint k = bn::random_bits(rng, 50);
    auto ct = kp.pk.scalar_mul(k, kp.pk.encrypt(m, rng));
    EXPECT_EQ(kp.sk.decrypt(ct), m * k);
  }
}

TEST_F(PaillierFixture, SignedArithmetic) {
  for (std::int64_t m : {-1000000LL, -1LL, 0LL, 1LL, 999999999LL}) {
    auto ct = kp.pk.encrypt_signed(BigInt{m}, rng);
    EXPECT_EQ(kp.sk.decrypt_signed(ct).to_i64(), m);
  }
  // (-a) + b, a * (-k) compose correctly through the centered lift.
  auto ca = kp.pk.encrypt_signed(BigInt{-70}, rng);
  auto cb = kp.pk.encrypt_signed(BigInt{30}, rng);
  EXPECT_EQ(kp.sk.decrypt_signed(kp.pk.add(ca, cb)).to_i64(), -40);
  auto scaled = kp.pk.scalar_mul_signed(BigInt{-3}, cb);
  EXPECT_EQ(kp.sk.decrypt_signed(scaled).to_i64(), -90);
  auto neg = kp.pk.negate(ca);
  EXPECT_EQ(kp.sk.decrypt_signed(neg).to_i64(), 70);
}

TEST_F(PaillierFixture, PisaBlindingAlgebraShape) {
  // The exact algebra of eq. (14): V = ε·(α·I − β) keeps sign(V·ε) == sign(I)
  // when α > β > 0, I != 0 and |α·I| stays in range.
  for (int i = 0; i < 20; ++i) {
    std::int64_t I = static_cast<std::int64_t>(rng.next_u64() % 2001) - 1000;
    if (I == 0) I = 7;
    std::uint64_t beta = rng.next_u64() % 1000 + 1;
    std::uint64_t alpha = beta + rng.next_u64() % 1000 + 1;
    int eps = (rng.next_u64() & 1) ? 1 : -1;
    auto ct_i = kp.pk.encrypt_signed(BigInt{I}, rng);
    auto blinded = kp.pk.scalar_mul_signed(
        BigInt{eps},
        kp.pk.sub(kp.pk.scalar_mul(BigUint{alpha}, ct_i),
                  kp.pk.encrypt(BigUint{beta}, rng)));
    BigInt v = kp.sk.decrypt_signed(blinded);
    int recovered = (v * BigInt{eps}).sign();
    EXPECT_EQ(recovered, I > 0 ? 1 : -1) << "I=" << I;
  }
}

TEST_F(PaillierFixture, RerandomizePreservesPlaintext) {
  auto ct = kp.pk.encrypt(BigUint{777}, rng);
  auto r1 = kp.pk.rerandomize(ct, rng);
  EXPECT_NE(r1, ct);
  EXPECT_EQ(kp.sk.decrypt(r1).to_u64(), 777u);
}

TEST_F(PaillierFixture, DeterministicEncryptIsAdditive) {
  // (1+n)^m has no randomness; still decrypts correctly.
  auto ct = kp.pk.encrypt_deterministic(BigUint{123456});
  EXPECT_EQ(kp.sk.decrypt(ct).to_u64(), 123456u);
}

TEST_F(PaillierFixture, CrtMatchesTextbookDecrypt) {
  for (int i = 0; i < 10; ++i) {
    BigUint m = bn::random_below(rng, kp.pk.n());
    auto ct = kp.pk.encrypt(m, rng);
    EXPECT_EQ(kp.sk.decrypt(ct), kp.sk.decrypt_no_crt(ct));
  }
}

TEST_F(PaillierFixture, DecryptRejectsMalformed) {
  EXPECT_THROW(kp.sk.decrypt({kp.pk.n_squared()}), std::out_of_range);
  EXPECT_THROW(kp.sk.decrypt({BigUint{}}), std::out_of_range);
}

TEST_F(PaillierFixture, DecryptRejectsNonUnitCiphertexts) {
  // A ciphertext sharing a factor with n (only constructible by someone who
  // knows the factorization) must fail cleanly, not underflow.
  EXPECT_THROW(kp.sk.decrypt({kp.sk.p()}), std::invalid_argument);
  EXPECT_THROW(kp.sk.decrypt({kp.sk.q() * kp.sk.q()}), std::invalid_argument);
  EXPECT_THROW(kp.sk.decrypt_no_crt({kp.pk.n()}), std::invalid_argument);
}

TEST_F(PaillierFixture, NegateIsTheCanonicalInverseModNSquared) {
  const BigUint& n2 = kp.pk.n_squared();
  std::vector<BigUint> cs = {BigUint{1}, BigUint{2}, n2 - BigUint{1}};
  for (std::uint64_t i = 0; i < 6; ++i)
    cs.push_back(kp.pk.encrypt(BigUint{i}, rng).value);
  for (const auto& c : cs) {
    EXPECT_EQ(kp.pk.negate({c}).value, *bn::mod_inverse(c, n2));
    // A non-canonical representative negates to the same inverse.
    EXPECT_EQ(kp.pk.negate({c + n2}).value, *bn::mod_inverse(c, n2));
  }
  EXPECT_THROW(kp.pk.negate({BigUint{0}}), std::invalid_argument);
  EXPECT_THROW(kp.pk.negate({kp.sk.p() * BigUint{5}}), std::invalid_argument);
}

TEST_F(PaillierFixture, NegateManyMatchesPerEntryInverse) {
  const BigUint& n2 = kp.pk.n_squared();
  for (std::size_t size : {0u, 1u, 2u, 6u, 64u}) {
    std::vector<PaillierCiphertext> cs(size);
    for (std::size_t i = 0; i < size; ++i)
      cs[i] = kp.pk.encrypt(BigUint{i}, rng);
    if (size > 1) cs[1].value = BigUint{1};  // a fixed point among them
    auto inv = kp.pk.negate_many(cs);
    ASSERT_EQ(inv.size(), size);
    for (std::size_t i = 0; i < size; ++i)
      EXPECT_EQ(inv[i].value, *bn::mod_inverse(cs[i].value, n2))
          << "size " << size << " entry " << i;
  }
}

TEST_F(PaillierFixture, NegateManyFailsWholeBatchOnAnyNonUnit) {
  std::vector<PaillierCiphertext> cs(6);
  for (auto& c : cs) c = kp.pk.encrypt(BigUint{7}, rng);
  const BigUint hostile[] = {BigUint{0}, kp.sk.p() * BigUint{3},
                             kp.sk.q() * kp.sk.q(), kp.pk.n_squared()};
  for (std::size_t pos = 0; pos < cs.size(); ++pos) {
    for (const auto& h : hostile) {
      auto bad = cs;
      bad[pos].value = h;
      EXPECT_THROW((void)kp.pk.negate_many(bad), std::invalid_argument)
          << "position " << pos;
    }
  }
}

TEST_F(PaillierFixture, AllUnitsRejectsZeroWideAndSharedFactors) {
  std::vector<PaillierCiphertext> cs(4);
  for (auto& c : cs) c = kp.pk.encrypt(BigUint{3}, rng);
  EXPECT_TRUE(kp.pk.all_units(cs));
  EXPECT_TRUE(kp.pk.all_units({}));
  for (const BigUint& h :
       {BigUint{0}, kp.pk.n_squared(), kp.pk.n_squared() + BigUint{1},
        kp.sk.p() * BigUint{11}, kp.pk.n()}) {
    auto bad = cs;
    bad[2].value = h;
    EXPECT_FALSE(kp.pk.all_units(bad));
  }
}

TEST_F(PaillierFixture, EncryptSignedRejectsTooWide) {
  BigInt toowide{kp.pk.n(), false};
  EXPECT_THROW(kp.pk.encrypt_signed(toowide, rng), std::out_of_range);
}

TEST(PaillierKeygen, RejectsBadParameters) {
  ChaChaRng rng{std::uint64_t{1}};
  EXPECT_THROW(paillier_generate(8, rng), std::invalid_argument);
  EXPECT_THROW(paillier_generate(513, rng), std::invalid_argument);
  EXPECT_THROW(PaillierPrivateKey(BigUint{7}, BigUint{7}), std::invalid_argument);
}

TEST(PaillierKeygen, DistinctKeysFromDistinctSeeds) {
  ChaChaRng r1{std::uint64_t{10}}, r2{std::uint64_t{20}};
  auto k1 = paillier_generate(128, r1, 8);
  auto k2 = paillier_generate(128, r2, 8);
  EXPECT_NE(k1.pk.n(), k2.pk.n());
}

class PaillierKeySizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PaillierKeySizeSweep, RoundTripAcrossKeySizes) {
  ChaChaRng rng{GetParam()};
  auto kp = paillier_generate(GetParam(), rng, 12);
  BigUint m = bn::random_bits(rng, std::min<std::size_t>(60, GetParam() / 4));
  EXPECT_EQ(kp.sk.decrypt(kp.pk.encrypt(m, rng)), m);
}

INSTANTIATE_TEST_SUITE_P(Bits, PaillierKeySizeSweep,
                         ::testing::Values(128, 256, 512, 1024));

TEST(Paillier2048Smoke, FullScaleKeyWorks) {
  // One end-to-end pass at the paper's production size (n = 2048 bits).
  ChaChaRng rng{std::uint64_t{2048}};
  auto kp = paillier_generate(2048, rng, 8);
  BigUint m = bn::random_bits(rng, 60);  // paper's 60-bit integer representation
  auto ct = kp.pk.encrypt(m, rng);
  EXPECT_EQ(kp.sk.decrypt(ct), m);
  EXPECT_EQ(kp.pk.ciphertext_bytes(), 512u);  // 4096-bit ciphertext (Table II)
}

}  // namespace
}  // namespace pisa::crypto

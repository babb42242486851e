#include "bigint/modular.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "bigint/montgomery.hpp"
#include "bigint/prime.hpp"
#include "bigint/random_source.hpp"

namespace pisa::bn {
namespace {

// Slow reference modexp via plain square-and-multiply with divmod, used to
// cross-check the Montgomery path.
BigUint ref_mod_pow(const BigUint& base, const BigUint& exp, const BigUint& m) {
  BigUint result{1};
  BigUint b = base % m;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = result * result % m;
    if (exp.bit(i)) result = result * b % m;
  }
  return result;
}

// Reference oracles: the BigUint-temporary implementations that the
// fixed-width limb cores replaced. gcd and inverses are unique, so the new
// cores must agree with them bit for bit.
BigUint ref_gcd_euclid(BigUint a, BigUint b) {
  while (!b.is_zero()) {
    BigUint r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

std::optional<BigUint> ref_inverse_binary_odd(const BigUint& a, const BigUint& m) {
  BigUint u = a % m;
  if (u.is_zero()) return std::nullopt;
  BigUint v = m;
  BigUint x1{1}, x2{0};
  auto half_mod = [&m](BigUint& x) {
    if (x.is_odd()) x += m;
    x >>= 1;
  };
  auto sub_mod = [&m](BigUint& x, const BigUint& y) {
    if (x >= y) {
      x -= y;
    } else {
      x += m;
      x -= y;
    }
  };
  while (!u.is_zero()) {
    while (u.is_even()) {
      u >>= 1;
      half_mod(x1);
    }
    if (u < v) {
      std::swap(u, v);
      std::swap(x1, x2);
    }
    u -= v;
    sub_mod(x1, x2);
  }
  if (v != BigUint{1}) return std::nullopt;
  return x2;
}

TEST(Gcd, MatchesEuclidReferenceFrom64To4096Bits) {
  SplitMix64Random rng{17};
  for (std::size_t bits : {64u, 65u, 127u, 512u, 1024u, 2048u, 4096u}) {
    for (int trial = 0; trial < 6; ++trial) {
      const BigUint a = random_bits(rng, bits);
      const BigUint b = random_bits(rng, bits - bits / 3);
      // A planted common factor with trailing zeros, so the gcd is
      // neither 1 nor a power of two.
      const BigUint f = random_bits(rng, bits / 4 + 1) << (trial * 7);
      EXPECT_EQ(gcd(a, b), ref_gcd_euclid(a, b)) << bits;
      EXPECT_EQ(gcd(b, a), ref_gcd_euclid(a, b)) << bits;
      EXPECT_EQ(gcd(a * f, b * f), ref_gcd_euclid(a * f, b * f)) << bits;
    }
    const BigUint a = random_bits(rng, bits) + BigUint{1};
    EXPECT_EQ(gcd(a, a), a);
    EXPECT_EQ(gcd(a, a * BigUint{6}), a);
    EXPECT_EQ(gcd(BigUint{1} << bits, BigUint{3} << (bits / 2)),
              BigUint{1} << (bits / 2));
    EXPECT_EQ(gcd(a, BigUint{1}).to_u64(), 1u);
  }
}

TEST(ModInverse, MatchesBinaryReferenceFrom64To4096Bits) {
  SplitMix64Random rng{19};
  for (std::size_t bits : {64u, 65u, 127u, 512u, 1024u, 2048u, 4096u}) {
    BigUint m = random_bits(rng, bits);
    m.set_bit(bits - 1);
    m.set_bit(0);
    for (int trial = 0; trial < 8; ++trial) {
      // Random operands, every third one wider than the modulus.
      BigUint a = random_bits(rng, bits + (trial % 3 == 0 ? 40 : 0));
      EXPECT_EQ(mod_inverse(a, m), ref_inverse_binary_odd(a, m)) << bits;
    }
    for (const BigUint& a : {BigUint{1}, BigUint{2}, m - BigUint{1}, m,
                             m + BigUint{1}, m << 1}) {
      EXPECT_EQ(mod_inverse(a, m), ref_inverse_binary_odd(a, m)) << bits;
    }
    const BigUint m3 = m * BigUint{3};
    const BigUint a3 = random_bits(rng, bits) * BigUint{3};
    EXPECT_FALSE(mod_inverse(a3, m3).has_value()) << bits;
    EXPECT_EQ(mod_inverse(a3 + BigUint{1}, m3),
              ref_inverse_binary_odd(a3 + BigUint{1}, m3))
        << bits;
  }
}

TEST(Gcd, KnownValues) {
  EXPECT_EQ(gcd(BigUint{12}, BigUint{18}).to_u64(), 6u);
  EXPECT_EQ(gcd(BigUint{17}, BigUint{13}).to_u64(), 1u);
  EXPECT_EQ(gcd(BigUint{0}, BigUint{5}).to_u64(), 5u);
  EXPECT_EQ(gcd(BigUint{5}, BigUint{0}).to_u64(), 5u);
  EXPECT_EQ(gcd(BigUint{}, BigUint{}).to_u64(), 0u);
}

TEST(Gcd, DividesBothOperands) {
  SplitMix64Random rng{7};
  for (int i = 0; i < 50; ++i) {
    BigUint a = random_bits(rng, 256);
    BigUint b = random_bits(rng, 192);
    if (a.is_zero() || b.is_zero()) continue;
    BigUint g = gcd(a, b);
    EXPECT_TRUE((a % g).is_zero());
    EXPECT_TRUE((b % g).is_zero());
  }
}

TEST(Lcm, GcdLcmProductIdentity) {
  SplitMix64Random rng{11};
  for (int i = 0; i < 30; ++i) {
    BigUint a = random_bits(rng, 128) + BigUint{1};
    BigUint b = random_bits(rng, 128) + BigUint{1};
    EXPECT_EQ(gcd(a, b) * lcm(a, b), a * b);
  }
  EXPECT_TRUE(lcm(BigUint{}, BigUint{5}).is_zero());
}

TEST(ModInverse, ProducesInverse) {
  SplitMix64Random rng{13};
  for (int i = 0; i < 40; ++i) {
    BigUint m = random_bits(rng, 200) + BigUint{2};
    BigUint a = random_coprime(rng, m);
    auto inv = mod_inverse(a, m);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(mod_mul(a, *inv, m).to_u64(), 1u);
  }
}

TEST(ModInverse, NonCoprimeReturnsNullopt) {
  EXPECT_FALSE(mod_inverse(BigUint{6}, BigUint{9}).has_value());
  EXPECT_FALSE(mod_inverse(BigUint{0}, BigUint{7}).has_value());
  EXPECT_TRUE(mod_inverse(BigUint{1}, BigUint{2}).has_value());
}

TEST(ModInverse, KnownSmallValues) {
  EXPECT_EQ(mod_inverse(BigUint{3}, BigUint{7})->to_u64(), 5u);
  EXPECT_EQ(mod_inverse(BigUint{10}, BigUint{17})->to_u64(), 12u);
}

TEST(ModPow, SmallKnownValues) {
  EXPECT_EQ(mod_pow(BigUint{2}, BigUint{10}, BigUint{1000}).to_u64(), 24u);
  EXPECT_EQ(mod_pow(BigUint{3}, BigUint{0}, BigUint{7}).to_u64(), 1u);
  EXPECT_EQ(mod_pow(BigUint{0}, BigUint{5}, BigUint{7}).to_u64(), 0u);
  EXPECT_EQ(mod_pow(BigUint{7}, BigUint{1}, BigUint{5}).to_u64(), 2u);
}

TEST(ModPow, FermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p and a not divisible by p.
  BigUint p = BigUint::from_dec("170141183460469231731687303715884105727");  // 2^127-1
  SplitMix64Random rng{17};
  for (int i = 0; i < 10; ++i) {
    BigUint a = random_below(rng, p - BigUint{1}) + BigUint{1};
    EXPECT_EQ(mod_pow(a, p - BigUint{1}, p).to_u64(), 1u);
  }
}

class ModPowCrossCheck : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ModPowCrossCheck, MontgomeryMatchesReference) {
  SplitMix64Random rng{GetParam()};
  std::size_t bits = GetParam();
  for (int i = 0; i < 5; ++i) {
    BigUint m = random_bits(rng, bits);
    m.set_bit(0);  // force odd
    m.set_bit(bits - 1);
    BigUint base = random_below(rng, m);
    BigUint exp = random_bits(rng, bits / 2);
    EXPECT_EQ(mod_pow(base, exp, m), ref_mod_pow(base, exp, m));
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, ModPowCrossCheck,
                         ::testing::Values(64, 65, 128, 256, 512, 1024));

TEST(ModPow, EvenModulusMatchesReference) {
  SplitMix64Random rng{23};
  for (int i = 0; i < 10; ++i) {
    BigUint m = random_bits(rng, 128) + BigUint{2};
    if (m.is_odd()) m += BigUint{1};
    BigUint base = random_below(rng, m);
    BigUint exp = random_bits(rng, 64);
    EXPECT_EQ(mod_pow(base, exp, m), ref_mod_pow(base, exp, m));
  }
}

TEST(ModPow, ExponentLaws) {
  // a^(x+y) == a^x * a^y (mod m)
  SplitMix64Random rng{29};
  BigUint m = random_bits(rng, 256);
  m.set_bit(0);
  m.set_bit(255);
  Montgomery mont{m};
  for (int i = 0; i < 10; ++i) {
    BigUint a = random_below(rng, m);
    BigUint x = random_bits(rng, 100);
    BigUint y = random_bits(rng, 100);
    EXPECT_EQ(mont.pow(a, x + y), mont.mul(mont.pow(a, x), mont.pow(a, y)));
  }
}

TEST(Montgomery, MulMatchesDivmodMul) {
  SplitMix64Random rng{31};
  for (std::size_t bits : {64u, 128u, 512u, 2048u}) {
    BigUint m = random_bits(rng, bits);
    m.set_bit(0);
    m.set_bit(bits - 1);
    Montgomery mont{m};
    for (int i = 0; i < 10; ++i) {
      BigUint a = random_below(rng, m);
      BigUint b = random_below(rng, m);
      EXPECT_EQ(mont.mul(a, b), a * b % m);
    }
  }
}

TEST(Montgomery, RejectsEvenModulus) {
  EXPECT_THROW(Montgomery{BigUint{10}}, std::invalid_argument);
  EXPECT_THROW(Montgomery{BigUint{1}}, std::invalid_argument);
  EXPECT_THROW(Montgomery{BigUint{}}, std::invalid_argument);
}

TEST(Montgomery, IdentityAndZero) {
  Montgomery mont{BigUint{101}};
  EXPECT_EQ(mont.mul(BigUint{1}, BigUint{57}).to_u64(), 57u);
  EXPECT_EQ(mont.mul(BigUint{0}, BigUint{57}).to_u64(), 0u);
  EXPECT_EQ(mont.pow(BigUint{0}, BigUint{0}).to_u64(), 1u) << "0^0 := 1";
}

}  // namespace
}  // namespace pisa::bn

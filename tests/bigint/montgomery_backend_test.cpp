// IFMA/scalar Montgomery backend identity at every register-resident
// kernel width (V = k52/8 vectors, 1…16) and across modulus widths on both
// sides of the widest one, through every public kernel; plus the IFMA
// kernel itself on almost-Montgomery inputs in [n, 2n), which the public
// API never hands it directly.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bigint/modular.hpp"
#include "bigint/montgomery.hpp"
#include "bigint/montgomery_ifma.hpp"
#include "bigint/prime.hpp"
#include "bigint/random_source.hpp"

namespace pisa::bn {
namespace {

BigUint random_odd_modulus(RandomSource& rng, std::size_t bits) {
  BigUint m = random_bits(rng, bits);
  m.set_bit(bits - 1);
  m.set_bit(0);
  return m;
}

// IFMA vector count V = k52 / 8 the Montgomery constructor picks for a
// modulus of `bits` bits (R52 = 2^(52·k52) >= 4n, k52 a multiple of 8).
std::size_t ifma_vectors(std::size_t bits) {
  const std::size_t min52 = (bits + 2 + 51) / 52;
  return (min52 + 7) / 8;
}

// Every public kernel on both backends, edge operands (0, 1, n−1) included;
// results must be bit-identical.
void expect_backends_agree(const BigUint& m, RandomSource& rng) {
  const std::size_t bits = m.bit_length();
  std::unique_ptr<Montgomery> ifma;
  try {
    ifma = std::make_unique<Montgomery>(m, Montgomery::Backend::kIfma);
  } catch (const std::invalid_argument&) {
    GTEST_SKIP() << "AVX-512 IFMA not available on this host";
  }
  Montgomery scalar{m, Montgomery::Backend::kScalar};
  ASSERT_FALSE(scalar.uses_ifma());
  // Above the widest register-resident kernel the scalar path serves.
  ASSERT_EQ(ifma->uses_ifma(), ifma_vectors(bits) <= ifma::kMaxVectors)
      << bits << " bits";

  std::vector<BigUint> ops = {BigUint{0}, BigUint{1}, m - BigUint{1}};
  for (int i = 0; i < 4; ++i) ops.push_back(random_below(rng, m));
  // Short exponents keep the 16 widths fast; every ladder step is one
  // kernel call either way.
  const BigUint x = random_bits(rng, 96);
  const BigUint y = random_bits(rng, 61);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const BigUint& a = ops[i];
    const BigUint& b = ops[(i + 1) % ops.size()];
    EXPECT_EQ(ifma->sqr(a), scalar.sqr(a)) << bits;
    EXPECT_EQ(ifma->pow(a, x), scalar.pow(a, x)) << bits;
    EXPECT_EQ(ifma->pow2_mul(a, x, b, y, ops.back()),
              scalar.pow2_mul(a, x, b, y, ops.back()))
        << bits;
    for (const auto& c : ops) EXPECT_EQ(ifma->mul(a, c), scalar.mul(a, c)) << bits;
  }
  EXPECT_EQ(ifma->product(ops), scalar.product(ops)) << bits;
}

TEST(MontgomeryBackend, IfmaAndScalarAgreeAcrossModulusWidths) {
  SplitMix64Random rng{163};
  for (std::size_t bits :
       {300u, 520u, 1024u, 1500u, 2048u, 2600u, 3072u, 3600u, 4096u, 8000u}) {
    expect_backends_agree(random_odd_modulus(rng, bits), rng);
    if (HasFatalFailure() || IsSkipped()) return;
  }
}

TEST(MontgomeryBackend, IfmaAndScalarAgreeAtEveryKernelWidth) {
  SplitMix64Random rng{167};
  for (std::size_t v = 1; v <= ifma::kMaxVectors; ++v) {
    // The widest and the narrowest modulus that select V vectors.
    const std::size_t widest = 52 * 8 * v - 2;
    const std::size_t narrowest = v == 1 ? 64 : 52 * 8 * (v - 1) - 1;
    ASSERT_EQ(ifma_vectors(widest), v);
    ASSERT_EQ(ifma_vectors(narrowest), v);
    for (std::size_t bits : {narrowest, widest}) {
      expect_backends_agree(random_odd_modulus(rng, bits), rng);
      if (HasFatalFailure() || IsSkipped()) return;
    }
  }
}

// Radix-52 limbs of `v`, zero-padded to k52.
std::vector<std::uint64_t> to52(const BigUint& v, std::size_t k52) {
  std::vector<std::uint64_t> out(k52, 0);
  for (std::size_t i = 0; i < k52; ++i)
    for (std::size_t bit = 0; bit < 52; ++bit)
      if (v.bit(52 * i + bit)) out[i] |= std::uint64_t{1} << bit;
  return out;
}

BigUint from52(const std::vector<std::uint64_t>& limbs) {
  BigUint v;
  for (std::size_t i = limbs.size(); i-- > 0;)
    v = (v << 52) + BigUint{limbs[i]};
  return v;
}

TEST(MontgomeryBackend, KernelAcceptsAlmostMontgomeryInputsAtEveryWidth) {
  if (!ifma::available()) GTEST_SKIP() << "AVX-512 IFMA not available";
  SplitMix64Random rng{173};
  for (std::size_t v = 1; v <= ifma::kMaxVectors; ++v) {
    const std::size_t k52 = 8 * v;
    const ifma::AmmKernel kernel = ifma::kernel_for(k52);
    ASSERT_NE(kernel, nullptr) << v;
    // Widest modulus for this width: R52 = 2^(52·k52) is exactly 4n-safe.
    const BigUint n = random_odd_modulus(rng, 52 * k52 - 2);
    const BigUint r52 = BigUint{1} << (52 * k52);
    const BigUint r_inv = *mod_inverse(r52 % n, n);
    std::uint64_t n0inv = 0;  // -n^{-1} mod 2^52
    {
      const std::uint64_t n0 = n.low_u64();
      std::uint64_t inv = n0;
      for (int i = 0; i < 5; ++i) inv *= 2 - n0 * inv;
      n0inv = (~inv + 1) & ((std::uint64_t{1} << 52) - 1);
    }
    const auto n52 = to52(n, k52);
    const BigUint two_n = n + n;
    std::vector<BigUint> ops = {n, two_n - BigUint{1}, BigUint{0},
                                n - BigUint{1}};
    for (int i = 0; i < 3; ++i) ops.push_back(n + random_below(rng, n));
    for (const auto& a : ops) {
      for (const auto& b : ops) {
        const auto a52 = to52(a, k52);
        const auto b52 = to52(b, k52);
        std::vector<std::uint64_t> out(k52);
        kernel(a52.data(), b52.data(), n52.data(), n0inv, out.data());
        const BigUint r = from52(out);
        EXPECT_LT(r, two_n) << v << " vectors";
        EXPECT_EQ(r % n, a * b % n * r_inv % n) << v << " vectors";
      }
    }
  }
  EXPECT_EQ(ifma::kernel_for(8 * (ifma::kMaxVectors + 1)), nullptr);
  EXPECT_EQ(ifma::kernel_for(12), nullptr);
}

}  // namespace
}  // namespace pisa::bn

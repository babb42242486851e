// The allocation-free Montgomery kernel layer: dedicated squaring vs
// multiplication, fused multi-exponentiation (pow_mul / pow2 / pow2_mul),
// Montgomery-domain product folds, the operand-validation contract at the
// public boundary, FixedBaseTable window extremes, scalar-vs-IFMA backend
// bit-identity, and the steady-state zero-allocation guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include "bigint/montgomery.hpp"
#include "bigint/prime.hpp"
#include "bigint/random_source.hpp"

// --- global allocator hook ---------------------------------------------
// Counts every heap allocation in the test binary. The steady-state tests
// snapshot the counter around kernel calls; everything else ignores it.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

// The workspace and IFMA limb buffers use the aligned forms.
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pisa::bn {
namespace {

BigUint ref_mul(const BigUint& a, const BigUint& b, const BigUint& m) {
  return a * b % m;
}

BigUint ref_pow(const BigUint& base, const BigUint& e, const BigUint& m) {
  BigUint acc{1};
  acc = acc % m;
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = ref_mul(acc, acc, m);
    if (e.bit(i)) acc = ref_mul(acc, base, m);
  }
  return acc;
}

BigUint random_odd_modulus(RandomSource& rng, std::size_t bits) {
  BigUint m = random_bits(rng, bits);
  m.set_bit(bits - 1);
  m.set_bit(0);
  return m;
}

TEST(MontgomeryKernel, SquaringMatchesMultiplicationAcrossLimbCounts) {
  SplitMix64Random rng{101};
  for (std::size_t limbs = 1; limbs <= 5; ++limbs) {
    // Bit lengths straddling each limb boundary, not just multiples of 64.
    for (std::size_t bits : {limbs * 64 - 7, limbs * 64 - 1, limbs * 64}) {
      BigUint m = random_odd_modulus(rng, bits);
      Montgomery mont{m};
      for (int trial = 0; trial < 25; ++trial) {
        BigUint a = random_below(rng, m);
        EXPECT_EQ(mont.sqr(a), mont.mul(a, a)) << bits << " bits";
        EXPECT_EQ(mont.sqr(a), ref_mul(a, a, m)) << bits << " bits";
      }
      // Boundary operands.
      BigUint top = m - BigUint{1};
      EXPECT_EQ(mont.sqr(top), ref_mul(top, top, m));
      EXPECT_EQ(mont.sqr(BigUint{0}).to_u64(), 0u);
      EXPECT_EQ(mont.sqr(BigUint{1}).to_u64(), 1u);
    }
  }
}

TEST(MontgomeryKernel, RawSqrMatchesRawMul) {
  SplitMix64Random rng{103};
  MontgomeryWorkspace ws;
  for (std::size_t limbs = 1; limbs <= 5; ++limbs) {
    BigUint m = random_odd_modulus(rng, limbs * 64);
    Montgomery mont{m, Montgomery::Backend::kScalar};
    ASSERT_EQ(mont.limbs(), limbs);
    std::vector<std::uint64_t> a(limbs), s(limbs), p(limbs);
    for (int trial = 0; trial < 25; ++trial) {
      BigUint av = random_below(rng, m);
      std::fill(a.begin(), a.end(), 0);
      std::copy(av.limbs().begin(), av.limbs().end(), a.begin());
      mont.sqr_raw(a.data(), s.data(), ws);
      mont.mul_raw(a.data(), a.data(), p.data(), ws);
      EXPECT_EQ(s, p) << limbs << " limbs";
    }
  }
}

TEST(MontgomeryKernel, OutOfRangeOperandsThrowAtPublicBoundary) {
  BigUint m = BigUint::from_dec("1000003");
  Montgomery mont{m};
  const BigUint at = m;
  const BigUint above = m + BigUint{5};
  const BigUint ok{7};
  EXPECT_THROW((void)mont.mul(at, ok), std::out_of_range);
  EXPECT_THROW((void)mont.mul(ok, above), std::out_of_range);
  EXPECT_THROW((void)mont.sqr(at), std::out_of_range);
  EXPECT_THROW((void)mont.pow(above, ok), std::out_of_range);
  EXPECT_THROW((void)mont.pow_mul(ok, ok, at), std::out_of_range);
  EXPECT_THROW((void)mont.pow2(at, ok, ok, ok), std::out_of_range);
  EXPECT_THROW((void)mont.pow2_mul(ok, ok, above, ok, ok), std::out_of_range);
  const BigUint vals[] = {ok, at};
  EXPECT_THROW((void)mont.product(vals), std::out_of_range);
  // Exponents are unrestricted: only bases/factors are range-checked.
  EXPECT_EQ(mont.pow(ok, above), ref_pow(ok, above, m));
}

TEST(MontgomeryKernel, PowMulFusesExitMultiplication) {
  SplitMix64Random rng{107};
  for (std::size_t bits : {64u, 256u, 1024u}) {
    BigUint m = random_odd_modulus(rng, bits);
    Montgomery mont{m};
    for (int trial = 0; trial < 10; ++trial) {
      BigUint b = random_below(rng, m);
      BigUint e = random_bits(rng, bits / 2 + 1);
      BigUint f = random_below(rng, m);
      EXPECT_EQ(mont.pow_mul(b, e, f), ref_mul(ref_pow(b, e, m), f, m)) << bits;
    }
    // exp == 0 returns the factor unchanged.
    BigUint f = random_below(rng, m);
    EXPECT_EQ(mont.pow_mul(BigUint{5} % m, BigUint{0}, f), f);
  }
}

TEST(MontgomeryKernel, Pow2MatchesTwoIndependentExponentiations) {
  SplitMix64Random rng{109};
  for (std::size_t bits : {64u, 192u, 1024u}) {
    BigUint m = random_odd_modulus(rng, bits);
    Montgomery mont{m};
    for (int trial = 0; trial < 10; ++trial) {
      BigUint a = random_below(rng, m);
      BigUint b = random_below(rng, m);
      // Deliberately unbalanced exponent widths: the shared ladder must
      // handle one exponent running out of bits early.
      BigUint x = random_bits(rng, bits);
      BigUint y = random_bits(rng, bits / 3 + 1);
      BigUint expect = ref_mul(ref_pow(a, x, m), ref_pow(b, y, m), m);
      EXPECT_EQ(mont.pow2(a, x, b, y), expect) << bits;
      BigUint f = random_below(rng, m);
      EXPECT_EQ(mont.pow2_mul(a, x, b, y, f), ref_mul(expect, f, m)) << bits;
    }
    // Degenerate exponents.
    BigUint a = random_below(rng, m);
    BigUint b = random_below(rng, m);
    BigUint x = random_bits(rng, 80);
    EXPECT_EQ(mont.pow2(a, x, b, BigUint{0}), ref_pow(a, x, m));
    EXPECT_EQ(mont.pow2(a, BigUint{0}, b, x), ref_pow(b, x, m));
    EXPECT_EQ(mont.pow2(a, BigUint{0}, b, BigUint{0}).to_u64(), 1u);
  }
}

TEST(MontgomeryKernel, ProductFoldsManyFactors) {
  SplitMix64Random rng{113};
  for (std::size_t bits : {64u, 320u}) {
    BigUint m = random_odd_modulus(rng, bits);
    Montgomery mont{m};
    // Counts straddling powers of two exercise every R-power fixup shape.
    for (std::size_t count : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 31u, 64u}) {
      std::vector<BigUint> vals(count);
      BigUint expect{1};
      expect = expect % m;
      for (auto& v : vals) {
        v = random_below(rng, m);
        expect = ref_mul(expect, v, m);
      }
      EXPECT_EQ(mont.product(vals), expect) << bits << " bits x" << count;
    }
    EXPECT_EQ(mont.product({}).to_u64(), 1u);
  }
}

TEST(FixedBaseTableEdge, ExponentExactlyAtTableWidth) {
  SplitMix64Random rng{127};
  BigUint m = random_odd_modulus(rng, 256);
  Montgomery mont{m};
  BigUint base = random_below(rng, m);
  for (std::size_t max_bits : {5u, 64u, 100u}) {
    FixedBaseTable table{mont, base, max_bits};
    // Top bit set: the exponent occupies every window the table has.
    BigUint e = random_bits(rng, max_bits);
    e.set_bit(max_bits - 1);
    EXPECT_EQ(table.pow(e), mont.pow(base, e)) << max_bits;
    // All-ones exponent: every window takes its maximal digit.
    BigUint ones = (BigUint{1} << max_bits) - BigUint{1};
    EXPECT_EQ(table.pow(ones), mont.pow(base, ones)) << max_bits;
    // One past the width must throw.
    EXPECT_THROW((void)table.pow(BigUint{1} << max_bits), std::out_of_range);
  }
}

TEST(FixedBaseTableEdge, WindowWidthExtremes) {
  SplitMix64Random rng{131};
  BigUint m = random_odd_modulus(rng, 192);
  Montgomery mont{m};
  BigUint base = random_below(rng, m);
  for (std::size_t window_bits : {1u, 2u, 7u, 8u}) {
    FixedBaseTable table{mont, base, 96, window_bits};
    for (int trial = 0; trial < 8; ++trial) {
      BigUint e = random_bits(rng, 96);
      EXPECT_EQ(table.pow(e), mont.pow(base, e)) << "w=" << window_bits;
    }
  }
  EXPECT_THROW((FixedBaseTable{mont, base, 96, 0}), std::invalid_argument);
  EXPECT_THROW((FixedBaseTable{mont, base, 96, 9}), std::invalid_argument);
  EXPECT_THROW((FixedBaseTable{mont, base, 0, 4}), std::invalid_argument);
}

TEST(FixedBaseTableEdge, ZeroExponentAndZeroBase) {
  SplitMix64Random rng{137};
  BigUint m = random_odd_modulus(rng, 128);
  Montgomery mont{m};
  BigUint base = random_below(rng, m);
  FixedBaseTable table{mont, base, 64};
  EXPECT_EQ(table.pow(BigUint{0}).to_u64(), 1u);
  FixedBaseTable zero_table{mont, BigUint{0}, 64};
  EXPECT_EQ(zero_table.pow(BigUint{0}).to_u64(), 1u);
  EXPECT_EQ(zero_table.pow(BigUint{17}).to_u64(), 0u);
}

TEST(MontgomeryBackend, IfmaAndScalarAreBitIdentical) {
  SplitMix64Random rng{139};
  BigUint m = random_odd_modulus(rng, 1024);
  std::unique_ptr<Montgomery> ifma;
  try {
    ifma = std::make_unique<Montgomery>(m, Montgomery::Backend::kIfma);
  } catch (const std::invalid_argument&) {
    GTEST_SKIP() << "AVX-512 IFMA not available on this host";
  }
  Montgomery scalar{m, Montgomery::Backend::kScalar};
  ASSERT_TRUE(ifma->uses_ifma());
  ASSERT_FALSE(scalar.uses_ifma());
  for (int trial = 0; trial < 10; ++trial) {
    BigUint a = random_below(rng, m);
    BigUint b = random_below(rng, m);
    BigUint x = random_bits(rng, 512);
    BigUint y = random_bits(rng, 200);
    EXPECT_EQ(ifma->mul(a, b), scalar.mul(a, b));
    EXPECT_EQ(ifma->sqr(a), scalar.sqr(a));
    EXPECT_EQ(ifma->pow(a, x), scalar.pow(a, x));
    EXPECT_EQ(ifma->pow_mul(a, x, b), scalar.pow_mul(a, x, b));
    EXPECT_EQ(ifma->pow2(a, x, b, y), scalar.pow2(a, x, b, y));
    EXPECT_EQ(ifma->pow2_mul(a, x, b, y, a), scalar.pow2_mul(a, x, b, y, a));
  }
  std::vector<BigUint> vals(9);
  for (auto& v : vals) v = random_below(rng, m);
  EXPECT_EQ(ifma->product(vals), scalar.product(vals));

  BigUint base = random_below(rng, m);
  FixedBaseTable ti{*ifma, base, 256};
  FixedBaseTable ts{scalar, base, 256};
  for (int trial = 0; trial < 5; ++trial) {
    BigUint e = random_bits(rng, 256);
    EXPECT_EQ(ti.pow(e), ts.pow(e));
  }
}

TEST(MontgomeryAllocation, RawKernelsAreAllocationFreeInSteadyState) {
  SplitMix64Random rng{149};
  for (auto backend :
       {Montgomery::Backend::kScalar, Montgomery::Backend::kAuto}) {
    BigUint m = random_odd_modulus(rng, 2048);
    Montgomery mont{m, backend};
    MontgomeryWorkspace ws;
    const std::size_t k = mont.limbs();
    std::vector<std::uint64_t> a(k, 0), b(k, 0), out(k, 0);
    BigUint av = random_below(rng, m);
    BigUint bv = random_below(rng, m);
    std::copy(av.limbs().begin(), av.limbs().end(), a.begin());
    std::copy(bv.limbs().begin(), bv.limbs().end(), b.begin());
    BigUint ev = random_bits(rng, 2048);
    std::vector<std::uint64_t> e(ev.limbs().begin(), ev.limbs().end());

    // Warm-up sizes every workspace slot.
    mont.mul_raw(a.data(), b.data(), out.data(), ws);
    mont.sqr_raw(a.data(), out.data(), ws);
    mont.pow_raw(a.data(), e, out.data(), ws);

    const std::uint64_t before = g_alloc_count.load();
    for (int i = 0; i < 3; ++i) {
      mont.mul_raw(a.data(), b.data(), out.data(), ws);
      mont.sqr_raw(a.data(), out.data(), ws);
      mont.pow_raw(a.data(), e, out.data(), ws);
    }
    EXPECT_EQ(g_alloc_count.load(), before)
        << "raw kernels allocated on backend "
        << (mont.uses_ifma() ? "ifma" : "scalar");
  }
}

TEST(MontgomeryAllocation, WorkspaceBuffersStartOnCacheLines) {
  SplitMix64Random rng{157};
  for (auto backend :
       {Montgomery::Backend::kScalar, Montgomery::Backend::kAuto}) {
    for (std::size_t bits : {520, 1024, 2048}) {
      BigUint m = random_odd_modulus(rng, bits);
      Montgomery mont{m, backend};
      MontgomeryWorkspace ws;
      BigUint a = random_below(rng, m);
      (void)mont.pow(a, random_bits(rng, bits), ws);
      (void)mont.mul(a, a, ws);
      ASSERT_GT(ws.capacity_limbs(), 0u);
      EXPECT_TRUE(ws.cache_line_aligned())
          << bits << "-bit modulus on backend "
          << (mont.uses_ifma() ? "ifma" : "scalar");
    }
  }
}

TEST(MontgomeryAllocation, BigUintPowAllocatesOnlyTheResult) {
  SplitMix64Random rng{151};
  BigUint m = random_odd_modulus(rng, 1024);
  Montgomery mont{m};
  MontgomeryWorkspace ws;
  BigUint base = random_below(rng, m);
  BigUint e = random_bits(rng, 1024);
  (void)mont.pow(base, e, ws);  // warm-up
  const std::uint64_t before = g_alloc_count.load();
  BigUint r = mont.pow(base, e, ws);
  // One allocation for the result's limb vector; nothing from the kernels.
  EXPECT_LE(g_alloc_count.load() - before, 2u);
  EXPECT_EQ(r, ref_pow(base, e, m));
}

}  // namespace
}  // namespace pisa::bn

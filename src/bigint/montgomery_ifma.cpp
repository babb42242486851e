#include "bigint/montgomery_ifma.hpp"

#include <array>
#include <cassert>
#include <utility>

#if defined(__x86_64__) || defined(_M_X64)
#define PISA_IFMA_X86 1
#include <immintrin.h>
#else
#define PISA_IFMA_X86 0
#endif

namespace pisa::bn::ifma {

namespace {
constexpr std::uint64_t kMask52 = (std::uint64_t{1} << 52) - 1;
}

#if PISA_IFMA_X86

bool available() {
  static const bool ok = __builtin_cpu_supports("avx512ifma") &&
                         __builtin_cpu_supports("avx512vl");
  return ok;
}

namespace {

// Lane j of x as a 64-bit integer (vmovq / vpextrq for j < 2). Written as
// a vector subscript, and the shifts below as the all-lanes masked form,
// because GCC 12 flags the undefined pass-through operands inside
// _mm512_castsi512_si128 and _mm512_alignr_epi64 as uninitialized; the
// instructions emitted are the same.
template <int J>
__attribute__((target("avx512f,avx512vl")))
inline std::uint64_t lane(__m512i x) {
  return static_cast<std::uint64_t>(reinterpret_cast<__v8di>(x)[J]);
}

// Lanes 1..7 of lo followed by lane 0 of hi: one valignq.
__attribute__((target("avx512f,avx512vl")))
inline __m512i shift_down(__m512i hi, __m512i lo) {
  return _mm512_maskz_alignr_epi64(0xFF, hi, lo, 1);
}

// Low and high 52-bit halves of the 104-bit product of two 52-bit limbs,
// as vpmadd52luq / vpmadd52huq compute them.
inline std::uint64_t lo52(std::uint64_t x, std::uint64_t y) {
  return (x * y) & kMask52;
}
inline std::uint64_t hi52(std::uint64_t x, std::uint64_t y) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(x) * y) >> 52);
}

// One operand-scanning pass per limb of `a` over V = k52/8 vectors that
// stay in zmm registers for the whole multiplication. Each pass adds the
// low halves of a_i·b and m·n, retires the now-zero bottom limb by
// shifting every lane down one position (valignq across the vector seams),
// then adds the high halves at their post-shift positions.
//
// The a_i·b terms and the m·n terms go to separate accumulators (A and B):
// A never depends on m, so it runs ahead at full multiplier throughput,
// and only B waits for the Montgomery digit. m needs just lane 0 of A + B,
// and that is computed in scalar registers: lane 0 after pass i is
//   A'.lane0 + B.lane1 + lo(m_i·n_1) + hi(m_i·n_0) + carry,
// where B.lane1 is read before pass i's m-terms land, so the digit chain
// runs through two multiplies per limb instead of through the vector
// madd → shift → madd latency. The retired limb's carry (its bits above 52)
// stays in a scalar as well. Lanes hold redundant (>52-bit) partial sums;
// with k52 <= 2^7 passes and two < 2^52 contributions per lane per pass in
// each accumulator, A + B cannot overflow 64 bits. The carries are
// resolved once, after the last pass.
template <std::size_t V>
__attribute__((target("avx512f,avx512ifma,avx512vl")))
void amm_fixed(const std::uint64_t* a, const std::uint64_t* b,
               const std::uint64_t* n, std::uint64_t n0inv,
               std::uint64_t* out) {
  constexpr std::size_t k = 8 * V;
  __m512i acc_a[V], acc_b[V], bv[V], nv[V];
#pragma GCC unroll 16
  for (std::size_t v = 0; v < V; ++v) {
    acc_a[v] = _mm512_setzero_si512();
    acc_b[v] = _mm512_setzero_si512();
    bv[v] = _mm512_loadu_si512(b + 8 * v);
    nv[v] = _mm512_loadu_si512(n + 8 * v);
  }
  const __m512i zero = _mm512_setzero_si512();
  const std::uint64_t b0 = b[0], n0 = n[0], n1 = n[1];
  std::uint64_t lane0 = 0;  // lane 0 of A + B, carry included
  std::uint64_t carry = 0;  // bits above 52 of the last retired limb
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t ai = a[i];
    const std::uint64_t t0 = lane0 + lo52(ai, b0);
    const std::uint64_t m = (t0 * n0inv) & kMask52;
    // t0 + lo(m·n0) ≡ 0 (mod 2^52): only its carry survives the shift.
    carry = (t0 + lo52(m, n0)) >> 52;
    const std::uint64_t b_lane1 = lane<1>(acc_b[0]);

    const __m512i av = _mm512_set1_epi64(static_cast<long long>(ai));
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v)
      acc_a[v] = _mm512_madd52lo_epu64(acc_a[v], av, bv[v]);
#pragma GCC unroll 16
    for (std::size_t v = 0; v + 1 < V; ++v)
      acc_a[v] = shift_down(acc_a[v + 1], acc_a[v]);
    acc_a[V - 1] = shift_down(zero, acc_a[V - 1]);
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v)
      acc_a[v] = _mm512_madd52hi_epu64(acc_a[v], av, bv[v]);

    const __m512i mv = _mm512_set1_epi64(static_cast<long long>(m));
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v)
      acc_b[v] = _mm512_madd52lo_epu64(acc_b[v], mv, nv[v]);
#pragma GCC unroll 16
    for (std::size_t v = 0; v + 1 < V; ++v)
      acc_b[v] = shift_down(acc_b[v + 1], acc_b[v]);
    acc_b[V - 1] = shift_down(zero, acc_b[V - 1]);
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v)
      acc_b[v] = _mm512_madd52hi_epu64(acc_b[v], mv, nv[v]);

    lane0 = lane<0>(acc_a[0]) + b_lane1 + lo52(m, n1) + hi52(m, n0) + carry;
  }
#pragma GCC unroll 16
  for (std::size_t v = 0; v < V; ++v)
    _mm512_storeu_si512(out + 8 * v, _mm512_add_epi64(acc_a[v], acc_b[v]));

  // Resolve the redundant lanes into clean 52-bit limbs. Lane 0's pending
  // carry enters first. The value is < 2n < R52, so the final carry out of
  // the top limb is zero.
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint64_t s = out[j] + carry;
    out[j] = s & kMask52;
    carry = s >> 52;
  }
  assert(carry == 0);
}

template <std::size_t... Vs>
constexpr std::array<AmmKernel, sizeof...(Vs)> kernel_table(
    std::index_sequence<Vs...>) {
  return {&amm_fixed<Vs + 1>...};
}

constexpr auto kKernels =
    kernel_table(std::make_index_sequence<kMaxVectors>{});

}  // namespace

AmmKernel kernel_for(std::size_t k52) {
  if (k52 == 0 || k52 % 8 != 0 || k52 / 8 > kMaxVectors) return nullptr;
  return kKernels[k52 / 8 - 1];
}

#else  // !PISA_IFMA_X86

bool available() { return false; }

AmmKernel kernel_for(std::size_t) { return nullptr; }

#endif

}  // namespace pisa::bn::ifma

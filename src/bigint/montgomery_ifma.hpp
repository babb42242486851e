// Internal: AVX-512 IFMA radix-52 almost-Montgomery multiplication engine.
//
// Values live as vectors of k52 52-bit limbs (one per 64-bit lane) and stay
// in "almost Montgomery" form — congruent mod n, bounded by 2n rather than
// n — between operations; R52 = 2^(52·k52) >= 4n keeps that bound closed
// under amm(). Montgomery (montgomery.cpp) owns the domain conversions and
// canonicalization, so results leaving this engine are bit-identical to the
// scalar backend.
//
// Only montgomery.cpp (and the backend tests) include this header.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bigint/cache_aligned.hpp"

namespace pisa::bn::ifma {

/// True when the running CPU supports the avx512ifma + avx512vl kernels.
bool available();

/// out = a·b·R52^{-1} (mod n) for one k52 = 8·V width, with inputs < 2n
/// and output < 2n. `n` is the radix-52 modulus, `n0inv` = -n^{-1} mod
/// 2^52. `out` may alias `a` or `b`.
using AmmKernel = void (*)(const std::uint64_t* a, const std::uint64_t* b,
                           const std::uint64_t* n, std::uint64_t n0inv,
                           std::uint64_t* out);

/// Widest instantiated kernel, in 8-lane vectors (k52 <= 128 limbs, moduli
/// up to 6654 bits); wider moduli run on the scalar backend.
inline constexpr std::size_t kMaxVectors = 16;

/// The register-resident kernel for `k52` limbs, or nullptr when k52 is not
/// a multiple of 8 in [8, 8·kMaxVectors] (or the host is not x86-64).
AmmKernel kernel_for(std::size_t k52);

/// Per-modulus constants in radix-52 form. Filled in by Montgomery's
/// constructor (it owns the BigUint arithmetic for R^2 mod n).
struct Ctx {
  std::size_t k52 = 0;        // 52-bit limb count, multiple of 8
  std::uint64_t n0inv52 = 0;  // -n^{-1} mod 2^52
  AmmKernel kernel = nullptr;  // kernel_for(k52)
  AlignedLimbs n52;    // modulus
  AlignedLimbs r2_52;  // R52^2 mod n (mont form of R52)
  AlignedLimbs one52;  // R52 mod n (mont form of 1)
};

/// out = a·b·R52^{-1} (mod n), with inputs < 2n and output < 2n; `out` may
/// alias `a` or `b`. Must only be called when available() is true.
inline void amm(const Ctx& ctx, const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out) {
  ctx.kernel(a, b, ctx.n52.data(), ctx.n0inv52, out);
}

}  // namespace pisa::bn::ifma

// Montgomery modular arithmetic for odd moduli.
//
// Paillier works mod n^2 and RSA mod n, both odd, so Montgomery
// multiplication and windowed exponentiation carry essentially all of the
// cryptographic cost in this codebase. The kernels are allocation-free in
// steady state: every operation draws scratch from a caller-owned (or
// thread_local) MontgomeryWorkspace, squarings use a dedicated kernel that
// computes only half the limb products, and exponent window digits come
// straight out of the limb array instead of per-bit probes.
//
// On x86-64 hosts with AVX-512 IFMA the multiplication kernel switches to a
// radix-52 vpmadd52 implementation (almost-Montgomery form, values kept
// < 2n between operations, canonicalized on exit); everywhere else the
// portable offset-window CIOS path runs. Both backends produce bit-identical
// canonical results, so protocol outputs do not depend on the host CPU.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bigint/biguint.hpp"
#include "bigint/cache_aligned.hpp"

namespace pisa::bn {

class FixedBaseTable;
class Montgomery;

namespace ifma {
struct Ctx;  // radix-52 AVX-512 IFMA engine context (montgomery_ifma.cpp)
}

/// Reusable scratch memory for Montgomery kernels. Buffers grow on demand
/// and are never shrunk, so after the first call at a given modulus size
/// every kernel runs with zero heap allocations. Not thread-safe: use one
/// workspace per thread (Montgomery::tls_workspace() hands out a
/// thread_local instance when the caller does not manage its own).
class MontgomeryWorkspace {
 public:
  MontgomeryWorkspace() = default;
  MontgomeryWorkspace(const MontgomeryWorkspace&) = delete;
  MontgomeryWorkspace& operator=(const MontgomeryWorkspace&) = delete;
  MontgomeryWorkspace(MontgomeryWorkspace&&) = default;
  MontgomeryWorkspace& operator=(MontgomeryWorkspace&&) = default;

  /// Total limbs currently reserved (observability / tests).
  std::size_t capacity_limbs() const {
    std::size_t total = 0;
    for (const auto& b : bufs_) total += b.capacity();
    return total;
  }

  /// True when every reserved buffer starts on a cache line (tests).
  bool cache_line_aligned() const {
    for (const auto& b : bufs_)
      if (reinterpret_cast<std::uintptr_t>(b.data()) % kCacheLineBytes != 0)
        return false;
    return true;
  }

 private:
  friend class Montgomery;
  friend class FixedBaseTable;

  // Named slots so nested kernels (pow calls mul calls...) never alias.
  enum Slot : std::size_t {
    kScratch = 0,   // CIOS/sqr t-buffer or IFMA canonicalizing store
    kTable,         // window table rows
    kRegs,          // ladder registers (acc, base, base^2, operands)
    kTable2,        // pow2 second table half / product fold
    kSlotCount,
  };

  std::uint64_t* slot(Slot s, std::size_t limbs) {
    auto& b = bufs_[s];
    if (b.size() < limbs) b.resize(limbs);
    return b.data();
  }

  // Cache-line aligned, so the IFMA kernel's 64-byte accesses to every
  // k52-limb (multiple of eight) sub-buffer stay inside one line.
  std::array<AlignedLimbs, kSlotCount> bufs_;
};

/// Precomputed context for arithmetic modulo a fixed odd modulus.
/// Construction costs one big division (for R^2 mod n); each mul is a single
/// Montgomery pass. All const methods are thread-safe (no mutable state);
/// concurrent callers must pass distinct workspaces (the convenience
/// overloads use the calling thread's tls_workspace()).
class Montgomery {
 public:
  using Limb = std::uint64_t;

  /// Kernel backend selection. kAuto probes the CPU at construction and
  /// picks the IFMA engine when available and the modulus is wide enough
  /// to win; kScalar forces the portable path (tests use this to check
  /// cross-backend bit-identity). Moduli wider than the widest IFMA kernel
  /// (6654 bits) run the scalar path under every backend.
  enum class Backend { kAuto, kScalar, kIfma };

  /// Throws std::invalid_argument if `modulus` is even or < 3, or if
  /// Backend::kIfma is requested on a host without AVX-512 IFMA.
  explicit Montgomery(BigUint modulus, Backend backend = Backend::kAuto);
  ~Montgomery();
  Montgomery(Montgomery&&) noexcept;
  Montgomery& operator=(Montgomery&&) noexcept;

  const BigUint& modulus() const { return n_; }

  /// Number of 64-bit limbs in the modulus (the raw-residue width).
  std::size_t limbs() const { return k_; }

  /// True when this context runs the AVX-512 IFMA radix-52 kernels.
  bool uses_ifma() const { return ifma_ != nullptr; }

  /// The calling thread's lazily-created scratch workspace.
  static MontgomeryWorkspace& tls_workspace();

  // All BigUint entry points validate operands (< n) and throw
  // std::out_of_range on violation — under NDEBUG the old assert-only
  // guard silently computed garbage. Exponents are unrestricted.

  /// (a * b) mod n for a, b < n.
  BigUint mul(const BigUint& a, const BigUint& b) const;
  BigUint mul(const BigUint& a, const BigUint& b, MontgomeryWorkspace& ws) const;

  /// (a * a) mod n via the dedicated squaring kernel.
  BigUint sqr(const BigUint& a) const;
  BigUint sqr(const BigUint& a, MontgomeryWorkspace& ws) const;

  /// base^exp mod n via sliding-window Montgomery ladder. base < n.
  BigUint pow(const BigUint& base, const BigUint& exp) const;
  BigUint pow(const BigUint& base, const BigUint& exp, MontgomeryWorkspace& ws) const;

  /// base^exp * mult mod n, fused: the multiplication rides the ladder's
  /// Montgomery-domain exit, so it costs nothing beyond pow().
  BigUint pow_mul(const BigUint& base, const BigUint& exp,
                  const BigUint& mult) const;
  BigUint pow_mul(const BigUint& base, const BigUint& exp, const BigUint& mult,
                  MontgomeryWorkspace& ws) const;

  /// a^x * b^y mod n via Shamir/Straus simultaneous exponentiation: one
  /// shared squaring ladder over max(|x|,|y|) bits instead of two.
  BigUint pow2(const BigUint& a, const BigUint& x, const BigUint& b,
               const BigUint& y) const;
  BigUint pow2(const BigUint& a, const BigUint& x, const BigUint& b,
               const BigUint& y, MontgomeryWorkspace& ws) const;

  /// a^x * b^y * mult mod n (pow2 with the fused exit of pow_mul).
  BigUint pow2_mul(const BigUint& a, const BigUint& x, const BigUint& b,
                   const BigUint& y, const BigUint& mult) const;
  BigUint pow2_mul(const BigUint& a, const BigUint& x, const BigUint& b,
                   const BigUint& y, const BigUint& mult,
                   MontgomeryWorkspace& ws) const;

  /// Product of all values mod n, folded entirely inside the Montgomery
  /// domain (one pass + a log(count) R-power fixup instead of a domain
  /// round-trip per factor).
  BigUint product(std::span<const BigUint> values) const;
  BigUint product(std::span<const BigUint> values, MontgomeryWorkspace& ws) const;

  // --- Raw residue API -------------------------------------------------
  // Length-limbs() little-endian canonical residues (< n). These are the
  // strictly allocation-free kernels: no BigUint round-trip, scratch only
  // from `ws`. Out-of-range inputs are the caller's contract (checked by
  // assert, like the rest of the raw layer).

  /// out = (a * b) mod n. `out` may alias `a` or `b`.
  void mul_raw(const Limb* a, const Limb* b, Limb* out,
               MontgomeryWorkspace& ws) const;

  /// out = (a * a) mod n. `out` may alias `a`.
  void sqr_raw(const Limb* a, Limb* out, MontgomeryWorkspace& ws) const;

  /// out = base^exp mod n. `out` may alias `base`.
  void pow_raw(const Limb* base, std::span<const Limb> exp, Limb* out,
               MontgomeryWorkspace& ws) const;

 private:
  friend class FixedBaseTable;

  BigUint pow2_impl(const BigUint& a, const BigUint& x, const BigUint& b,
                    const BigUint& y, const BigUint* mult,
                    MontgomeryWorkspace& ws) const;

  std::vector<Limb> to_raw(const BigUint& a) const;  // zero-padded to k limbs
  BigUint from_raw(std::span<const Limb> raw) const;
  void check_operand(const BigUint& a, const char* what) const;

  // out = mont(a, b) = a*b*R^{-1} mod n, all length-k little-endian,
  // scalar path (used by raw entry points and the scalar engine).
  void mont_mul(const Limb* a, const Limb* b, Limb* out, Limb* t) const;
  void mont_sqr(const Limb* a, Limb* out, Limb* t) const;

  BigUint n_;
  std::vector<Limb> n_limbs_;   // modulus, k limbs
  std::size_t k_ = 0;           // limb count of modulus
  Limb n0inv_ = 0;              // -n^{-1} mod 2^64
  std::vector<Limb> r2_;        // R^2 mod n (mont form of R)
  std::vector<Limb> one_mont_;  // mont form of 1 (= R mod n)
  std::unique_ptr<ifma::Ctx> ifma_;  // non-null when the IFMA engine is active
};

/// Fixed-base windowed exponentiation: precomputes base^(j·2^(w·i)) mod n
/// for every window position i and digit j, so that base^exp afterwards
/// costs only ceil(bits/w) Montgomery multiplications and *no squarings* —
/// the right tool when one base is raised to many different exponents
/// (Paillier's shared r^n randomizer generator, built once per key).
///
/// Construction costs ~(2^w - 1)·ceil(max_exp_bits/w) multiplications and
/// the table is immutable afterwards: pow() is const and thread-safe (each
/// call draws scratch from the supplied or thread_local workspace), so a
/// single table can serve every lane of a thread pool. Rows are stored in
/// the owning Montgomery context's native residue form (radix-52 when the
/// IFMA engine is active), so lookups feed the vector kernels directly.
class FixedBaseTable {
 public:
  /// `mont` must outlive the table. Throws std::invalid_argument for
  /// base >= modulus, max_exp_bits == 0, or window_bits outside [1, 8].
  FixedBaseTable(const Montgomery& mont, const BigUint& base,
                 std::size_t max_exp_bits, std::size_t window_bits = 4);

  /// base^exp mod n. Throws std::out_of_range if exp needs more bits than
  /// the table was built for.
  BigUint pow(const BigUint& exp) const;
  BigUint pow(const BigUint& exp, MontgomeryWorkspace& ws) const;

  std::size_t max_exp_bits() const { return max_exp_bits_; }
  const Montgomery& mont() const { return *mont_; }

 private:
  const Montgomery* mont_;
  std::size_t max_exp_bits_;
  std::size_t window_bits_;
  std::size_t num_windows_;
  std::size_t digits_;  // 2^w - 1 table entries per window (j = 1 .. 2^w - 1)
  std::size_t row_limbs_;  // residue width of one row (k, or k52 under IFMA)
  // table_[i * digits_ + (j - 1)] = native mont form of base^(j * 2^(w*i)),
  // flattened into one contiguous buffer of row_limbs_-limb rows.
  AlignedLimbs table_;
};

}  // namespace pisa::bn

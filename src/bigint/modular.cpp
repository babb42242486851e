#include "bigint/modular.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <vector>

#include "bigint/montgomery.hpp"

namespace pisa::bn {

namespace {

using Limb = BigUint::Limb;
using u128 = unsigned __int128;

// Fixed-width little-endian limb arithmetic for the binary gcd/inverse
// cores below. Everything works in place on caller-owned arrays: one
// buffer per call, no allocation per step.

bool limbs_zero(const Limb* a, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i)
    if (a[i] != 0) return false;
  return true;
}

// Trailing zero bits of a nonzero value.
std::size_t limbs_ctz(const Limb* a) {
  std::size_t i = 0;
  while (a[i] == 0) ++i;
  return 64 * i + static_cast<std::size_t>(std::countr_zero(a[i]));
}

// a >>= s, any s.
void limbs_shr(Limb* a, std::size_t len, std::size_t s) {
  const std::size_t words = std::min(s / 64, len);
  const unsigned bits = static_cast<unsigned>(s % 64);
  if (words > 0) {
    std::copy(a + words, a + len, a);
    std::fill(a + len - words, a + len, Limb{0});
  }
  if (bits == 0) return;
  for (std::size_t i = 0; i + 1 < len; ++i)
    a[i] = (a[i] >> bits) | (a[i + 1] << (64 - bits));
  a[len - 1] >>= bits;
}

bool limbs_less(const Limb* a, const Limb* b, std::size_t len) {
  for (std::size_t i = len; i-- > 0;)
    if (a[i] != b[i]) return a[i] < b[i];
  return false;
}

// a -= b; returns the borrow out.
Limb limbs_sub(Limb* a, const Limb* b, std::size_t len) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<Limb>(d);
    borrow = static_cast<Limb>(d >> 64) & 1;
  }
  return borrow;
}

// a += b (mod 2^(64·len)).
void limbs_add(Limb* a, const Limb* b, std::size_t len) {
  Limb carry = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    a[i] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
  }
}

// Shrink an active width while the top limbs of both operands are zero.
std::size_t trim(const Limb* a, const Limb* b, std::size_t len) {
  while (len > 1 && a[len - 1] == 0 && b[len - 1] == 0) --len;
  return len;
}

// x = x / 2^t (mod m) for x < m, odd m of len limbs, minv = m^{-1} mod
// 2^64: up to 63 bits per step, x ← (x + k·m) / 2^s with k chosen so the
// low s bits vanish. x + k·m < 2^s·m, so the quotient stays < m.
void halve_mod(Limb* x, std::size_t t, const Limb* m, Limb minv,
               std::size_t len) {
  while (t > 0) {
    const unsigned s = static_cast<unsigned>(std::min<std::size_t>(t, 63));
    const Limb k = (Limb{0} - x[0] * minv) & ((Limb{1} << s) - 1);
    Limb carry = 0;
    for (std::size_t j = 0; j < len; ++j) {
      const u128 cur = static_cast<u128>(k) * m[j] + x[j] + carry;
      x[j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    for (std::size_t j = 0; j + 1 < len; ++j)
      x[j] = (x[j] >> s) | (x[j + 1] << (64 - s));
    x[len - 1] = (x[len - 1] >> s) | (carry << (64 - s));
    t -= s;
  }
}

}  // namespace

// Stein's binary gcd on two fixed-width limb arrays: strip the common
// power of two, then repeatedly make both operands odd and replace the
// larger by the (even) difference. Only shifts, compares and subtractions,
// in place.
BigUint gcd(BigUint a, BigUint b) {
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  std::size_t len = std::max(a.limb_count(), b.limb_count());
  std::vector<Limb> buf(2 * len, 0);
  Limb* u = buf.data();
  Limb* v = u + len;
  std::copy(a.limbs().begin(), a.limbs().end(), u);
  std::copy(b.limbs().begin(), b.limbs().end(), v);
  const std::size_t tu = limbs_ctz(u);
  const std::size_t shift = std::min(tu, limbs_ctz(v));
  limbs_shr(u, len, tu);
  for (;;) {
    limbs_shr(v, len, limbs_ctz(v));  // both odd from here
    if (limbs_less(v, u, len)) std::swap(u, v);
    limbs_sub(v, u, len);  // v >= u; the difference is even
    if (limbs_zero(v, len)) break;
    len = trim(u, v, len);
  }
  return BigUint::from_limbs({u, u + len}) << shift;
}

BigUint lcm(const BigUint& a, const BigUint& b) {
  if (a.is_zero() || b.is_zero()) return {};
  return (a / gcd(a, b)) * b;
}

namespace {

// Binary extended GCD inverse for odd moduli on fixed-width limb arrays:
// no divisions, only shifts, subtractions and a multi-bit halving of the
// cofactor. Invariants: x1·a ≡ u (mod m), x2·a ≡ v (mod m), v odd.
std::optional<BigUint> mod_inverse_binary_odd(const BigUint& a, const BigUint& m) {
  const BigUint a_red = a < m ? a : a % m;
  if (a_red.is_zero()) return std::nullopt;
  const std::size_t len = m.limb_count();
  const Limb* mod = m.limbs().data();
  Limb minv = mod[0];  // m^{-1} mod 2^64 by Newton iteration
  for (int i = 0; i < 5; ++i) minv *= 2 - mod[0] * minv;

  std::vector<Limb> buf(4 * len, 0);
  Limb* u = buf.data();
  Limb* v = u + len;
  Limb* x1 = v + len;
  Limb* x2 = x1 + len;
  std::copy(a_red.limbs().begin(), a_red.limbs().end(), u);
  std::copy(mod, mod + len, v);
  x1[0] = 1;

  std::size_t active = len;  // u, v < 2^(64·active)
  while (!limbs_zero(u, active)) {
    const std::size_t t = limbs_ctz(u);
    limbs_shr(u, active, t);
    halve_mod(x1, t, mod, minv, len);
    if (limbs_less(u, v, active)) {
      std::swap(u, v);
      std::swap(x1, x2);
    }
    limbs_sub(u, v, active);
    if (limbs_sub(x1, x2, len) != 0) limbs_add(x1, mod, len);
    active = trim(u, v, active);
  }
  // v holds gcd(a, m).
  if (v[0] != 1 || !limbs_zero(v + 1, active - 1)) return std::nullopt;
  return BigUint::from_limbs({x2, x2 + len});
}

}  // namespace

std::optional<BigUint> mod_inverse(const BigUint& a, const BigUint& m) {
  if (m < BigUint{2}) throw std::invalid_argument("mod_inverse: modulus < 2");
  if (m.is_odd()) return mod_inverse_binary_odd(a, m);
  // Even modulus: extended Euclid over signed integers.
  BigInt r0{m}, r1{a % m};
  BigInt t0{0}, t1{1};
  while (!r1.is_zero()) {
    BigInt q = r0 / r1;
    BigInt r2 = r0 - q * r1;
    BigInt t2 = t0 - q * t1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (r0 != BigInt{1}) return std::nullopt;
  return t0.mod_euclid(m);
}

BigUint mod_mul(const BigUint& a, const BigUint& b, const BigUint& m) {
  return (a % m) * (b % m) % m;
}

BigUint mod_pow(const BigUint& base, const BigUint& exp, const BigUint& m) {
  if (m < BigUint{2}) throw std::invalid_argument("mod_pow: modulus < 2");
  if (m.is_odd()) return Montgomery{m}.pow(base % m, exp);
  // Even modulus: plain left-to-right square and multiply.
  BigUint result{1};
  BigUint b = base % m;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = mod_mul(result, result, m);
    if (exp.bit(i)) result = mod_mul(result, b, m);
  }
  return result;
}

}  // namespace pisa::bn

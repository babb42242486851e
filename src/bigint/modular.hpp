// Modular arithmetic helpers: gcd/lcm, modular inverse, and a modexp that
// dispatches to Montgomery for odd moduli (the common case here) and to a
// plain square-and-multiply ladder otherwise.
#pragma once

#include <optional>

#include "bigint/bigint.hpp"
#include "bigint/biguint.hpp"

namespace pisa::bn {

/// Greatest common divisor (binary, on fixed-width limb arrays).
BigUint gcd(BigUint a, BigUint b);

/// Least common multiple; lcm(0, x) = 0.
BigUint lcm(const BigUint& a, const BigUint& b);

/// a^{-1} mod m, if gcd(a, m) == 1; std::nullopt otherwise. m >= 2.
std::optional<BigUint> mod_inverse(const BigUint& a, const BigUint& m);

/// (a * b) mod m via full product + division. For hot paths with a fixed
/// odd modulus prefer a Montgomery context.
BigUint mod_mul(const BigUint& a, const BigUint& b, const BigUint& m);

/// base^exp mod m. m >= 2.
BigUint mod_pow(const BigUint& base, const BigUint& exp, const BigUint& m);

}  // namespace pisa::bn

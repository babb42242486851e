// Paillier cryptosystem (EUROCRYPT'99) with the homomorphic operations PISA
// relies on (paper Figure 2):
//
//   add        D(E(m1) ⊕ E(m2)) = m1 + m2 (mod n)
//   sub        D(E(m1) ⊖ E(m2)) = m1 - m2 (mod n)
//   scalar_mul D(k ⊗ E(m))      = k · m   (mod n)
//
// Implementation notes:
//  * g is fixed to n+1, so encryption is (1 + m·n) · r^n mod n², one modexp.
//  * Decryption uses the CRT split (mod p², mod q²) — roughly 4x faster than
//    the textbook λ/μ route, which is kept as decrypt_no_crt() for the
//    ablation benchmark.
//  * Signed plaintexts use the centered lift: residues above n/2 decode as
//    negatives. All of PISA's interference algebra is signed.
//  * encrypt() is E_det(m) · r^n; crypto::RandomizerSource computes the r^n
//    factors ahead of time (paper §VI-A), so a live encryption can cost one
//    modular multiplication.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/biguint.hpp"
#include "bigint/montgomery.hpp"
#include "bigint/random_source.hpp"

namespace pisa::exec {
class ThreadPool;
}

namespace pisa::crypto {

/// A Paillier ciphertext: an element of Z*_{n²}. Plain value type; the key
/// that produced it is tracked by the caller (protocol messages carry key
/// fingerprints).
struct PaillierCiphertext {
  bn::BigUint value;

  bool operator==(const PaillierCiphertext&) const = default;
};

/// Public key (n, g=n+1) plus cached Montgomery context for n².
class PaillierPublicKey {
 public:
  explicit PaillierPublicKey(bn::BigUint n);

  const bn::BigUint& n() const { return n_; }
  const bn::BigUint& n_squared() const { return mont_n2_->modulus(); }
  std::size_t key_bits() const { return n_.bit_length(); }

  /// Serialized sizes in bytes, matching the paper's Table II accounting
  /// (public key = 2 * |n| covering (n, g); ciphertext = |n²|).
  std::size_t public_key_bytes() const { return 2 * ((key_bits() + 7) / 8); }
  std::size_t ciphertext_bytes() const { return (2 * key_bits() + 7) / 8; }

  /// Encrypt m ∈ [0, n). Throws std::out_of_range otherwise.
  PaillierCiphertext encrypt(const bn::BigUint& m, bn::RandomSource& rng) const;

  /// Encrypt a signed value with |m| < n/2 via the centered lift.
  PaillierCiphertext encrypt_signed(const bn::BigInt& m, bn::RandomSource& rng) const;

  /// Homomorphic addition: E(m1) ⊕ E(m2) = c1·c2 mod n².
  PaillierCiphertext add(const PaillierCiphertext& a, const PaillierCiphertext& b) const;

  /// Homomorphic subtraction: E(m1) ⊖ E(m2) = c1·c2⁻¹ mod n².
  PaillierCiphertext sub(const PaillierCiphertext& a, const PaillierCiphertext& b) const;

  /// Homomorphic scalar multiplication: k ⊗ E(m) = c^k mod n².
  PaillierCiphertext scalar_mul(const bn::BigUint& k, const PaillierCiphertext& c) const;

  /// Signed scalar: negative k maps to exponent k mod n.
  PaillierCiphertext scalar_mul_signed(const bn::BigInt& k, const PaillierCiphertext& c) const;

  /// Homomorphic negation: ⊖E(m) = c⁻¹ mod n² (scalar_mul by −1 done
  /// cheaply). The inverse is taken mod n — half the width of n² — and
  /// Hensel-lifted with two Montgomery multiplications. c ≥ n² is reduced
  /// first; throws std::invalid_argument if c is not a unit.
  PaillierCiphertext negate(const PaillierCiphertext& c) const;

  /// negate() of every entry for the price of one lifted inverse plus
  /// 3·(size − 1) multiplications (Montgomery's batch-inversion trick:
  /// prefix products, invert the total, back-substitute). Same values as
  /// the per-entry loop. Throws std::invalid_argument if any entry is not a
  /// unit — the whole batch fails, nothing is returned.
  std::vector<PaillierCiphertext> negate_many(
      std::span<const PaillierCiphertext> cs) const;

  /// True when every entry is a canonical unit of Z*_{n²}: nonzero, < n²
  /// and coprime to n. One Montgomery product and one gcd for the span.
  bool all_units(std::span<const PaillierCiphertext> cs) const;

  /// Fresh randomness on an existing ciphertext: c · r^n mod n². Same
  /// plaintext, unlinkable ciphertext. Costs one modexp (for r^n) plus one
  /// multiplication; see RandomizerSource to move the modexp offline.
  PaillierCiphertext rerandomize(const PaillierCiphertext& c, bn::RandomSource& rng) const;

  /// Rerandomize with a precomputed r^n factor (one modular multiplication).
  PaillierCiphertext rerandomize_with(const PaillierCiphertext& c,
                                      const bn::BigUint& rn_factor) const;

  /// Compute a fresh r^n mod n² blinding factor (the expensive part of both
  /// encryption and rerandomization).
  bn::BigUint make_randomizer(bn::RandomSource& rng) const;

  /// Deterministic "encryption" with r=1; only useful composed with
  /// rerandomize_with, or for tests. g = n+1 makes this a closed form,
  /// 1 + m·n, already canonical — no modexp, no division.
  PaillierCiphertext encrypt_deterministic(const bn::BigUint& m) const;

  /// E_det(m)⁻¹ without a modular inverse: (1+mn)(1+(n−m)n) ≡ 1 (mod n²),
  /// so the inverse of a deterministic encryption is itself a closed form.
  PaillierCiphertext encrypt_deterministic_inverse(const bn::BigUint& m) const;

  /// c ⊖ E_det(m) as a single Montgomery multiplication — the extended-gcd
  /// inverse that sub() pays is replaced by the closed-form
  /// encrypt_deterministic_inverse factor.
  PaillierCiphertext sub_deterministic(const PaillierCiphertext& c,
                                       const bn::BigUint& m) const;

  /// ⊕-fold of many ciphertexts in one Montgomery-domain product
  /// (bn::Montgomery::product): one reduction pass per factor plus a
  /// logarithmic fixup instead of a domain round-trip per add().
  PaillierCiphertext add_many(std::span<const PaillierCiphertext> cs) const;

  /// Fused SDC blinding kernel for eqs. (11)+(14): computes
  ///
  ///   [ budget^α · f^(−α·x) · E_det(β)^(−1) ]^(sign ε)
  ///
  /// bit-identically to the chain scalar_mul/sub/scalar_mul/sub/negate, but
  /// as ONE Shamir/Straus double exponentiation (shared squaring ladder over
  /// max(|α|, |α·x|) bits, multiplication by the closed-form E_det factor
  /// fused into the Montgomery-domain exit) plus ONE modular inverse — of f
  /// for ε ≥ 0, of budget for ε < 0 — instead of two full modexps and
  /// two-to-three extended-gcd inverses. A caller that blinds many entries
  /// passes that inverse in `inverse` (batch-computed with negate_many), so
  /// the entry itself costs only the double exponentiation — as
  /// SdcServer::begin_request always does. The nullptr form, which inverts
  /// per entry with negate(), is kept only for tests (paillier_fused_test
  /// pins it against the unfused chain).
  PaillierCiphertext blind_entry(const PaillierCiphertext& budget,
                                 const PaillierCiphertext& f,
                                 const bn::BigUint& x, const bn::BigUint& alpha,
                                 const bn::BigUint& beta, int epsilon,
                                 const PaillierCiphertext* inverse = nullptr) const;

  // --- Batch pipeline -------------------------------------------------
  // Span-style APIs dispatched over an exec::ThreadPool (nullptr or a
  // single-lane pool = the plain sequential loop). Randomness is sampled
  // sequentially from `rng` in entry order *before* the parallel modexp
  // section, so every batch call is bit-identical to the per-entry loop it
  // replaces and independent of the thread count.

  /// out[i] = E(ms[i]). Throws std::out_of_range on any m >= n.
  std::vector<PaillierCiphertext> encrypt_batch(
      std::span<const bn::BigUint> ms, bn::RandomSource& rng,
      exec::ThreadPool* pool = nullptr) const;

  /// out[i] = ks[i] ⊗ cs[i]; ks of size 1 broadcasts one scalar to every
  /// ciphertext (eq. (11)'s F̃ ⊗ X over a whole request).
  std::vector<PaillierCiphertext> scalar_mul_batch(
      std::span<const bn::BigUint> ks, std::span<const PaillierCiphertext> cs,
      exec::ThreadPool* pool = nullptr) const;

  const bn::Montgomery& mont_n2() const { return *mont_n2_; }

  bool operator==(const PaillierPublicKey& o) const { return n_ == o.n_; }

 private:
  /// c⁻¹ mod n² for canonical c: y = c⁻¹ mod n, lifted by y·(2 − c·y).
  bn::BigUint inverse_mod_n2(const bn::BigUint& c) const;

  bn::BigUint n_;
  bn::BigUint half_n_;  // floor(n/2), centered-lift threshold
  std::shared_ptr<const bn::Montgomery> mont_n2_;
};

/// Private key. Holds the factorization and CRT-ready precomputations.
class PaillierPrivateKey {
 public:
  /// Construct from the two prime factors of n (validates p != q, both odd).
  PaillierPrivateKey(const bn::BigUint& p, const bn::BigUint& q);

  const PaillierPublicKey& public_key() const { return pk_; }

  /// Decrypt to the canonical residue in [0, n). CRT fast path.
  bn::BigUint decrypt(const PaillierCiphertext& c) const;

  /// Decrypt with the centered lift: result in (−n/2, n/2].
  bn::BigInt decrypt_signed(const PaillierCiphertext& c) const;

  /// Batch CRT decryption over a thread pool (nullptr = sequential).
  std::vector<bn::BigUint> decrypt_batch(
      std::span<const PaillierCiphertext> cs,
      exec::ThreadPool* pool = nullptr) const;

  /// Batch signed decryption via the centered lift.
  std::vector<bn::BigInt> decrypt_signed_batch(
      std::span<const PaillierCiphertext> cs,
      exec::ThreadPool* pool = nullptr) const;

  /// Textbook λ/μ decryption (no CRT); kept for the ablation benchmark and
  /// as a cross-check oracle in tests.
  bn::BigUint decrypt_no_crt(const PaillierCiphertext& c) const;

  /// λ = lcm(p−1, q−1). Exposed for threshold dealing (threshold_paillier.hpp);
  /// this is secret material, handle like the key itself.
  const bn::BigUint& lambda() const { return lambda_; }

  /// Prime factors — secret material, used by key serialization
  /// (key_codec.hpp).
  const bn::BigUint& p() const { return p_; }
  const bn::BigUint& q() const { return q_; }

 private:
  PaillierPublicKey pk_;
  bn::BigUint p_, q_;
  // CRT precomputation.
  std::shared_ptr<const bn::Montgomery> mont_p2_, mont_q2_;
  bn::BigUint p2_, q2_;
  bn::BigUint hp_, hq_;      // hp = Lp(g^(p−1) mod p²)⁻¹ mod p, likewise hq
  bn::BigUint p_inv_mod_q_;  // for Garner recombination
  // Textbook parameters.
  bn::BigUint lambda_, mu_;
};

struct PaillierKeyPair {
  PaillierPublicKey pk;
  PaillierPrivateKey sk;
};

/// Generate a key pair with an n of `n_bits` bits (two n_bits/2 primes).
PaillierKeyPair paillier_generate(std::size_t n_bits, bn::RandomSource& rng,
                                  int mr_rounds = 32);

}  // namespace pisa::crypto

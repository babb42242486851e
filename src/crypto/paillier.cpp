#include "crypto/paillier.hpp"

#include <stdexcept>

#include "bigint/modular.hpp"
#include "bigint/prime.hpp"
#include "exec/thread_pool.hpp"

namespace pisa::crypto {

using bn::BigInt;
using bn::BigUint;

PaillierPublicKey::PaillierPublicKey(BigUint n) : n_(std::move(n)) {
  if (n_ < BigUint{6} || n_.is_even())
    throw std::invalid_argument("PaillierPublicKey: invalid modulus");
  half_n_ = n_ >> 1;
  mont_n2_ = std::make_shared<bn::Montgomery>(n_ * n_);
}

PaillierCiphertext PaillierPublicKey::encrypt_deterministic(const BigUint& m) const {
  if (m >= n_) throw std::out_of_range("Paillier encrypt: m >= n");
  // g^m = (1+n)^m = 1 + m·n (mod n²); m < n makes 1 + m·n < n², so the
  // value is already canonical.
  return {BigUint{1} + m * n_};
}

PaillierCiphertext PaillierPublicKey::encrypt_deterministic_inverse(
    const BigUint& m) const {
  if (m >= n_) throw std::out_of_range("Paillier encrypt: m >= n");
  // (1+mn)(1+(n−m)n) = 1 + n² + (n−m)mn² ≡ 1 (mod n²), and for m > 0 the
  // factor 1 + (n−m)n is < n², hence the canonical inverse.
  if (m.is_zero()) return {BigUint{1}};
  return {BigUint{1} + (n_ - m) * n_};
}

PaillierCiphertext PaillierPublicKey::sub_deterministic(
    const PaillierCiphertext& c, const BigUint& m) const {
  return {mont_n2_->mul(c.value, encrypt_deterministic_inverse(m).value)};
}

PaillierCiphertext PaillierPublicKey::add_many(
    std::span<const PaillierCiphertext> cs) const {
  if (cs.empty()) return {BigUint{1}};  // E_det(0)
  std::vector<BigUint> vals;
  vals.reserve(cs.size());
  for (const auto& c : cs) vals.push_back(c.value);
  return {mont_n2_->product(vals)};
}

PaillierCiphertext PaillierPublicKey::blind_entry(
    const PaillierCiphertext& budget, const PaillierCiphertext& f,
    const BigUint& x, const BigUint& alpha, const BigUint& beta, int epsilon,
    const PaillierCiphertext* inverse) const {
  const BigUint ax = alpha * x;
  if (epsilon < 0) {
    // negate() of the blinded entry distributes across the product:
    // budget^{-α} · f^{α·x} · E_det(β).
    const BigUint& budget_inv = inverse ? inverse->value : negate(budget).value;
    return {mont_n2_->pow2_mul(budget_inv, alpha, f.value, ax,
                               encrypt_deterministic(beta).value)};
  }
  const BigUint& f_inv = inverse ? inverse->value : negate(f).value;
  return {mont_n2_->pow2_mul(budget.value, alpha, f_inv, ax,
                             encrypt_deterministic_inverse(beta).value)};
}

BigUint PaillierPublicKey::make_randomizer(bn::RandomSource& rng) const {
  BigUint r = bn::random_coprime(rng, n_);
  return mont_n2_->pow(r, n_);
}

PaillierCiphertext PaillierPublicKey::encrypt(const BigUint& m,
                                              bn::RandomSource& rng) const {
  return rerandomize_with(encrypt_deterministic(m), make_randomizer(rng));
}

PaillierCiphertext PaillierPublicKey::encrypt_signed(const BigInt& m,
                                                     bn::RandomSource& rng) const {
  if (m.magnitude() > half_n_)
    throw std::out_of_range("Paillier encrypt_signed: |m| > n/2");
  return encrypt(m.mod_euclid(n_), rng);
}

PaillierCiphertext PaillierPublicKey::add(const PaillierCiphertext& a,
                                          const PaillierCiphertext& b) const {
  return {mont_n2_->mul(a.value, b.value)};
}

BigUint PaillierPublicKey::inverse_mod_n2(const BigUint& c) const {
  // c·y ≡ 1 (mod n) means c·y = 1 + e with n | e; then
  // c·y·(2 − c·y) = (1 + e)(1 − e) = 1 − e² ≡ 1 (mod n²).
  auto y = bn::mod_inverse(c % n_, n_);
  if (!y) throw std::invalid_argument("Paillier negate: ciphertext not a unit");
  const BigUint cy = mont_n2_->mul(c, *y);
  if (cy == BigUint{1}) return std::move(*y);
  return mont_n2_->mul(*y, n_squared() + BigUint{2} - cy);
}

PaillierCiphertext PaillierPublicKey::negate(const PaillierCiphertext& c) const {
  if (c.value < n_squared()) return {inverse_mod_n2(c.value)};
  return {inverse_mod_n2(c.value % n_squared())};
}

std::vector<PaillierCiphertext> PaillierPublicKey::negate_many(
    std::span<const PaillierCiphertext> cs) const {
  std::vector<PaillierCiphertext> out(cs.size());
  if (cs.empty()) return out;
  std::vector<BigUint> vals(cs.size());
  for (std::size_t i = 0; i < cs.size(); ++i)
    vals[i] = cs[i].value < n_squared() ? cs[i].value
                                        : cs[i].value % n_squared();
  // out[i] holds the prefix product c_0···c_i until back-substitution
  // overwrites it with c_i⁻¹. A non-unit anywhere makes the total a
  // non-unit, so the one inverse below fails for the whole batch.
  out[0].value = vals[0];
  for (std::size_t i = 1; i < vals.size(); ++i)
    out[i].value = mont_n2_->mul(out[i - 1].value, vals[i]);
  BigUint inv = inverse_mod_n2(out.back().value);  // (c_0···c_last)⁻¹
  for (std::size_t i = vals.size(); i-- > 1;) {
    out[i].value = mont_n2_->mul(inv, out[i - 1].value);
    inv = mont_n2_->mul(inv, vals[i]);
  }
  out[0].value = std::move(inv);
  return out;
}

bool PaillierPublicKey::all_units(std::span<const PaillierCiphertext> cs) const {
  std::vector<BigUint> vals;
  vals.reserve(cs.size());
  for (const auto& c : cs) {
    if (c.value.is_zero() || c.value >= n_squared()) return false;
    vals.push_back(c.value);
  }
  return bn::gcd(mont_n2_->product(vals) % n_, n_) == BigUint{1};
}

PaillierCiphertext PaillierPublicKey::sub(const PaillierCiphertext& a,
                                          const PaillierCiphertext& b) const {
  return add(a, negate(b));
}

PaillierCiphertext PaillierPublicKey::scalar_mul(const BigUint& k,
                                                 const PaillierCiphertext& c) const {
  return {mont_n2_->pow(c.value, k)};
}

PaillierCiphertext PaillierPublicKey::scalar_mul_signed(
    const BigInt& k, const PaillierCiphertext& c) const {
  return scalar_mul(k.mod_euclid(n_), c);
}

PaillierCiphertext PaillierPublicKey::rerandomize(const PaillierCiphertext& c,
                                                  bn::RandomSource& rng) const {
  return rerandomize_with(c, make_randomizer(rng));
}

PaillierCiphertext PaillierPublicKey::rerandomize_with(
    const PaillierCiphertext& c, const BigUint& rn_factor) const {
  return {mont_n2_->mul(c.value, rn_factor)};
}

std::vector<PaillierCiphertext> PaillierPublicKey::encrypt_batch(
    std::span<const bn::BigUint> ms, bn::RandomSource& rng,
    exec::ThreadPool* pool) const {
  for (const auto& m : ms)
    if (m >= n_) throw std::out_of_range("Paillier encrypt_batch: m >= n");
  std::vector<BigUint> rs(ms.size());
  for (auto& r : rs) r = bn::random_coprime(rng, n_);
  std::vector<PaillierCiphertext> out(ms.size());
  exec::parallel_for(pool, 0, ms.size(), [&](std::size_t i) {
    out[i] = rerandomize_with(encrypt_deterministic(ms[i]),
                              mont_n2_->pow(rs[i], n_));
  });
  return out;
}

std::vector<PaillierCiphertext> PaillierPublicKey::scalar_mul_batch(
    std::span<const bn::BigUint> ks, std::span<const PaillierCiphertext> cs,
    exec::ThreadPool* pool) const {
  if (ks.size() != cs.size() && ks.size() != 1)
    throw std::invalid_argument(
        "Paillier scalar_mul_batch: need one scalar per ciphertext or one "
        "broadcast scalar");
  std::vector<PaillierCiphertext> out(cs.size());
  exec::parallel_for(pool, 0, cs.size(), [&](std::size_t i) {
    out[i] = scalar_mul(ks.size() == 1 ? ks[0] : ks[i], cs[i]);
  });
  return out;
}

namespace {

// L(x) = (x - 1) / d, defined for x ≡ 1 (mod d). x = 0 can only arise from
// a ciphertext sharing a factor with n (not a unit of Z_{n²}) — reject it
// cleanly instead of underflowing.
BigUint l_function(const BigUint& x, const BigUint& d) {
  if (x.is_zero())
    throw std::invalid_argument("Paillier decrypt: ciphertext is not a unit");
  return (x - BigUint{1}) / d;
}

}  // namespace

PaillierPrivateKey::PaillierPrivateKey(const BigUint& p, const BigUint& q)
    : pk_(p * q), p_(p), q_(q) {
  if (p == q) throw std::invalid_argument("Paillier: p == q");
  if (p.is_even() || q.is_even())
    throw std::invalid_argument("Paillier: factors must be odd");
  // gcd(pq, (p-1)(q-1)) == 1 must hold; guaranteed when p, q are distinct
  // primes of equal size, but validate anyway.
  BigUint n = p * q;
  BigUint phi = (p - BigUint{1}) * (q - BigUint{1});
  if (bn::gcd(n, phi) != BigUint{1})
    throw std::invalid_argument("Paillier: gcd(n, phi) != 1");

  p2_ = p * p;
  q2_ = q * q;
  mont_p2_ = std::make_shared<bn::Montgomery>(p2_);
  mont_q2_ = std::make_shared<bn::Montgomery>(q2_);

  // g = n + 1. hp = Lp(g^(p-1) mod p²)^{-1} mod p.
  BigUint g = n + BigUint{1};
  BigUint gp = mont_p2_->pow(g % p2_, p - BigUint{1});
  BigUint gq = mont_q2_->pow(g % q2_, q - BigUint{1});
  auto hp_inv = bn::mod_inverse(l_function(gp, p) % p, p);
  auto hq_inv = bn::mod_inverse(l_function(gq, q) % q, q);
  if (!hp_inv || !hq_inv)
    throw std::invalid_argument("Paillier: degenerate key (L not invertible)");
  hp_ = std::move(*hp_inv);
  hq_ = std::move(*hq_inv);
  auto pinv = bn::mod_inverse(p, q);
  if (!pinv) throw std::invalid_argument("Paillier: p not invertible mod q");
  p_inv_mod_q_ = std::move(*pinv);

  // Textbook parameters: λ = lcm(p-1, q-1), μ = L(g^λ mod n²)^{-1} mod n.
  lambda_ = bn::lcm(p - BigUint{1}, q - BigUint{1});
  BigUint gl = pk_.mont_n2().pow(g % pk_.n_squared(), lambda_);
  auto mu = bn::mod_inverse(l_function(gl, n) % n, n);
  if (!mu) throw std::invalid_argument("Paillier: mu not invertible");
  mu_ = std::move(*mu);
}

BigUint PaillierPrivateKey::decrypt(const PaillierCiphertext& c) const {
  if (c.value >= pk_.n_squared() || c.value.is_zero())
    throw std::out_of_range("Paillier decrypt: ciphertext out of range");
  // CRT: m_p = Lp(c^(p-1) mod p²)·hp mod p, likewise m_q; recombine (Garner).
  BigUint cp = mont_p2_->pow(c.value % p2_, p_ - BigUint{1});
  BigUint cq = mont_q2_->pow(c.value % q2_, q_ - BigUint{1});
  BigUint mp = l_function(cp, p_) * hp_ % p_;
  BigUint mq = l_function(cq, q_) * hq_ % q_;
  // m = mp + p·((mq − mp)·p⁻¹ mod q)
  BigInt diff = BigInt{mq} - BigInt{mp};
  BigUint t = diff.mod_euclid(q_) * p_inv_mod_q_ % q_;
  return mp + p_ * t;
}

BigInt PaillierPrivateKey::decrypt_signed(const PaillierCiphertext& c) const {
  BigUint m = decrypt(c);
  const BigUint& n = pk_.n();
  if (m > (n >> 1)) return BigInt{n - m, /*negative=*/true};
  return BigInt{std::move(m)};
}

std::vector<BigUint> PaillierPrivateKey::decrypt_batch(
    std::span<const PaillierCiphertext> cs, exec::ThreadPool* pool) const {
  std::vector<BigUint> out(cs.size());
  exec::parallel_for(pool, 0, cs.size(),
                     [&](std::size_t i) { out[i] = decrypt(cs[i]); });
  return out;
}

std::vector<BigInt> PaillierPrivateKey::decrypt_signed_batch(
    std::span<const PaillierCiphertext> cs, exec::ThreadPool* pool) const {
  std::vector<BigInt> out(cs.size());
  exec::parallel_for(pool, 0, cs.size(),
                     [&](std::size_t i) { out[i] = decrypt_signed(cs[i]); });
  return out;
}

BigUint PaillierPrivateKey::decrypt_no_crt(const PaillierCiphertext& c) const {
  if (c.value >= pk_.n_squared() || c.value.is_zero())
    throw std::out_of_range("Paillier decrypt: ciphertext out of range");
  BigUint cl = pk_.mont_n2().pow(c.value, lambda_);
  return l_function(cl, pk_.n()) * mu_ % pk_.n();
}

PaillierKeyPair paillier_generate(std::size_t n_bits, bn::RandomSource& rng,
                                  int mr_rounds) {
  if (n_bits < 16 || n_bits % 2 != 0)
    throw std::invalid_argument("paillier_generate: n_bits must be even and >= 16");
  for (;;) {
    BigUint p = bn::random_prime(rng, n_bits / 2, mr_rounds);
    BigUint q = bn::random_prime(rng, n_bits / 2, mr_rounds);
    if (p == q) continue;
    PaillierPrivateKey sk{p, q};
    PaillierPublicKey pk = sk.public_key();
    return {std::move(pk), std::move(sk)};
  }
}

}  // namespace pisa::crypto

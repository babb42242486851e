#include "bigint/montgomery.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bigint/montgomery_ifma.hpp"

namespace pisa::bn {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

namespace {

constexpr u64 kMask52 = (u64{1} << 52) - 1;

// -x^{-1} mod 2^64 for odd x, by Newton iteration.
u64 neg_inv64(u64 x) {
  u64 inv = x;  // correct to 3 bits
  for (int i = 0; i < 5; ++i) inv *= 2 - x * inv;
  return ~inv + 1;  // -inv
}

// raw >= mod (as length-k little-endian arrays)?
bool raw_geq(const u64* a, const u64* b, std::size_t k) {
  for (std::size_t i = k; i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

// a -= b (length k), a >= b required.
void raw_sub(u64* a, const u64* b, std::size_t k) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<u64>(d);
    borrow = static_cast<u64>((d >> 64) & 1);
  }
}

// t[0..len] += x * y[0..len-1]; returns the carry out of t[len].
inline u64 row_madd(u64* t, u64 x, const u64* y, std::size_t len) {
  u64 carry = 0;
  for (std::size_t j = 0; j < len; ++j) {
    u128 cur = static_cast<u128>(x) * y[j] + t[j] + carry;
    t[j] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  u128 s = static_cast<u128>(t[len]) + carry;
  t[len] = static_cast<u64>(s);
  return static_cast<u64>(s >> 64);
}

// Offset-window CIOS: t spans 2k+2 limbs and the working window slides by a
// pointer bump per outer iteration, so the reduction needs no shift copies.
// Before iteration i the limb w[k+1] is untouched (provably zero), making
// the `+=` of the row carries exact. `out` may alias `a` or `b` (the result
// is only written at the end).
void mont_mul_kernel(const u64* a, const u64* b, u64* out, const u64* n,
                     u64 n0inv, std::size_t k, u64* t) {
  std::memset(t, 0, (2 * k + 2) * sizeof(u64));
  for (std::size_t i = 0; i < k; ++i) {
    u64* w = t + i;
    w[k + 1] += row_madd(w, a[i], b, k);
    const u64 m = w[0] * n0inv;
    w[k + 1] += row_madd(w, m, n, k);
  }
  u64* r = t + k;
  if (r[k] != 0 || raw_geq(r, n, k)) raw_sub(r, n, k);
  std::memcpy(out, r, k * sizeof(u64));
}

// Dedicated Montgomery squaring: cross products once (half the madds of the
// mul kernel), double, add the diagonals, then k reduction rows over the
// sliding window. The reduction's tail carries are deferred through `pend`
// because — unlike in mont_mul_kernel — the limb above each window holds
// live product data that a non-propagating `+=` could wrap.
void mont_sqr_kernel(const u64* a, u64* out, const u64* n, u64 n0inv,
                     std::size_t k, u64* t) {
  std::memset(t, 0, (2 * k + 2) * sizeof(u64));
  for (std::size_t i = 0; i + 1 < k; ++i) {
    const std::size_t len = k - i - 1;
    u64* w = t + 2 * i + 1;
    w[len + 1] += row_madd(w, a[i], a + i + 1, len);
  }
  u64 top = 0;
  for (std::size_t i = 0; i < 2 * k; ++i) {
    const u64 nt = t[i] >> 63;
    t[i] = (t[i] << 1) | top;
    top = nt;
  }
  u64 carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    u128 cur = static_cast<u128>(a[i]) * a[i] + t[2 * i] + carry;
    t[2 * i] = static_cast<u64>(cur);
    cur = static_cast<u128>(t[2 * i + 1]) + static_cast<u64>(cur >> 64);
    t[2 * i + 1] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  u64 pend = 0;
  for (std::size_t i = 0; i < k; ++i) {
    u64* w = t + i;
    const u64 m = w[0] * n0inv;
    const u64 ret = row_madd(w, m, n, k);
    const u128 s = static_cast<u128>(w[k]) + pend;
    w[k] = static_cast<u64>(s);
    pend = ret + static_cast<u64>(s >> 64);
  }
  u64* r = t + k;
  r[k] += pend;  // exact: the reduced value is < 2Rn, so r[k] <= 1 total
  if (r[k] != 0 || raw_geq(r, n, k)) raw_sub(r, n, k);
  std::memcpy(out, r, k * sizeof(u64));
}

// ---- radix-52 repacking (for the IFMA engine) -------------------------

// Little-endian 64-bit limbs -> k52 clean 52-bit limbs.
void pack52(std::span<const u64> src, u64* dst, std::size_t k52) {
  for (std::size_t i = 0; i < k52; ++i) {
    const std::size_t bitpos = i * 52;
    const std::size_t word = bitpos >> 6, off = bitpos & 63;
    u64 v = word < src.size() ? src[word] >> off : 0;
    if (off + 52 > 64 && word + 1 < src.size()) v |= src[word + 1] << (64 - off);
    dst[i] = v & kMask52;
  }
}

// Clean 52-bit limbs -> length-k64 64-bit limbs (value must fit).
void unpack52(const u64* src, std::size_t k52, u64* dst, std::size_t k64) {
  std::fill(dst, dst + k64, 0);
  for (std::size_t i = 0; i < k52; ++i) {
    if (src[i] == 0) continue;
    const std::size_t bitpos = i * 52;
    const std::size_t word = bitpos >> 6, off = bitpos & 63;
    if (word < k64) dst[word] |= src[i] << off;
    if (off + 52 > 64 && word + 1 < k64) dst[word + 1] |= src[i] >> (64 - off);
  }
}

bool geq52(const u64* a, const u64* b, std::size_t k) {
  for (std::size_t i = k; i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

void sub52(u64* a, const u64* b, std::size_t k) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u64 d = a[i] - b[i] - borrow;
    borrow = d >> 63;
    a[i] = d & kMask52;
  }
}

// ---- exponent digit extraction ----------------------------------------

// Bits [pos, pos+len) of a little-endian limb array, len <= 8. Reads past
// the top limb yield zeros.
inline unsigned extract_bits(std::span<const u64> e, std::size_t pos,
                             std::size_t len) {
  const std::size_t word = pos >> 6, off = pos & 63;
  if (word >= e.size()) return 0;
  u64 v = e[word] >> off;
  if (off + len > 64 && word + 1 < e.size()) v |= e[word + 1] << (64 - off);
  return static_cast<unsigned>(v & ((u64{1} << len) - 1));
}

inline bool bit_at(std::span<const u64> e, std::size_t i) {
  const std::size_t word = i >> 6;
  return word < e.size() && ((e[word] >> (i & 63)) & 1) != 0;
}

std::size_t span_bit_length(std::span<const u64> e) {
  for (std::size_t i = e.size(); i-- > 0;) {
    if (e[i] != 0)
      return i * 64 + (64 - static_cast<std::size_t>(std::countl_zero(e[i])));
  }
  return 0;
}

// Sliding-window width minimizing table build + per-bit mul cost.
unsigned window_for_bits(std::size_t bits) {
  if (bits <= 8) return 1;
  if (bits <= 24) return 2;
  if (bits <= 80) return 3;
  if (bits <= 240) return 4;
  return 5;  // 16 odd-power rows; the kTable slot holds exactly 16 rows
}

// ---- backend domains ---------------------------------------------------
// Both expose the same surface to the ladder templates: width() native
// limbs per residue, mul/sqr closed over values < 2n (scalar: < n), and
// load/store converting to/from canonical little-endian 64-bit form. All
// scratch is caller-provided; nothing here allocates. They carry only raw
// pointers copied out of Montgomery's precomputation by its member
// functions.

struct ScalarDomain {
  std::size_t k;
  const u64* n;
  u64 n0inv;
  const u64* one_mont;
  const u64* r2_mont;
  u64* t;  // 2k+2 scratch limbs

  std::size_t width() const { return k; }
  void mul(const u64* a, const u64* b, u64* out) const {
    mont_mul_kernel(a, b, out, n, n0inv, k, t);
  }
  void sqr(const u64* a, u64* out) const {
    mont_sqr_kernel(a, out, n, n0inv, k, t);
  }
  const u64* one_m() const { return one_mont; }
  const u64* r2() const { return r2_mont; }
  void load(std::span<const u64> limbs, u64* out) const {
    std::copy(limbs.begin(), limbs.end(), out);
    std::fill(out + limbs.size(), out + k, u64{0});
  }
  void store(const u64* native, u64* out64) const {
    std::copy(native, native + k, out64);
  }
};

struct IfmaDomain {
  const ifma::Ctx* C;
  u64* scratch;  // k52 limbs for the canonicalizing store
  std::size_t k64;

  std::size_t width() const { return C->k52; }
  void mul(const u64* a, const u64* b, u64* out) const {
    ifma::amm(*C, a, b, out);
  }
  void sqr(const u64* a, u64* out) const { mul(a, a, out); }
  const u64* one_m() const { return C->one52.data(); }
  const u64* r2() const { return C->r2_52.data(); }
  void load(std::span<const u64> limbs, u64* out) const {
    pack52(limbs, out, width());
  }
  void store(const u64* native, u64* out64) const {
    // native < 2n in clean 52-bit limbs; one conditional subtract
    // canonicalizes, after which the value fits k64 limbs.
    std::copy(native, native + width(), scratch);
    if (geq52(scratch, C->n52.data(), width()))
      sub52(scratch, C->n52.data(), width());
    unpack52(scratch, width(), out64, k64);
  }
};

template <class D>
void load_one(const D& d, u64* out) {
  std::fill(out, out + d.width(), u64{0});
  out[0] = 1;
}

// acc = base_m^exp (native Montgomery form), sliding odd-powers window.
// Requires bits >= 1 with bit (bits-1) set. `table` holds up to 16 rows.
template <class D>
void pow_ladder(const D& d, const u64* base_m, std::span<const u64> e,
                std::size_t bits, u64* table, u64* acc) {
  const std::size_t W = d.width();
  const unsigned w = window_for_bits(bits);
  const std::size_t rows = std::size_t{1} << (w - 1);

  // table[j] = base^(2j+1); base^2 is staged in acc (dead until the ladder).
  std::copy(base_m, base_m + W, table);
  if (rows > 1) {
    d.sqr(base_m, acc);
    for (std::size_t j = 1; j < rows; ++j)
      d.mul(table + (j - 1) * W, acc, table + j * W);
  }

  bool started = false;
  std::size_t i = bits;
  while (i > 0) {
    if (!bit_at(e, i - 1)) {
      if (started) d.sqr(acc, acc);
      --i;
      continue;
    }
    std::size_t l = std::min<std::size_t>(w, i);
    unsigned digit = extract_bits(e, i - l, l);
    const unsigned tz = static_cast<unsigned>(std::countr_zero(digit));
    digit >>= tz;  // odd; the stripped zeros re-enter the loop as squarings
    l -= tz;
    const u64* row = table + (digit >> 1) * W;
    if (started) {
      for (std::size_t s = 0; s < l; ++s) d.sqr(acc, acc);
      d.mul(acc, row, acc);
    } else {
      std::copy(row, row + W, acc);
      started = true;
    }
    i -= l;
  }
  assert(started);
}

// acc = a_m^x · b_m^y via Shamir/Straus: 2-bit interleaved windows over one
// shared squaring chain. `table` holds 16 rows: table[4i+j] = a^i·b^j.
template <class D>
void pow2_ladder(const D& d, const u64* a_m, std::span<const u64> x,
                 const u64* b_m, std::span<const u64> y, std::size_t bits,
                 u64* table, u64* acc) {
  const std::size_t W = d.width();
  auto row = [&](unsigned idx) { return table + idx * W; };
  std::copy(b_m, b_m + W, row(1));
  d.sqr(b_m, row(2));
  d.mul(row(2), b_m, row(3));
  std::copy(a_m, a_m + W, row(4));
  d.sqr(a_m, row(8));
  d.mul(row(8), a_m, row(12));
  for (unsigned i = 1; i <= 3; ++i)
    for (unsigned j = 1; j <= 3; ++j) d.mul(row(4 * i), row(j), row(4 * i + j));

  bool started = false;
  for (std::size_t wi = (bits + 1) / 2; wi-- > 0;) {
    if (started) {
      d.sqr(acc, acc);
      d.sqr(acc, acc);
    }
    const unsigned idx =
        extract_bits(x, 2 * wi, 2) * 4 + extract_bits(y, 2 * wi, 2);
    if (idx != 0) {
      if (started) {
        d.mul(acc, row(idx), acc);
      } else {
        std::copy(row(idx), row(idx) + W, acc);
        started = true;
      }
    }
  }
  if (!started) std::copy(d.one_m(), d.one_m() + W, acc);
}

// Montgomery-domain exit fused with an optional extra factor: mont(acc, m)
// for raw m < n equals acc_value · m mod n, so the multiplication replaces
// (not augments) the usual mont(acc, 1) exit.
template <class D>
void exit_store(const D& d, u64* acc, bool have_mult,
                std::span<const u64> mult_limbs, u64* op, u64* out64) {
  if (have_mult) {
    d.load(mult_limbs, op);
  } else {
    load_one(d, op);
  }
  d.mul(acc, op, acc);
  d.store(acc, out64);
}

}  // namespace

// ---- Montgomery --------------------------------------------------------

Montgomery::Montgomery(BigUint modulus, Backend backend)
    : n_(std::move(modulus)) {
  if (n_.is_even() || n_ < BigUint{3})
    throw std::invalid_argument("Montgomery: modulus must be odd and >= 3");
  k_ = n_.limb_count();
  n_limbs_.assign(n_.limbs().begin(), n_.limbs().end());
  n0inv_ = neg_inv64(n_limbs_[0]);

  // R = 2^(64k); R^2 mod n via one big division.
  BigUint r2 = BigUint{1} << (2 * 64 * k_);
  r2 %= n_;
  r2_ = to_raw(r2);
  BigUint r1 = (BigUint{1} << (64 * k_)) % n_;
  one_mont_ = to_raw(r1);

  if (backend == Backend::kIfma && !ifma::available())
    throw std::invalid_argument("Montgomery: AVX-512 IFMA not available");
  // Below ~512-bit moduli the radix-52 repack/vector overhead beats the
  // win; the scalar kernels stay in charge there. Above the widest
  // register-resident kernel (ifma::kMaxVectors) they take over too.
  constexpr std::size_t kIfmaMinLimbs = 8;
  const bool want_ifma =
      backend == Backend::kIfma ||
      (backend == Backend::kAuto && k_ >= kIfmaMinLimbs && ifma::available());
  // R52 = 2^(52·k52) >= 4n keeps almost-Montgomery values closed under 2n;
  // the vector kernels want a lane multiple of 8.
  const std::size_t min52 = (n_.bit_length() + 2 + 51) / 52;
  const std::size_t k52 = ((min52 + 7) / 8) * 8;
  const ifma::AmmKernel kernel = ifma::kernel_for(k52);
  if (!want_ifma || kernel == nullptr) return;

  auto ctx = std::make_unique<ifma::Ctx>();
  ctx->k52 = k52;
  ctx->kernel = kernel;
  ctx->n0inv52 = n0inv_ & kMask52;
  ctx->n52.resize(ctx->k52);
  pack52(n_.limbs(), ctx->n52.data(), ctx->k52);
  BigUint r2_52 = (BigUint{1} << (2 * 52 * ctx->k52)) % n_;
  ctx->r2_52.resize(ctx->k52);
  pack52(r2_52.limbs(), ctx->r2_52.data(), ctx->k52);
  BigUint one52 = (BigUint{1} << (52 * ctx->k52)) % n_;
  ctx->one52.resize(ctx->k52);
  pack52(one52.limbs(), ctx->one52.data(), ctx->k52);
  ifma_ = std::move(ctx);
}

Montgomery::~Montgomery() = default;
Montgomery::Montgomery(Montgomery&&) noexcept = default;
Montgomery& Montgomery::operator=(Montgomery&&) noexcept = default;

MontgomeryWorkspace& Montgomery::tls_workspace() {
  thread_local MontgomeryWorkspace ws;
  return ws;
}

std::vector<u64> Montgomery::to_raw(const BigUint& a) const {
  assert(a < n_);
  std::vector<u64> out(k_, 0);
  auto limbs = a.limbs();
  std::copy(limbs.begin(), limbs.end(), out.begin());
  return out;
}

BigUint Montgomery::from_raw(std::span<const u64> raw) const {
  return BigUint::from_limbs({raw.begin(), raw.end()});
}

void Montgomery::check_operand(const BigUint& a, const char* what) const {
  if (a >= n_)
    throw std::out_of_range(std::string{"Montgomery: "} + what + " >= modulus");
}

void Montgomery::mont_mul(const u64* a, const u64* b, u64* out, u64* t) const {
  mont_mul_kernel(a, b, out, n_limbs_.data(), n0inv_, k_, t);
}

void Montgomery::mont_sqr(const u64* a, u64* out, u64* t) const {
  mont_sqr_kernel(a, out, n_limbs_.data(), n0inv_, k_, t);
}

// ---- raw residue API ---------------------------------------------------

void Montgomery::mul_raw(const u64* a, const u64* b, u64* out,
                         MontgomeryWorkspace& ws) const {
  if (ifma_) {
    const std::size_t W = ifma_->k52;
    u64* scratch = ws.slot(MontgomeryWorkspace::kScratch, W);
    u64* regs = ws.slot(MontgomeryWorkspace::kRegs, 4 * W + k_);
    IfmaDomain d{ifma_.get(), scratch, k_};
    u64* a52 = regs;
    u64* b52 = regs + W;
    d.load({a, k_}, a52);
    d.load({b, k_}, b52);
    d.mul(a52, d.r2(), a52);  // aR (almost-Montgomery form)
    d.mul(a52, b52, a52);     // ab, < 2n
    d.store(a52, out);
    return;
  }
  u64* t = ws.slot(MontgomeryWorkspace::kScratch, 2 * k_ + 2);
  u64* tmp = ws.slot(MontgomeryWorkspace::kRegs, k_);
  mont_mul(a, b, tmp, t);             // ab/R
  mont_mul(tmp, r2_.data(), out, t);  // ab
}

void Montgomery::sqr_raw(const u64* a, u64* out, MontgomeryWorkspace& ws) const {
  if (ifma_) {
    const std::size_t W = ifma_->k52;
    u64* scratch = ws.slot(MontgomeryWorkspace::kScratch, W);
    u64* regs = ws.slot(MontgomeryWorkspace::kRegs, 4 * W + k_);
    IfmaDomain d{ifma_.get(), scratch, k_};
    u64* a52 = regs;
    d.load({a, k_}, a52);
    d.sqr(a52, a52);          // a²/R52
    d.mul(a52, d.r2(), a52);  // a², < 2n
    d.store(a52, out);
    return;
  }
  u64* t = ws.slot(MontgomeryWorkspace::kScratch, 2 * k_ + 2);
  u64* tmp = ws.slot(MontgomeryWorkspace::kRegs, k_);
  mont_sqr(a, tmp, t);                // a²/R
  mont_mul(tmp, r2_.data(), out, t);  // a²
}

void Montgomery::pow_raw(const u64* base, std::span<const u64> exp, u64* out,
                         MontgomeryWorkspace& ws) const {
  const std::size_t bits = span_bit_length(exp);
  if (bits == 0) {
    std::fill(out, out + k_, u64{0});
    out[0] = 1;  // 1 mod n with n >= 3
    return;
  }
  if (ifma_) {
    const std::size_t W = ifma_->k52;
    u64* scratch = ws.slot(MontgomeryWorkspace::kScratch, W);
    u64* table = ws.slot(MontgomeryWorkspace::kTable, 16 * W);
    u64* regs = ws.slot(MontgomeryWorkspace::kRegs, 4 * W + k_);
    IfmaDomain d{ifma_.get(), scratch, k_};
    u64* acc = regs;
    u64* bm = regs + W;
    u64* op = regs + 2 * W;
    d.load({base, k_}, bm);
    d.mul(bm, d.r2(), bm);
    pow_ladder(d, bm, exp, bits, table, acc);
    exit_store(d, acc, false, {}, op, out);
    return;
  }
  const std::size_t W = k_;
  u64* t = ws.slot(MontgomeryWorkspace::kScratch, 2 * W + 2);
  u64* table = ws.slot(MontgomeryWorkspace::kTable, 16 * W);
  u64* regs = ws.slot(MontgomeryWorkspace::kRegs, 4 * W + k_);
  ScalarDomain d{k_, n_limbs_.data(), n0inv_, one_mont_.data(), r2_.data(), t};
  u64* acc = regs;
  u64* bm = regs + W;
  u64* op = regs + 2 * W;
  d.load({base, k_}, bm);
  d.mul(bm, d.r2(), bm);
  pow_ladder(d, bm, exp, bits, table, acc);
  exit_store(d, acc, false, {}, op, out);
}

// ---- BigUint API -------------------------------------------------------

BigUint Montgomery::mul(const BigUint& a, const BigUint& b) const {
  return mul(a, b, tls_workspace());
}

BigUint Montgomery::mul(const BigUint& a, const BigUint& b,
                        MontgomeryWorkspace& ws) const {
  check_operand(a, "mul operand");
  check_operand(b, "mul operand");
  u64* stage = ws.slot(MontgomeryWorkspace::kTable2, 3 * k_);
  u64* ar = stage;
  u64* br = stage + k_;
  u64* out = stage + 2 * k_;
  std::fill(ar, ar + 2 * k_, u64{0});
  std::copy(a.limbs().begin(), a.limbs().end(), ar);
  std::copy(b.limbs().begin(), b.limbs().end(), br);
  mul_raw(ar, br, out, ws);
  return from_raw({out, k_});
}

BigUint Montgomery::sqr(const BigUint& a) const {
  return sqr(a, tls_workspace());
}

BigUint Montgomery::sqr(const BigUint& a, MontgomeryWorkspace& ws) const {
  check_operand(a, "sqr operand");
  u64* stage = ws.slot(MontgomeryWorkspace::kTable2, 3 * k_);
  u64* ar = stage;
  u64* out = stage + 2 * k_;
  std::fill(ar, ar + k_, u64{0});
  std::copy(a.limbs().begin(), a.limbs().end(), ar);
  sqr_raw(ar, out, ws);
  return from_raw({out, k_});
}

BigUint Montgomery::pow(const BigUint& base, const BigUint& exp) const {
  return pow(base, exp, tls_workspace());
}

BigUint Montgomery::pow(const BigUint& base, const BigUint& exp,
                        MontgomeryWorkspace& ws) const {
  check_operand(base, "pow base");
  u64* stage = ws.slot(MontgomeryWorkspace::kTable2, 2 * k_);
  u64* br = stage;
  u64* out = stage + k_;
  std::fill(br, br + k_, u64{0});
  std::copy(base.limbs().begin(), base.limbs().end(), br);
  pow_raw(br, exp.limbs(), out, ws);
  return from_raw({out, k_});
}

BigUint Montgomery::pow_mul(const BigUint& base, const BigUint& exp,
                            const BigUint& mult) const {
  return pow_mul(base, exp, mult, tls_workspace());
}

BigUint Montgomery::pow_mul(const BigUint& base, const BigUint& exp,
                            const BigUint& mult,
                            MontgomeryWorkspace& ws) const {
  check_operand(base, "pow_mul base");
  check_operand(mult, "pow_mul factor");
  if (exp.is_zero()) return mult;
  const std::size_t bits = exp.bit_length();
  u64* stage = ws.slot(MontgomeryWorkspace::kTable2, 2 * k_);
  u64* br = stage;
  u64* out = stage + k_;
  std::fill(br, br + k_, u64{0});
  std::copy(base.limbs().begin(), base.limbs().end(), br);
  if (ifma_) {
    const std::size_t W = ifma_->k52;
    u64* scratch = ws.slot(MontgomeryWorkspace::kScratch, W);
    u64* table = ws.slot(MontgomeryWorkspace::kTable, 16 * W);
    u64* regs = ws.slot(MontgomeryWorkspace::kRegs, 4 * W + k_);
    IfmaDomain d{ifma_.get(), scratch, k_};
    u64* acc = regs;
    u64* bm = regs + W;
    u64* op = regs + 2 * W;
    d.load({br, k_}, bm);
    d.mul(bm, d.r2(), bm);
    pow_ladder(d, bm, exp.limbs(), bits, table, acc);
    exit_store(d, acc, true, mult.limbs(), op, out);
  } else {
    const std::size_t W = k_;
    u64* t = ws.slot(MontgomeryWorkspace::kScratch, 2 * W + 2);
    u64* table = ws.slot(MontgomeryWorkspace::kTable, 16 * W);
    u64* regs = ws.slot(MontgomeryWorkspace::kRegs, 4 * W + k_);
    ScalarDomain d{k_, n_limbs_.data(), n0inv_, one_mont_.data(), r2_.data(), t};
    u64* acc = regs;
    u64* bm = regs + W;
    u64* op = regs + 2 * W;
    d.load({br, k_}, bm);
    d.mul(bm, d.r2(), bm);
    pow_ladder(d, bm, exp.limbs(), bits, table, acc);
    exit_store(d, acc, true, mult.limbs(), op, out);
  }
  return from_raw({out, k_});
}

BigUint Montgomery::pow2(const BigUint& a, const BigUint& x, const BigUint& b,
                         const BigUint& y) const {
  return pow2(a, x, b, y, tls_workspace());
}

BigUint Montgomery::pow2(const BigUint& a, const BigUint& x, const BigUint& b,
                         const BigUint& y, MontgomeryWorkspace& ws) const {
  return pow2_impl(a, x, b, y, nullptr, ws);
}

BigUint Montgomery::pow2_mul(const BigUint& a, const BigUint& x,
                             const BigUint& b, const BigUint& y,
                             const BigUint& mult) const {
  return pow2_mul(a, x, b, y, mult, tls_workspace());
}

BigUint Montgomery::pow2_mul(const BigUint& a, const BigUint& x,
                             const BigUint& b, const BigUint& y,
                             const BigUint& mult,
                             MontgomeryWorkspace& ws) const {
  check_operand(mult, "pow2_mul factor");
  return pow2_impl(a, x, b, y, &mult, ws);
}

BigUint Montgomery::pow2_impl(const BigUint& a, const BigUint& x,
                              const BigUint& b, const BigUint& y,
                              const BigUint* mult,
                              MontgomeryWorkspace& ws) const {
  check_operand(a, "pow2 base");
  check_operand(b, "pow2 base");
  // Degenerate exponents collapse to single-base ladders (cheaper than
  // building the 15-entry product table).
  if (x.is_zero() && y.is_zero()) return mult ? *mult : BigUint{1} % n_;
  if (x.is_zero()) return mult ? pow_mul(b, y, *mult, ws) : pow(b, y, ws);
  if (y.is_zero()) return mult ? pow_mul(a, x, *mult, ws) : pow(a, x, ws);

  const std::size_t bits = std::max(x.bit_length(), y.bit_length());
  u64* stage = ws.slot(MontgomeryWorkspace::kTable2, 3 * k_);
  u64* ar = stage;
  u64* br = stage + k_;
  u64* out = stage + 2 * k_;
  std::fill(ar, ar + 2 * k_, u64{0});
  std::copy(a.limbs().begin(), a.limbs().end(), ar);
  std::copy(b.limbs().begin(), b.limbs().end(), br);
  const bool have_mult = mult != nullptr;
  const std::span<const u64> mult_limbs =
      have_mult ? mult->limbs() : std::span<const u64>{};
  if (ifma_) {
    const std::size_t W = ifma_->k52;
    u64* scratch = ws.slot(MontgomeryWorkspace::kScratch, W);
    u64* table = ws.slot(MontgomeryWorkspace::kTable, 16 * W);
    u64* regs = ws.slot(MontgomeryWorkspace::kRegs, 4 * W + k_);
    IfmaDomain d{ifma_.get(), scratch, k_};
    u64* acc = regs;
    u64* am = regs + W;
    u64* bm = regs + 2 * W;
    d.load({ar, k_}, am);
    d.mul(am, d.r2(), am);
    d.load({br, k_}, bm);
    d.mul(bm, d.r2(), bm);
    pow2_ladder(d, am, x.limbs(), bm, y.limbs(), bits, table, acc);
    // `am` is dead after the ladder; reuse it as the exit operand buffer.
    exit_store(d, acc, have_mult, mult_limbs, am, out);
  } else {
    const std::size_t W = k_;
    u64* t = ws.slot(MontgomeryWorkspace::kScratch, 2 * W + 2);
    u64* table = ws.slot(MontgomeryWorkspace::kTable, 16 * W);
    u64* regs = ws.slot(MontgomeryWorkspace::kRegs, 4 * W + k_);
    ScalarDomain d{k_, n_limbs_.data(), n0inv_, one_mont_.data(), r2_.data(), t};
    u64* acc = regs;
    u64* am = regs + W;
    u64* bm = regs + 2 * W;
    d.load({ar, k_}, am);
    d.mul(am, d.r2(), am);
    d.load({br, k_}, bm);
    d.mul(bm, d.r2(), bm);
    pow2_ladder(d, am, x.limbs(), bm, y.limbs(), bits, table, acc);
    exit_store(d, acc, have_mult, mult_limbs, am, out);
  }
  return from_raw({out, k_});
}

BigUint Montgomery::product(std::span<const BigUint> values) const {
  return product(values, tls_workspace());
}

BigUint Montgomery::product(std::span<const BigUint> values,
                            MontgomeryWorkspace& ws) const {
  for (const auto& v : values) check_operand(v, "product factor");
  if (values.empty()) return BigUint{1} % n_;
  if (values.size() == 1) return values[0];

  u64* out = ws.slot(MontgomeryWorkspace::kTable2, k_);
  // Fold m factors with m-1 Montgomery passes; the result carries an
  // R^{-(m-1)} skew, removed by one multiply with Z = R^m mod n. Z comes
  // from log2(m) passes in the "R-power monoid": mont(R^i, R^j) = R^(i+j-1),
  // so with f(x) := R^(1+x), f(0) = one_mont and f(1) = R², mont acts as
  // addition on x and square-and-multiply over x = m-1 lands on f(m-1) = R^m.
  const u64 e = static_cast<u64>(values.size() - 1);
  const int ebits = 64 - std::countl_zero(e);
  auto fold = [&](auto& d, u64* regs) {
    const std::size_t W = d.width();
    u64* acc = regs;
    u64* op = regs + W;
    u64* z = regs + 2 * W;
    d.load(values[0].limbs(), acc);
    for (std::size_t i = 1; i < values.size(); ++i) {
      d.load(values[i].limbs(), op);
      d.mul(acc, op, acc);
    }
    std::copy(d.r2(), d.r2() + W, z);
    for (int bitpos = ebits - 2; bitpos >= 0; --bitpos) {
      d.mul(z, z, z);
      if ((e >> bitpos) & 1) d.mul(z, d.r2(), z);
    }
    d.mul(acc, z, acc);
    d.store(acc, out);
  };
  if (ifma_) {
    const std::size_t W = ifma_->k52;
    u64* scratch = ws.slot(MontgomeryWorkspace::kScratch, W);
    u64* regs = ws.slot(MontgomeryWorkspace::kRegs, 4 * W + k_);
    IfmaDomain d{ifma_.get(), scratch, k_};
    fold(d, regs);
  } else {
    u64* t = ws.slot(MontgomeryWorkspace::kScratch, 2 * k_ + 2);
    u64* regs = ws.slot(MontgomeryWorkspace::kRegs, 4 * k_ + k_);
    ScalarDomain d{k_, n_limbs_.data(), n0inv_, one_mont_.data(), r2_.data(), t};
    fold(d, regs);
  }
  return from_raw({out, k_});
}

// ---- FixedBaseTable ----------------------------------------------------

FixedBaseTable::FixedBaseTable(const Montgomery& mont, const BigUint& base,
                               std::size_t max_exp_bits, std::size_t window_bits)
    : mont_(&mont), max_exp_bits_(max_exp_bits), window_bits_(window_bits) {
  if (base >= mont.modulus())
    throw std::invalid_argument("FixedBaseTable: base >= modulus");
  if (max_exp_bits_ == 0 || window_bits_ == 0 || window_bits_ > 8)
    throw std::invalid_argument("FixedBaseTable: bad exponent/window bits");
  num_windows_ = (max_exp_bits_ + window_bits_ - 1) / window_bits_;
  digits_ = (std::size_t{1} << window_bits_) - 1;
  row_limbs_ = mont.uses_ifma() ? mont.ifma_->k52 : mont.k_;
  table_.assign(num_windows_ * digits_ * row_limbs_, 0);

  MontgomeryWorkspace& ws = Montgomery::tls_workspace();
  // g = base in native mont form; window i's generator is base^(2^(w·i)),
  // obtained by w squarings of the previous window's generator.
  const std::size_t W = row_limbs_;
  u64* regs = ws.slot(MontgomeryWorkspace::kRegs, 4 * W + mont.k_);
  auto build = [&](auto& d) {
    u64* g = regs;
    u64* stage = ws.slot(MontgomeryWorkspace::kTable2, mont.k_);
    std::fill(stage, stage + mont.k_, u64{0});
    std::copy(base.limbs().begin(), base.limbs().end(), stage);
    d.load({stage, mont.k_}, g);
    d.mul(g, d.r2(), g);
    for (std::size_t i = 0; i < num_windows_; ++i) {
      u64* row0 = table_.data() + i * digits_ * W;
      std::copy(g, g + W, row0);  // j = 1
      for (std::size_t j = 2; j <= digits_; ++j) {
        const u64* prev = table_.data() + (i * digits_ + (j - 2)) * W;
        u64* cur = table_.data() + (i * digits_ + (j - 1)) * W;
        d.mul(prev, g, cur);
      }
      if (i + 1 < num_windows_) {
        for (std::size_t s = 0; s < window_bits_; ++s) d.sqr(g, g);
      }
    }
  };
  if (mont.uses_ifma()) {
    u64* scratch = ws.slot(MontgomeryWorkspace::kScratch, W);
    IfmaDomain d{mont.ifma_.get(), scratch, mont.k_};
    build(d);
  } else {
    u64* t = ws.slot(MontgomeryWorkspace::kScratch, 2 * mont.k_ + 2);
    ScalarDomain d{mont.k_, mont.n_limbs_.data(), mont.n0inv_,
                   mont.one_mont_.data(), mont.r2_.data(), t};
    build(d);
  }
}

BigUint FixedBaseTable::pow(const BigUint& exp) const {
  return pow(exp, Montgomery::tls_workspace());
}

BigUint FixedBaseTable::pow(const BigUint& exp, MontgomeryWorkspace& ws) const {
  if (exp.bit_length() > max_exp_bits_)
    throw std::out_of_range("FixedBaseTable: exponent exceeds table width");
  const Montgomery& m = *mont_;
  const std::size_t W = row_limbs_;
  u64* out = ws.slot(MontgomeryWorkspace::kTable2, m.k_);
  u64* regs = ws.slot(MontgomeryWorkspace::kRegs, 4 * W + m.k_);

  auto eval = [&](auto& d) {
    u64* acc = regs;
    u64* op = regs + W;
    const std::span<const u64> e = exp.limbs();
    bool started = false;
    for (std::size_t w = 0; w < num_windows_; ++w) {
      const unsigned digit = extract_bits(e, w * window_bits_, window_bits_);
      if (digit == 0) continue;
      const u64* row = table_.data() + (w * digits_ + (digit - 1)) * W;
      if (started) {
        d.mul(acc, row, acc);
      } else {
        std::copy(row, row + W, acc);
        started = true;
      }
    }
    if (!started) {
      std::fill(out, out + m.k_, u64{0});
      out[0] = 1;  // exp == 0; modulus >= 3 makes 1 canonical
      return;
    }
    exit_store(d, acc, false, {}, op, out);
  };
  if (m.uses_ifma()) {
    u64* scratch = ws.slot(MontgomeryWorkspace::kScratch, W);
    IfmaDomain d{m.ifma_.get(), scratch, m.k_};
    eval(d);
  } else {
    u64* t = ws.slot(MontgomeryWorkspace::kScratch, 2 * m.k_ + 2);
    ScalarDomain d{m.k_, m.n_limbs_.data(), m.n0inv_, m.one_mont_.data(),
                   m.r2_.data(), t};
    eval(d);
  }
  return m.from_raw({out, m.k_});
}

}  // namespace pisa::bn

// Substrate ablation: the bignum layer that replaces GMP (DESIGN.md §2).
//
// Everything in Table II reduces to these primitives; this bench pins their
// scaling so the substitution's constant factor is visible: multiplication
// (schoolbook → Karatsuba crossover at 2048 bits), Knuth-D division, and
// Montgomery exponentiation (the cost driver: one 2048-bit encryption is
// one ~2048-bit-exponent modexp over a 4096-bit modulus).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"
#include "bigint/biguint.hpp"
#include "bigint/modular.hpp"
#include "bigint/montgomery.hpp"
#include "bigint/prime.hpp"
#include "bigint/random_source.hpp"

namespace {

using namespace pisa::bn;

SplitMix64Random& rng() {
  static SplitMix64Random r{0xB16};
  return r;
}

BigUint value(std::size_t bits) {
  BigUint v = random_bits(rng(), bits);
  v.set_bit(bits - 1);
  return v;
}

void BM_Multiply(benchmark::State& state) {
  auto bits = static_cast<std::size_t>(state.range(0));
  BigUint a = value(bits), b = value(bits);
  for (auto _ : state) benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_Multiply)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(8192);

void BM_DivMod(benchmark::State& state) {
  auto bits = static_cast<std::size_t>(state.range(0));
  BigUint num = value(2 * bits), den = value(bits);
  for (auto _ : state) benchmark::DoNotOptimize(BigUint::divmod(num, den));
}
BENCHMARK(BM_DivMod)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_MontgomeryMul(benchmark::State& state) {
  auto bits = static_cast<std::size_t>(state.range(0));
  BigUint m = value(bits);
  m.set_bit(0);
  Montgomery mont{m};
  BigUint a = value(bits - 1), b = value(bits - 1);
  for (auto _ : state) benchmark::DoNotOptimize(mont.mul(a, b));
}
BENCHMARK(BM_MontgomeryMul)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_MontgomerySqr(benchmark::State& state) {
  // Dedicated squaring kernel: ~half the limb products of mul; squarings
  // dominate every exponentiation ladder.
  auto bits = static_cast<std::size_t>(state.range(0));
  BigUint m = value(bits);
  m.set_bit(0);
  Montgomery mont{m};
  BigUint a = value(bits - 1);
  for (auto _ : state) benchmark::DoNotOptimize(mont.sqr(a));
}
BENCHMARK(BM_MontgomerySqr)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_MontgomeryPow(benchmark::State& state) {
  // The Paillier encryption workhorse: |n|-bit exponent mod an |n²|-bit
  // modulus at Arg = |n²|.
  auto bits = static_cast<std::size_t>(state.range(0));
  BigUint m = value(bits);
  m.set_bit(0);
  Montgomery mont{m};
  BigUint base = value(bits - 1);
  BigUint exp = value(bits / 2);
  for (auto _ : state) benchmark::DoNotOptimize(mont.pow(base, exp));
  state.counters["exp_bits"] = static_cast<double>(bits / 2);
}
BENCHMARK(BM_MontgomeryPow)->Arg(1024)->Arg(2048)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_MontgomeryPow2(benchmark::State& state) {
  // Shamir/Straus a^x·b^y: one shared squaring ladder — compare against
  // twice BM_MontgomeryPow plus a mul.
  auto bits = static_cast<std::size_t>(state.range(0));
  BigUint m = value(bits);
  m.set_bit(0);
  Montgomery mont{m};
  BigUint a = value(bits - 1), b = value(bits - 2);
  BigUint x = value(bits / 2), y = value(bits / 2);
  for (auto _ : state) benchmark::DoNotOptimize(mont.pow2(a, x, b, y));
  state.counters["exp_bits"] = static_cast<double>(bits / 2);
}
BENCHMARK(BM_MontgomeryPow2)->Arg(1024)->Arg(2048)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_ModInverse(benchmark::State& state) {
  // Binary extended-gcd inverse (mod n for a Paillier ⊖, which then
  // Hensel-lifts it to n²).
  auto bits = static_cast<std::size_t>(state.range(0));
  BigUint m = value(bits);
  m.set_bit(0);
  BigUint a = random_coprime(rng(), m);
  for (auto _ : state) benchmark::DoNotOptimize(mod_inverse(a, m));
}
BENCHMARK(BM_ModInverse)->Arg(1024)->Arg(2048)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_Gcd(benchmark::State& state) {
  // random_coprime's test: gcd of a draw below the modulus with the modulus
  // (Paillier randomizers, 7 per decision).
  auto bits = static_cast<std::size_t>(state.range(0));
  BigUint m = value(bits);
  m.set_bit(0);
  BigUint a = random_below(rng(), m);
  for (auto _ : state) benchmark::DoNotOptimize(gcd(a, m));
}
BENCHMARK(BM_Gcd)->Arg(1024);

void BM_MillerRabinRound(benchmark::State& state) {
  auto bits = static_cast<std::size_t>(state.range(0));
  BigUint p = random_prime(rng(), bits, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_probable_prime(p, rng(), 1));
  }
}
BENCHMARK(BM_MillerRabinRound)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_DecimalConversion(benchmark::State& state) {
  BigUint v = value(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(v.to_dec());
}
BENCHMARK(BM_DecimalConversion)->Arg(512)->Arg(2048);

}  // namespace

int main(int argc, char** argv) {
  return pisa::benchjson::run_benchmarks_to_json(argc, argv,
                                                 "BENCH_bigint.json");
}

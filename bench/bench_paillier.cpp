// Table II reproduction: Paillier cryptosystem micro-benchmarks.
//
// Paper (Dell i5-2400 @ 3.10 GHz, GMP, n = 2048 bits):
//   encryption 30.378 ms, decryption 21.170 ms, hom. addition 0.004 ms,
//   hom. subtraction 0.073 ms, scale (100-bit constant) 1.564 ms,
//   scale (full width) 18.867 ms; pk/sk 4096 bits, ciphertext 4096 bits.
//
// We sweep n ∈ {512, 1024, 2048} and add two ablations the paper motivates:
// CRT vs textbook decryption, and pooled (precomputed r^n) vs fresh
// rerandomization — the §VI-A "221 s → 11 s" trick at micro scale.
#include <benchmark/benchmark.h>

#include <map>

#include "bench_json.hpp"
#include <memory>
#include <vector>

#include "bigint/prime.hpp"
#include "crypto/chacha_rng.hpp"
#include "crypto/packing.hpp"
#include "crypto/paillier.hpp"
#include "exec/thread_pool.hpp"

namespace {

using namespace pisa;

crypto::ChaChaRng& rng() {
  static crypto::ChaChaRng r{std::uint64_t{0xBE2C4}};
  return r;
}

const crypto::PaillierKeyPair& keys(std::size_t bits) {
  static std::map<std::size_t, crypto::PaillierKeyPair> cache;
  auto it = cache.find(bits);
  if (it == cache.end())
    it = cache.emplace(bits, crypto::paillier_generate(bits, rng(), 16)).first;
  return it->second;
}

void BM_KeyGeneration(benchmark::State& state) {
  auto bits = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::paillier_generate(bits, rng(), 16));
  }
}
BENCHMARK(BM_KeyGeneration)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_Encryption(benchmark::State& state) {
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  bn::BigUint m = bn::random_bits(rng(), 60);  // paper's 60-bit representation
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pk.encrypt(m, rng()));
  }
  state.counters["ciphertext_bits"] =
      static_cast<double>(kp.pk.ciphertext_bytes() * 8);
}
BENCHMARK(BM_Encryption)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_DecryptionCrt(benchmark::State& state) {
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto ct = kp.pk.encrypt(bn::random_bits(rng(), 60), rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.sk.decrypt(ct));
  }
}
BENCHMARK(BM_DecryptionCrt)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_DecryptionTextbook(benchmark::State& state) {
  // Ablation: the paper's 21.17 ms figure is textbook λ/μ decryption; CRT
  // should win by ~4x.
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto ct = kp.pk.encrypt(bn::random_bits(rng(), 60), rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.sk.decrypt_no_crt(ct));
  }
}
BENCHMARK(BM_DecryptionTextbook)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_HomomorphicAddition(benchmark::State& state) {
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto a = kp.pk.encrypt(bn::BigUint{123}, rng());
  auto b = kp.pk.encrypt(bn::BigUint{456}, rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pk.add(a, b));
  }
}
BENCHMARK(BM_HomomorphicAddition)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_HomomorphicSubtraction(benchmark::State& state) {
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto a = kp.pk.encrypt(bn::BigUint{1000}, rng());
  auto b = kp.pk.encrypt(bn::BigUint{1}, rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pk.sub(a, b));
  }
}
BENCHMARK(BM_HomomorphicSubtraction)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_NegateBatch(benchmark::State& state) {
  // ⊖ over one request phase's ε-selected entries: one Hensel-lifted
  // inverse plus 3·(count − 1) multiplications for the whole batch.
  // Arg pair = (key bits, batch size).
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  std::vector<crypto::PaillierCiphertext> cs(
      static_cast<std::size_t>(state.range(1)));
  for (auto& c : cs) c = kp.pk.encrypt(bn::BigUint{42}, rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pk.negate_many(cs));
  }
  state.counters["entries"] = static_cast<double>(cs.size());
}
BENCHMARK(BM_NegateBatch)->Args({1024, 6})->Unit(benchmark::kMillisecond);

void BM_ScalarMul100Bit(benchmark::State& state) {
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto ct = kp.pk.encrypt(bn::BigUint{7}, rng());
  bn::BigUint k = bn::random_bits(rng(), 100);  // paper's "100-bit constant"
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pk.scalar_mul(k, ct));
  }
}
BENCHMARK(BM_ScalarMul100Bit)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_ScalarMulFullWidth(benchmark::State& state) {
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto ct = kp.pk.encrypt(bn::BigUint{7}, rng());
  bn::BigUint k = bn::random_below(rng(), kp.pk.n());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pk.scalar_mul(k, ct));
  }
}
BENCHMARK(BM_ScalarMulFullWidth)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_BlindEntryFused(benchmark::State& state) {
  // The SDC begin_request kernel (eqs. (11)+(14)): one Shamir/Straus double
  // exponentiation + one inverse, vs the chain below.
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto budget = kp.pk.encrypt(bn::BigUint{5000}, rng());
  auto f = kp.pk.encrypt(bn::BigUint{1}, rng());
  bn::BigUint x{40};
  bn::BigUint alpha = bn::random_bits(rng(), 128);
  alpha.set_bit(127);
  bn::BigUint beta = bn::random_below(rng(), alpha - bn::BigUint{1}) + bn::BigUint{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pk.blind_entry(budget, f, x, alpha, beta, 1));
  }
}
BENCHMARK(BM_BlindEntryFused)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_BlindEntryUnfused(benchmark::State& state) {
  // Ablation: the original scalar_mul/sub/scalar_mul/sub composition.
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto budget = kp.pk.encrypt(bn::BigUint{5000}, rng());
  auto f = kp.pk.encrypt(bn::BigUint{1}, rng());
  bn::BigUint x{40};
  bn::BigUint alpha = bn::random_bits(rng(), 128);
  alpha.set_bit(127);
  bn::BigUint beta = bn::random_below(rng(), alpha - bn::BigUint{1}) + bn::BigUint{1};
  for (auto _ : state) {
    auto i_ct = kp.pk.sub(budget, kp.pk.scalar_mul(x, f));
    benchmark::DoNotOptimize(kp.pk.sub(kp.pk.scalar_mul(alpha, i_ct),
                                       kp.pk.encrypt_deterministic(beta)));
  }
}
BENCHMARK(BM_BlindEntryUnfused)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_RerandomizeFresh(benchmark::State& state) {
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto ct = kp.pk.encrypt(bn::BigUint{7}, rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pk.rerandomize(ct, rng()));
  }
}
BENCHMARK(BM_RerandomizeFresh)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_RerandomizePooled(benchmark::State& state) {
  // §VI-A: with r^n precomputed offline, rerandomization is one modular
  // multiplication — the same cost class as homomorphic addition.
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto ct = kp.pk.encrypt(bn::BigUint{7}, rng());
  auto factor = kp.pk.make_randomizer(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pk.rerandomize_with(ct, factor));
  }
}
BENCHMARK(BM_RerandomizePooled)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

// --- Batch pipeline (src/exec): the same kernels dispatched over a
// work-stealing pool. Arg pair = (key bits, threads). On a single-core host
// the >1-thread rows only show the dispatch overhead; with real cores the
// modexps scale near-linearly.

exec::ThreadPool* pool_for(std::size_t threads) {
  static std::map<std::size_t, std::unique_ptr<exec::ThreadPool>> cache;
  if (threads <= 1) return nullptr;
  auto it = cache.find(threads);
  if (it == cache.end())
    it = cache.emplace(threads, std::make_unique<exec::ThreadPool>(threads)).first;
  return it->second.get();
}

void BM_EncryptBatch64(benchmark::State& state) {
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto* pool = pool_for(static_cast<std::size_t>(state.range(1)));
  std::vector<bn::BigUint> ms(64);
  for (auto& m : ms) m = bn::random_bits(rng(), 60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pk.encrypt_batch(ms, rng(), pool));
  }
  state.counters["entries"] = 64;
}
BENCHMARK(BM_EncryptBatch64)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4})
    ->Unit(benchmark::kMillisecond);

void BM_DecryptBatch64(benchmark::State& state) {
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto* pool = pool_for(static_cast<std::size_t>(state.range(1)));
  std::vector<bn::BigUint> ms(64);
  for (auto& m : ms) m = bn::random_bits(rng(), 60);
  auto cts = kp.pk.encrypt_batch(ms, rng(), nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.sk.decrypt_batch(cts, pool));
  }
  state.counters["entries"] = 64;
}
BENCHMARK(BM_DecryptBatch64)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4})
    ->Unit(benchmark::kMillisecond);

void BM_ScalarMulBatch64(benchmark::State& state) {
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto* pool = pool_for(static_cast<std::size_t>(state.range(1)));
  std::vector<bn::BigUint> ms(64, bn::BigUint{7});
  auto cts = kp.pk.encrypt_batch(ms, rng(), nullptr);
  std::vector<bn::BigUint> k{bn::random_bits(rng(), 100)};  // broadcast
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pk.scalar_mul_batch(k, cts, pool));
  }
  state.counters["entries"] = 64;
}
BENCHMARK(BM_ScalarMulBatch64)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4})
    ->Unit(benchmark::kMillisecond);

// --- Slot packing (crypto::SlotCodec, DESIGN.md §3.4): the same Paillier
// kernels over packed plaintexts. Arg pair = (key bits, slots per
// ciphertext); items/sec counts *channel entries*, so the per-entry rates
// must rise ~k× — one modexp/decryption now carries k entries. Slot width
// 199 = 60 (quantizer) + 9 (X envelope) + 128 (blind_bits) + 2 (guard),
// the protocol's own layout at blind_bits = 128.

constexpr std::size_t kSlotBits = 199;

void BM_PackedFoldAdd(benchmark::State& state) {
  // The handle_pu_update fold: one packed ⊕ replaces k per-channel ⊕s.
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto k = static_cast<std::size_t>(state.range(1));
  crypto::SlotCodec codec{kSlotBits, k};
  std::vector<bn::BigInt> va(k), vb(k);
  for (std::size_t j = 0; j < k; ++j) {
    va[j] = bn::BigInt{bn::random_bits(rng(), 60)};
    vb[j] = bn::BigInt{bn::random_bits(rng(), 60), true};
  }
  auto a = kp.pk.encrypt(codec.pack(va).mod_euclid(kp.pk.n()), rng());
  auto b = kp.pk.encrypt(codec.pack(vb).mod_euclid(kp.pk.n()), rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pk.add(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_PackedFoldAdd)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4})
    ->Args({2048, 1})->Args({2048, 8});

void BM_PackedDecryptUnpack(benchmark::State& state) {
  // The STP conversion kernel: one CRT decryption + digit unpack yields k
  // sign extractions (vs k full decryptions unpacked).
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto k = static_cast<std::size_t>(state.range(1));
  crypto::SlotCodec codec{kSlotBits, k};
  std::vector<bn::BigInt> vs(k);
  for (std::size_t j = 0; j < k; ++j)
    vs[j] = bn::BigInt{bn::random_bits(rng(), 180), (j & 1) != 0};
  auto ct = kp.pk.encrypt(codec.pack(vs).mod_euclid(kp.pk.n()), rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.unpack(kp.sk.decrypt_signed(ct)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_PackedDecryptUnpack)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4})
    ->Args({2048, 1})->Args({2048, 8})
    ->Unit(benchmark::kMillisecond);

void BM_PackedBlindEntry(benchmark::State& state) {
  // Eq. (14) on a packed operand: the fused double-exponentiation costs
  // the same as unpacked (α and X widths unchanged; only the cheap
  // closed-form E(β̃) operand widens), so per entry it amortizes ~k×.
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  auto k = static_cast<std::size_t>(state.range(1));
  crypto::SlotCodec codec{kSlotBits, k};
  std::vector<bn::BigInt> budgets(k), fs(k), betas(k);
  bn::BigUint alpha = bn::random_bits(rng(), 128);
  alpha.set_bit(127);
  for (std::size_t j = 0; j < k; ++j) {
    budgets[j] = bn::BigInt{5000 + static_cast<std::int64_t>(j)};
    fs[j] = bn::BigInt{1};
    betas[j] = bn::BigInt{bn::random_below(rng(), alpha - bn::BigUint{1}) +
                          bn::BigUint{1}};
  }
  auto budget = kp.pk.encrypt(codec.pack(budgets).mod_euclid(kp.pk.n()), rng());
  auto f = kp.pk.encrypt(codec.pack(fs).mod_euclid(kp.pk.n()), rng());
  bn::BigUint beta_pack = codec.pack(betas).magnitude();
  bn::BigUint x{40};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kp.pk.blind_entry(budget, f, x, alpha, beta_pack, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_PackedBlindEntry)
    ->Args({1024, 1})->Args({1024, 4})->Args({2048, 1})->Args({2048, 8})
    ->Unit(benchmark::kMillisecond);

void BM_MakeRandomizer(benchmark::State& state) {
  // One full |n|-bit modexp per factor — the cost of one RandomizerSource
  // factor, cached ahead or computed inline.
  const auto& kp = keys(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pk.make_randomizer(rng()));
  }
}
BENCHMARK(BM_MakeRandomizer)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return pisa::benchjson::run_benchmarks_to_json(argc, argv,
                                                 "BENCH_paillier.json");
}

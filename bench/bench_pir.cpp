// Layer bench for the §3.10 XOR-PIR answer path (DESIGN.md §3.10): one
// replica's scan of a query batch, and the SU's local decision over ℓ = 2
// replies. Rows are named by shape so a regression shows which side moved:
//
//   BM_PirScan/R/C/S   PirReplica::answer for S shares over an R-block,
//                      C-channel database, sequential (no pool): the
//                      paper's Table I shape (600 × 100, 162 shares, the
//                      span pisa_bench's pir_paper fetches) and the town
//                      shape (6 × 4, 6 shares) where per-call overhead
//                      dominates.
//   BM_PirDecide/S     PirClient::decide over two replicas' replies of S
//                      rows at the paper shape: reconstruction, budget
//                      reads, the F-outside-the-interval check and the
//                      margin evaluation.
//
// Inputs come from a seeded generator at run time; every result goes
// through benchmark::DoNotOptimize. Writes BENCH_pir.json to the cwd;
// `--quick` caps each row's window for CI's perf smoke job.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"
#include "bigint/random_source.hpp"
#include "crypto/chacha_rng.hpp"
#include "pir/pir_client.hpp"
#include "pir/pir_replica.hpp"
#include "watch/matrices.hpp"

namespace {

using namespace pisa;

watch::QMatrix random_budgets(std::size_t channels, std::size_t blocks,
                              std::uint64_t seed) {
  bn::SplitMix64Random r{seed};
  watch::QMatrix e{channels, blocks};
  for (auto& v : e) v = static_cast<std::int64_t>(r.next_u64() >> 20);
  return e;
}

void BM_PirScan(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto channels = static_cast<std::size_t>(state.range(1));
  const auto shares = static_cast<std::uint32_t>(state.range(2));
  pir::PirReplica replica{random_budgets(channels, rows, 5), 1};
  crypto::ChaChaRng rng{std::uint64_t{11}};
  pir::PirClient client{1, 2, rows, rng};
  const auto queries = client.make_queries(1, 0, shares);
  for (auto _ : state) {
    auto reply = replica.answer(queries[0], nullptr);
    benchmark::DoNotOptimize(reply);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * rows * replica.database().row_bytes()));
}
BENCHMARK(BM_PirScan)->Args({600, 100, 162})->Args({6, 4, 6});

void BM_PirDecide(benchmark::State& state) {
  const auto fetched = static_cast<std::uint32_t>(state.range(0));
  watch::WatchConfig wcfg;
  wcfg.grid_rows = 20;
  wcfg.grid_cols = 30;
  wcfg.channels = 100;
  const std::size_t blocks = wcfg.grid_rows * wcfg.grid_cols;
  const auto e = random_budgets(wcfg.channels, blocks, 7);
  pir::PirReplica r0{e, 1}, r1{e, 1};
  crypto::ChaChaRng rng{std::uint64_t{13}};
  pir::PirClient client{1, 2, blocks, rng};
  const std::uint32_t lo = 210;  // the band pir_paper's SUs stand in
  const auto queries = client.make_queries(1, lo, lo + fetched);
  const std::vector<pir::PirReplyMsg> replies{r0.answer(queries[0], nullptr),
                                              r1.answer(queries[1], nullptr)};
  // F is non-zero only inside the fetched interval, as a ranged request's is.
  bn::SplitMix64Random r{17};
  watch::QMatrix f{wcfg.channels, blocks};
  for (std::uint32_t c = 0; c < wcfg.channels; ++c)
    for (std::uint32_t b = lo; b < lo + fetched; ++b)
      f.at(radio::ChannelId{c}, radio::BlockId{b}) =
          static_cast<std::int64_t>(r.next_u64() % 1000);
  for (auto _ : state) {
    auto d = client.decide(replies, wcfg, f, lo);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_PirDecide)->Arg(162);

}  // namespace

int main(int argc, char** argv) {
  return pisa::benchjson::run_benchmarks_to_json(argc, argv, "BENCH_pir.json");
}

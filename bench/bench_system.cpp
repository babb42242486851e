// Figure 6 reproduction: PISA end-to-end system evaluation.
//
// Paper (C = 100 channels × B = 600 blocks, n = 2048, GMP, i5-2400):
//   SU request preparation            ≈ 221 s   (≈ 11 s re-randomize-only)
//   SU request ciphertext             ≈ 29 MB
//   SDC request processing            ≈ 219 s
//   SDC → SU response                 ≈ 4.1 kb (one ciphertext)
//   PU update message                 ≈ 0.05 MB (C ciphertexts)
//   SDC update processing             ≈ 2.6 s
//
// Full-scale C×B = 60,000 entries would take ~45 min of wall clock per
// request on this single-core container, so we measure scaled grids,
// verify per-entry costs are scale-invariant (they are: every pipeline
// stage is a per-entry loop), and report measured-per-entry × 60,000
// extrapolations next to the paper's numbers. EXPERIMENTS.md records the
// comparison.
//
// The slot-packing sweep (PisaConfig::pack_slots, DESIGN.md §3.4) reruns
// the same workload at k ∈ {1, 2, 4} slots per ciphertext: PU-update
// encryption/folding and the SDC↔STP conversion link must shrink ~k× in
// both time and bytes, with identical grant decisions.
//
// The multi-SU throughput sweep (DESIGN.md §3.5) serves an identical burst
// of concurrent requests three ways — sequential baseline, concurrent but
// unbatched, and through the cross-request batching engine — and reports
// virtual-time requests/sec, latency percentiles, conversion round-trips
// and bytes per request.
//
// The shard × durability sweep (DESIGN.md §3.6) reruns an identical
// PU-fold burst + request serve at num_shards ∈ {1, 2, 4, 8}, durability
// off and on: per-shard fold throughput, wall-clock requests/sec (the
// WAL-overhead guard input — scripts/check_perf_regression.py fails the
// run when WAL-on costs more than 15% of WAL-off requests/sec) and the
// crash-recovery rebuild time measured by the engine itself.
//
// The TCP closed-loop sweep (DESIGN.md §3.7) drives the real epoll
// transport: an RpcServer behind a loopback listener, an RpcClient
// multiplexing 64 / 256 / 1024 concurrent SU sessions over one pipelined
// connection, requests pre-encrypted off the clock. Wall-clock req/s,
// p50/p99 sojourn times and wire bytes land in the same throughput[]
// table with transport="tcp". `--transport=tcp` runs only this sweep —
// the socket load-generator mode.
//
// The denial-mix sweep (DESIGN.md §3.8) serves grant:deny mixes of
// {80:20, 50:50, 20:80} with the encrypted cuckoo denial prefilter off and
// on, over both transports: with the filter on, requests that hit a
// confirmed-exhausted block come back as one 32-byte FastDenyMsg instead
// of running the blinded-conversion pipeline, and the on/off pair at the
// 80%-deny mix feeds the ≥2x fast-deny guard.
//
// The scenario sweep (DESIGN.md §3.9) runs the time-stepped dynamic-
// spectrum schedule — SU mobility, channel churn, PU relocation and
// power-toggles, license expiry/revocation — twice per fleet size over the
// same seed: full-column PU updates vs incremental deltas. The delta rows
// run the PU offline phase first (precomputed r^n pools, §VI-A's
// pooled-preparation argument applied to the PU side); the full-column
// rows stay un-pooled — they are the pre-§3.9 baseline. Per-send update
// cost, ticks/sec, sustained req/s, delta cells/tick, WAL bytes/tick and
// the engine's count of decisions that differ from the plaintext WATCH
// oracle land in scenario_sweep[]; the full/delta pair feeds the ≥3x
// incremental speedup floor, and every row must report 0 mismatches.
//
// The PIR sweep (DESIGN.md §3.10) pits the XOR multi-server PIR query
// path against the blinded-conversion pipeline on the same seeded world at
// the scaling[] grid sizes, over both transports: per-request wall-clock
// latency, wire bytes per request (framing included on tcp) and the
// replica-side XOR scan cost, with a decisions_match flag asserting the
// two privacy mechanisms reach identical verdicts. The within-run
// Paillier/PIR latency pair feeds the ≥10x PIR floor in
// scripts/check_perf_regression.py.
//
// `--quick` runs the n=1024 scaling rows, the pack sweep, a two-point
// thread sweep, the {2, 8}-SU throughput sweep, the 64-session TCP row,
// the full shard × durability grid with a shortened per-row burst, a
// 40-tick 2-SU scenario pair, and one sim-transport PIR row at the small
// grid (no 4-lane row, no 16-SU fleet, no 256/1024-session TCP rows, no
// n=2048 production row, no 120-tick 4-SU scenario rows, no tcp or
// 10×60 PIR rows) — the CI perf-smoke configuration that
// scripts/check_perf_regression.py compares against the committed
// BENCH_system.json.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bench_json.hpp"
#include "core/protocol.hpp"
#include "core/scenario_engine.hpp"
#include "crypto/chacha_rng.hpp"
#include "exec/thread_pool.hpp"
#include "net/rpc_server.hpp"
#include "radio/pathloss.hpp"
#include "watch/matrices.hpp"
#include "watch/plain_watch.hpp"

// Snapshot attribution (bench/CMakeLists.txt injects these at configure
// time): committed BENCH_system.json records which source revision and
// compiler flags produced it, so numbers stay comparable across PRs.
#ifndef PISA_GIT_REV
#define PISA_GIT_REV "unknown"
#endif
#ifndef PISA_BENCH_BUILD_TYPE
#define PISA_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PISA_BENCH_FLAGS
#define PISA_BENCH_FLAGS ""
#endif

namespace {

using namespace pisa;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Row {
  std::size_t paillier_bits;
  std::size_t channels, blocks;
  std::size_t num_threads = 1;
  std::size_t pack_slots = 1;
  double prep_fresh_ms = 0, prep_pooled_ms = 0, prep_hybrid_ms = 0;
  std::size_t request_bytes = 0;
  double sdc_phase1_ms = 0, stp_convert_ms = 0, stp_convert_pooled_ms = 0,
         sdc_phase2_ms = 0;
  std::size_t convert_bytes = 0;        // SDC → STP Ṽ (Figure 5 step 5)
  std::size_t convert_reply_bytes = 0;  // STP → SDC X̃ (Figure 5 step 8)
  std::size_t response_bytes = 0;
  double pu_encrypt_ms = 0, pu_apply_ms = 0, pu_recompute_ms = 0;
  std::size_t pu_update_bytes = 0;

  std::size_t entries() const { return channels * blocks; }
  double total_processing_ms() const {
    return sdc_phase1_ms + sdc_phase2_ms;  // paper's "processing" is SDC-side
  }
  /// End-to-end latency of one fresh request: SU prep + SDC blind + STP
  /// convert + SDC finish (network transfer excluded — bytes are reported
  /// separately). The perf-regression guard watches this number.
  double su_request_total_ms() const {
    return prep_fresh_ms + sdc_phase1_ms + stp_convert_ms + sdc_phase2_ms;
  }
};

Row measure(std::size_t paillier_bits, std::size_t channels, std::size_t rows,
            std::size_t cols, std::uint64_t seed, std::size_t num_threads = 1,
            std::size_t pack_slots = 1) {
  core::PisaConfig cfg;
  cfg.watch.grid_rows = rows;
  cfg.watch.grid_cols = cols;
  cfg.watch.block_size_m = 100.0;
  cfg.watch.channels = channels;
  cfg.paillier_bits = paillier_bits;
  cfg.rsa_bits = paillier_bits / 2;  // license key strictly below the slot width
  cfg.blind_bits = 128;
  cfg.mr_rounds = 12;
  cfg.num_threads = num_threads;
  cfg.pack_slots = pack_slots;

  crypto::ChaChaRng rng{seed};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  std::vector<watch::PuSite> sites{{0, radio::BlockId{0}}};
  core::PisaSystem system{cfg, sites, model, rng};
  auto& su = system.add_su(1);
  // Direct begin/finish_request calls below bypass the network key
  // directory, so prime the SDC with the SU key explicitly.
  system.sdc().register_su_key(1, su.public_key());

  Row row{paillier_bits, channels, rows * cols, num_threads, pack_slots};

  // --- PU update path (Figure 4).
  auto& pu = system.pu(0);
  watch::PuTuning tuning{radio::ChannelId{0}, 1e-6};
  auto t0 = Clock::now();
  auto update = pu.make_update(tuning);
  row.pu_encrypt_ms = ms_since(t0);
  row.pu_update_bytes =
      update.encode(system.stp().group_key().ciphertext_bytes()).size();
  t0 = Clock::now();
  system.sdc().handle_pu_update(update);
  row.pu_apply_ms = ms_since(t0);
  t0 = Clock::now();
  system.sdc().recompute_budget();
  row.pu_recompute_ms = ms_since(t0);

  // --- SU request path (Figure 5).
  watch::SuRequest request{1, radio::BlockId{static_cast<std::uint32_t>(
                                  row.blocks - 1)},
                           std::vector<double>(channels, 100.0)};
  auto f = system.build_f(request);

  t0 = Clock::now();
  auto msg = su.prepare_request(f, 1001);
  row.prep_fresh_ms = ms_since(t0);
  row.request_bytes =
      msg.encode(system.stp().group_key().ciphertext_bytes()).size();

  su.precompute_randomizers(f.size());
  t0 = Clock::now();
  auto msg2 = su.prepare_request(f, 1002, core::PrepMode::kPooled);
  row.prep_pooled_ms = ms_since(t0);

  // Hybrid = the paper's description: fresh encryptions only for the
  // entries within d^c of a PU site, pooled re-randomization for the
  // all-zero bulk.
  su.precompute_randomizers(f.size());
  t0 = Clock::now();
  auto msg3 = su.prepare_request(f, 1003, 0,
                                 static_cast<std::uint32_t>(f.blocks()),
                                 core::PrepMode::kHybrid);
  row.prep_hybrid_ms = ms_since(t0);

  t0 = Clock::now();
  auto conv = system.sdc().begin_request(msg);
  row.sdc_phase1_ms = ms_since(t0);
  row.convert_bytes =
      conv.encode(system.stp().group_key().ciphertext_bytes()).size();

  t0 = Clock::now();
  auto xresp = system.stp().convert(conv);
  row.stp_convert_ms = ms_since(t0);
  row.convert_reply_bytes =
      xresp.encode(su.public_key().ciphertext_bytes()).size();

  t0 = Clock::now();
  auto resp = system.sdc().finish_request(xresp);
  row.sdc_phase2_ms = ms_since(t0);
  row.response_bytes = resp.encode(su.public_key().ciphertext_bytes()).size();

  // STP ablation: precomputed per-SU randomizer pools for the conversion.
  auto conv2 = system.sdc().begin_request(msg2);
  system.stp().precompute_su_randomizers(1, conv2.v.size());
  t0 = Clock::now();
  auto xresp2 = system.stp().convert(conv2);
  row.stp_convert_pooled_ms = ms_since(t0);
  (void)system.sdc().finish_request(xresp2);

  // Consume the third prepared request so the hybrid path is exercised
  // end to end as well.
  auto conv3 = system.sdc().begin_request(msg3);
  (void)system.sdc().finish_request(system.stp().convert(conv3));
  return row;
}

void print_row(const Row& r) {
  std::printf(
      "n=%4zu C=%3zu B=%4zu (%5zu entries) | prep %8.1f ms (pooled %7.1f) "
      "req %8.2f MB | SDC %8.1f ms STP %8.1f ms | resp %5zu B | PU enc %6.1f "
      "ms, msg %6.2f kB, apply %6.1f ms, recompute %8.1f ms\n",
      r.paillier_bits, r.channels, r.blocks, r.entries(), r.prep_fresh_ms,
      r.prep_pooled_ms, static_cast<double>(r.request_bytes) / 1e6,
      r.total_processing_ms(), r.stp_convert_ms, r.response_bytes,
      r.pu_encrypt_ms, static_cast<double>(r.pu_update_bytes) / 1e3,
      r.pu_apply_ms, r.pu_recompute_ms);
}

void print_extrapolation(const Row& r) {
  // Everything scales linearly in C×B except the PU paths, which scale in C.
  const double k = 60000.0 / static_cast<double>(r.entries());
  const double kc = 100.0 / static_cast<double>(r.channels);
  std::printf("\n--- Extrapolation to the paper's Table I scale "
              "(C=100, B=600, n=%zu) vs paper (n=2048) ---\n",
              r.paillier_bits);
  std::printf("  %-34s %10.1f s   (paper ~221 s)\n",
              "SU request preparation (fresh):", r.prep_fresh_ms * k / 1e3);
  std::printf("  %-34s %10.1f s   (paper ~221 s incl. zero-entry reuse)\n",
              "SU request preparation (hybrid):", r.prep_hybrid_ms * k / 1e3);
  std::printf("  %-34s %10.1f s   (paper ~11 s)\n",
              "SU request preparation (pooled):", r.prep_pooled_ms * k / 1e3);
  std::printf("  %-34s %10.1f MB  (paper ~29 MB)\n",
              "SU request size:", static_cast<double>(r.request_bytes) * k / 1e6);
  std::printf("  %-34s %10.1f s   (paper ~219 s)\n",
              "SDC request processing:", r.total_processing_ms() * k / 1e3);
  std::printf("  %-34s %10.1f s   (paper: not reported)\n",
              "STP key conversion:", r.stp_convert_ms * k / 1e3);
  std::printf("  %-34s %10.1f s   (ablation: per-SU randomizer pools)\n",
              "STP key conversion (pooled):", r.stp_convert_pooled_ms * k / 1e3);
  std::printf("  %-34s %10.2f kb  (paper ~4.1 kb)\n", "SDC -> SU response:",
              static_cast<double>(r.response_bytes) * 8.0 / 1e3);
  std::printf("  %-34s %10.3f MB  (paper ~0.05 MB)\n", "PU update message:",
              static_cast<double>(r.pu_update_bytes) * kc / 1e6);
  std::printf("  %-34s %10.2f s   (paper ~2.6 s)\n",
              "PU update processing (recompute):",
              (r.pu_encrypt_ms + r.pu_recompute_ms) * kc / 1e3);
  std::printf("  %-34s %10.3f s   (ablation: incremental path)\n",
              "PU update processing (incremental):",
              (r.pu_encrypt_ms + r.pu_apply_ms) * kc / 1e3);
}

double speedup(double base_ms, double ms) { return ms > 0 ? base_ms / ms : 0; }

void print_sweep_row(const Row& base, const Row& r) {
  std::printf("  threads=%zu | prep %8.1f ms (%.2fx) pooled %7.1f ms (%.2fx) | "
              "SDC p1 %8.1f ms (%.2fx) p2 %6.1f ms (%.2fx) | STP %8.1f ms "
              "(%.2fx) | PU apply %6.1f ms (%.2fx)\n",
              r.num_threads, r.prep_fresh_ms,
              speedup(base.prep_fresh_ms, r.prep_fresh_ms), r.prep_pooled_ms,
              speedup(base.prep_pooled_ms, r.prep_pooled_ms), r.sdc_phase1_ms,
              speedup(base.sdc_phase1_ms, r.sdc_phase1_ms), r.sdc_phase2_ms,
              speedup(base.sdc_phase2_ms, r.sdc_phase2_ms), r.stp_convert_ms,
              speedup(base.stp_convert_ms, r.stp_convert_ms), r.pu_apply_ms,
              speedup(base.pu_apply_ms, r.pu_apply_ms));
}

// ---- Multi-SU throughput (DESIGN.md §3.5) --------------------------------
//
// The same burst of concurrent SU requests served three ways:
//   sequential            one request fully drains before the next starts —
//                         the paper's one-at-a-time baseline
//   concurrent_unbatched  all requests in flight at once, but one
//                         ConvertRequestMsg round-trip per SU
//   batched               the cross-request engine: blinded Ṽ entries
//                         coalesced into one ConvertBatchMsg, always-warm
//                         per-SU STP pools, request-phase pipelining
// requests/sec comes from the virtual-time makespan, so the comparison
// isolates protocol round-trips from host load and stays deterministic for
// the CI perf guard.

enum class ThroughputMode { kSequential, kConcurrentUnbatched, kBatched };

const char* mode_name(ThroughputMode m) {
  switch (m) {
    case ThroughputMode::kSequential: return "sequential";
    case ThroughputMode::kConcurrentUnbatched: return "concurrent_unbatched";
    case ThroughputMode::kBatched: return "batched";
  }
  return "?";
}

struct ThroughputRow {
  std::string transport = "sim";  // "sim" = virtual-time SimulatedNetwork,
                                  // "tcp" = real epoll sockets (wall clock)
  std::string mode;
  std::size_t concurrency = 0;
  std::size_t entries_per_request = 0;
  double makespan_us = 0;        // sim: virtual time; tcp: wall clock
  double requests_per_sec = 0;   // concurrency / makespan
  double p50_latency_us = 0;
  double p95_latency_us = 0;
  double p99_latency_us = 0;
  std::size_t convert_round_trips = 0;  // SDC→STP conversion messages
  double bytes_per_request = 0;         // Σ all four links / concurrency
  double wire_bytes_per_request = 0;    // tcp only: TCP payload bytes, both
                                        // directions, from transport stats
  double serve_wall_ms = 0;             // host wall clock of the drain
};

double percentile(const std::vector<double>& sorted, std::size_t pct) {
  return sorted[(sorted.size() * pct + 99) / 100 - 1];
}

ThroughputRow measure_throughput(ThroughputMode mode, std::size_t concurrency,
                                 std::uint64_t seed) {
  core::PisaConfig cfg;
  cfg.watch.grid_rows = 2;
  cfg.watch.grid_cols = 3;
  cfg.watch.block_size_m = 100.0;
  cfg.watch.channels = 4;
  cfg.paillier_bits = 1024;
  cfg.rsa_bits = 512;
  cfg.blind_bits = 128;
  cfg.mr_rounds = 12;
  const std::size_t blocks = cfg.watch.grid_rows * cfg.watch.grid_cols;
  const std::size_t entries = cfg.watch.channels * blocks;
  if (mode == ThroughputMode::kBatched) {
    cfg.convert_batch_max = 4096;       // coalesce the whole burst
    cfg.convert_batch_linger_us = 200.0;
    cfg.stp_pool_target = entries;      // always-warm: one full request deep
  }

  crypto::ChaChaRng rng{seed};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  std::vector<watch::PuSite> sites{{0, radio::BlockId{0}}};
  core::PisaSystem system{cfg, sites, model, rng};
  for (std::size_t i = 0; i < concurrency; ++i) {
    auto id = static_cast<std::uint32_t>(i + 1);
    auto& su = system.add_su(id);
    // Key distribution is an offline registration step; keep it off the
    // timed request path.
    system.sdc().register_su_key(id, su.public_key());
  }
  system.pu_update(0, watch::PuTuning{radio::ChannelId{0}, 1e-6});

  std::vector<watch::SuRequest> requests;
  requests.reserve(concurrency);
  for (std::size_t i = 0; i < concurrency; ++i)
    requests.push_back(
        {static_cast<std::uint32_t>(i + 1),
         radio::BlockId{static_cast<std::uint32_t>(i % blocks)},
         std::vector<double>(cfg.watch.channels, 100.0)});

  ThroughputRow row;
  row.mode = mode_name(mode);
  row.concurrency = concurrency;
  row.entries_per_request = entries;

  std::vector<double> latencies;
  latencies.reserve(concurrency);
  std::size_t total_bytes = 0;
  if (mode == ThroughputMode::kSequential) {
    auto t0 = Clock::now();
    for (const auto& req : requests) {
      auto out = system.su_request(req);
      if (!out.completed())
        std::fprintf(stderr, "warning: sequential request failed: %s\n",
                     out.failure.c_str());
      latencies.push_back(out.latency_us);
      row.makespan_us += out.latency_us;  // strictly serial occupancy
      total_bytes += out.request_bytes + out.convert_bytes +
                     out.convert_reply_bytes + out.response_bytes;
    }
    row.serve_wall_ms = ms_since(t0);
    row.convert_round_trips = concurrency;  // one ConvertRequestMsg each
  } else {
    core::PisaSystem::MultiRequestStats stats;
    auto outcomes =
        system.su_request_many(requests, core::PrepMode::kFresh, &stats);
    for (const auto& out : outcomes) {
      if (!out.completed())
        std::fprintf(stderr, "warning: concurrent request failed: %s\n",
                     out.failure.c_str());
      latencies.push_back(out.latency_us);
    }
    row.makespan_us = stats.makespan_us;
    row.serve_wall_ms = stats.serve_wall_ms;
    row.convert_round_trips = stats.convert_msgs;
    total_bytes = stats.request_bytes + stats.convert_bytes +
                  stats.convert_reply_bytes + stats.response_bytes;
  }
  std::sort(latencies.begin(), latencies.end());
  row.p50_latency_us = latencies[(latencies.size() - 1) / 2];
  row.p95_latency_us = percentile(latencies, 95);
  row.p99_latency_us = percentile(latencies, 99);
  row.requests_per_sec = row.makespan_us > 0
                             ? static_cast<double>(concurrency) /
                                   row.makespan_us * 1e6
                             : 0;
  row.bytes_per_request =
      static_cast<double>(total_bytes) / static_cast<double>(concurrency);
  return row;
}

void print_throughput_row(const ThroughputRow& r) {
  std::printf("  %-22s x%-2zu | %8.1f req/s | p50 %8.0f us p95 %8.0f us | "
              "%2zu round-trip%s | %7.1f kB/req | wall %7.1f ms\n",
              r.mode.c_str(), r.concurrency, r.requests_per_sec,
              r.p50_latency_us, r.p95_latency_us, r.convert_round_trips,
              r.convert_round_trips == 1 ? " " : "s", r.bytes_per_request / 1e3,
              r.serve_wall_ms);
}

// ---- Socket-path throughput (ISSUE 7 / DESIGN.md §3.7) -------------------
//
// The closed-loop load generator for the real epoll transport: one
// RpcServer (SDC + STP behind a TCP listener), one RpcClient multiplexing
// every SU session over a single pipelined connection. All requests are
// prepared (encrypted) off the clock, then the whole fleet is poured down
// the socket at once — each session has exactly one request in flight and
// waits for its response, which is the closed-loop steady state at
// concurrency N. Unlike the virtual-time rows above, every number here is
// wall clock measured across real sockets: framing, CRC sealing, epoll
// wakeups, write-queue draining and the dispatch lane are all on the
// timed path. Per-request completion timestamps come from the client's
// response hook (dispatch-thread accurate), so p50/p99 are sojourn times
// from burst start. wire_bytes_per_request is the transport's own byte
// accounting (both directions) divided by the fleet size.

ThroughputRow measure_tcp_throughput(std::size_t concurrency,
                                     std::uint64_t seed) {
  core::PisaConfig cfg;
  cfg.watch.grid_rows = 2;
  cfg.watch.grid_cols = 2;
  cfg.watch.block_size_m = 400.0;
  cfg.watch.channels = 2;
  cfg.paillier_bits = 512;
  cfg.rsa_bits = 384;  // the RSA floor: rsa_generate needs >= 384 bits
  cfg.blind_bits = 16;
  cfg.mr_rounds = 6;
  const std::size_t blocks = cfg.watch.grid_rows * cfg.watch.grid_cols;
  const std::size_t entries = cfg.watch.channels * blocks;

  crypto::ChaChaRng rng{seed};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  std::vector<watch::PuSite> sites{{0, radio::BlockId{0}}};
  const double d_c_m = watch::exclusion_radius_m(cfg.watch, model);

  rpc::RpcServer server{cfg, rng};
  rpc::RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(),
                        rng};
  for (const auto& site : sites) client.add_pu(site);
  // Fleet setup (keygen + STP registration) is offline in the paper; keep
  // it off the clock like the sim rows keep register_su_key off theirs.
  for (std::size_t i = 0; i < concurrency; ++i)
    client.add_su(static_cast<std::uint32_t>(i + 1));
  client.pu_update(0, watch::PuTuning{radio::ChannelId{0}, 1e-6});

  // Encrypt every session's request off the clock; the timed section is
  // purely the serving path (socket + SDC/STP pipeline).
  std::vector<rpc::RpcClient::PreparedRequest> prepared;
  prepared.reserve(concurrency);
  for (std::size_t i = 0; i < concurrency; ++i) {
    watch::SuRequest req{
        static_cast<std::uint32_t>(i + 1),
        radio::BlockId{static_cast<std::uint32_t>(i % blocks)},
        std::vector<double>(cfg.watch.channels, i % 2 == 0 ? 100.0 : 1e-4)};
    auto f = watch::build_su_f_matrix(cfg.watch, sites, req.block,
                                      req.eirp_mw_per_channel, model, d_c_m);
    prepared.push_back(client.prepare_request(req.su_id, f));
  }

  ThroughputRow row;
  row.transport = "tcp";
  row.mode = "closed_loop";
  row.concurrency = concurrency;
  row.entries_per_request = entries;

  std::mutex done_mu;
  std::vector<double> done_us(concurrency, 0);
  Clock::time_point t0{};
  client.set_response_hook([&](std::uint64_t request_id) {
    double us = std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count();
    std::lock_guard<std::mutex> lk(done_mu);
    done_us[request_id - prepared.front().request_id] = us;
  });

  auto wire0_c = client.transport().stats();
  t0 = Clock::now();
  for (const auto& p : prepared) client.submit(p);
  for (const auto& p : prepared)
    if (!client.wait_response(p.request_id, nullptr, 600000))
      std::fprintf(stderr, "warning: tcp request %llu timed out\n",
                   static_cast<unsigned long long>(p.request_id));
  row.serve_wall_ms = ms_since(t0);
  auto wire1_c = client.transport().stats();

  std::vector<double> latencies;
  {
    std::lock_guard<std::mutex> lk(done_mu);
    latencies = done_us;
  }
  std::sort(latencies.begin(), latencies.end());
  row.makespan_us = latencies.back();
  row.p50_latency_us = latencies[(latencies.size() - 1) / 2];
  row.p95_latency_us = percentile(latencies, 95);
  row.p99_latency_us = percentile(latencies, 99);
  row.requests_per_sec =
      row.makespan_us > 0
          ? static_cast<double>(concurrency) / row.makespan_us * 1e6
          : 0;
  std::uint64_t wire_bytes = (wire1_c.bytes_sent - wire0_c.bytes_sent) +
                             (wire1_c.bytes_received - wire0_c.bytes_received);
  row.wire_bytes_per_request =
      static_cast<double>(wire_bytes) / static_cast<double>(concurrency);
  // On the socket path the bytes that matter are the ones on the wire;
  // report them in the legacy column too so both fields read sensibly.
  row.bytes_per_request = row.wire_bytes_per_request;
  return row;
}

void print_tcp_throughput_row(const ThroughputRow& r) {
  std::printf("  tcp %-18s x%-4zu | %8.1f req/s | p50 %8.0f us p99 %8.0f us "
              "| %7.2f kB/req wire | wall %7.1f ms\n",
              r.mode.c_str(), r.concurrency, r.requests_per_sec,
              r.p50_latency_us, r.p99_latency_us,
              r.wire_bytes_per_request / 1e3, r.serve_wall_ms);
}

// ---- Shard × durability sweep (DESIGN.md §3.6) ---------------------------
//
// The same seeded workload — a PU-fold burst followed by sequential SU
// requests — at every shard count, durability off and on. The fold burst is
// the path the WAL sits on (journal → retract → add per shard), so
// pu_fold_ms carries the journaling cost; requests_per_sec is wall-clock
// (not virtual time) so the durability overhead on the serve path is a real
// measurement, and the regression guard compares the on/off pair from the
// same run — host speed cancels out. recovery_ms is the engine's own timing
// of the snapshot-load + WAL-replay rebuild after a crash.

struct ShardRow {
  std::size_t num_shards = 1;
  bool durability = false;
  std::size_t channels = 0, blocks = 0;
  std::size_t pu_updates = 0;
  double pu_fold_ms = 0;                    // mean fold per update
  double pu_fold_rows_per_sec_per_shard = 0;  // group-rows folded /s /shard
  double requests_per_sec = 0;              // wall-clock sequential serve
  double serve_wall_ms = 0;
  double recovery_ms = 0;                   // 0 when durability is off
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshots_written = 0;
};

ShardRow measure_shard(std::size_t num_shards, bool durable, bool quick,
                       std::uint64_t seed) {
  namespace fs = std::filesystem;
  core::PisaConfig cfg;
  cfg.watch.grid_rows = 2;
  cfg.watch.grid_cols = 3;
  cfg.watch.block_size_m = 100.0;
  cfg.watch.channels = 8;  // 8 channel groups at pack_slots = 1: every shard
                           // count in the sweep partitions them evenly
  cfg.paillier_bits = 768;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 128;
  cfg.mr_rounds = 12;
  cfg.num_shards = num_shards;
  cfg.num_threads = num_shards;  // one fold lane per shard
  fs::path dir;
  if (durable) {
    dir = fs::temp_directory_path() /
          ("pisa_bench_shard_" + std::to_string(::getpid()) + "_" +
           std::to_string(num_shards));
    fs::remove_all(dir);
    fs::create_directories(dir);
    cfg.durability.enabled = true;
    cfg.durability.dir = dir.string();
    cfg.durability.snapshot_every = 4;  // compaction triggers mid-burst
    cfg.durability.serial_reserve = 16;
  }

  crypto::ChaChaRng rng{seed};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  std::vector<watch::PuSite> sites{{0, radio::BlockId{0}},
                                   {1, radio::BlockId{4}}};
  core::PisaSystem system{cfg, sites, model, rng};
  auto& su = system.add_su(1);
  system.sdc().register_su_key(1, su.public_key());

  ShardRow row;
  row.num_shards = num_shards;
  row.durability = durable;
  row.channels = cfg.watch.channels;
  row.blocks = cfg.watch.grid_rows * cfg.watch.grid_cols;
  row.pu_updates = quick ? 6 : 12;

  // PU encryption happens client-side and off the clock; the timed section
  // is exactly the sharded fold.
  std::vector<core::PuUpdateMsg> updates;
  updates.reserve(row.pu_updates);
  for (std::size_t i = 0; i < row.pu_updates; ++i) {
    watch::PuTuning tuning{
        radio::ChannelId{static_cast<std::uint32_t>(i % cfg.watch.channels)},
        1e-6 * static_cast<double>(i % 5 + 1)};
    updates.push_back(system.pu(i % sites.size()).make_update(tuning));
  }
  auto t0 = Clock::now();
  for (const auto& u : updates) system.sdc().handle_pu_update(u);
  double fold_ms = ms_since(t0);
  row.pu_fold_ms = fold_ms / static_cast<double>(row.pu_updates);
  row.pu_fold_rows_per_sec_per_shard =
      fold_ms > 0 ? static_cast<double>(row.pu_updates * row.channels) * 1e3 /
                        fold_ms / static_cast<double>(num_shards)
                  : 0;

  const std::size_t n_req = quick ? 2 : 4;
  watch::SuRequest req{1, radio::BlockId{2},
                       std::vector<double>(cfg.watch.channels, 100.0)};
  // One untimed warm-up request first: lazy pools, page faults and first-use
  // allocations land outside the measurement window, keeping the on/off
  // requests/sec pair (the 15% guard input) clear of cold-start noise.
  (void)system.su_request(req);
  t0 = Clock::now();
  for (std::size_t i = 0; i < n_req; ++i) {
    auto out = system.su_request(req);
    if (!out.completed())
      std::fprintf(stderr, "warning: shard-sweep request failed: %s\n",
                   out.failure.c_str());
  }
  row.serve_wall_ms = ms_since(t0);
  row.requests_per_sec =
      row.serve_wall_ms > 0
          ? static_cast<double>(n_req) * 1e3 / row.serve_wall_ms
          : 0;

  row.wal_records = system.sdc().state().wal_records();
  row.wal_bytes = system.sdc().state().wal_bytes();
  row.snapshots_written = system.sdc().state().snapshots_written();

  // Crash and restart: recovery_ms is the engine's own measurement of the
  // snapshot-load + WAL-replay rebuild (zero with durability off — the
  // restarted SDC has nothing to recover from).
  system.crash_sdc();
  auto& sdc = system.restart_sdc();
  row.recovery_ms = sdc.state().recovery_stats().recover_ms;

  if (durable) fs::remove_all(dir);
  return row;
}

void print_shard_row(const ShardRow& r) {
  std::printf(
      "  shards=%zu %-3s | fold %6.1f ms/update (%6.0f rows/s/shard) | "
      "%5.2f req/s | recover %6.1f ms | wal %3llu rec %6.1f kB, %llu "
      "snapshot%s\n",
      r.num_shards, r.durability ? "wal" : "off", r.pu_fold_ms,
      r.pu_fold_rows_per_sec_per_shard, r.requests_per_sec, r.recovery_ms,
      static_cast<unsigned long long>(r.wal_records),
      static_cast<double>(r.wal_bytes) / 1e3,
      static_cast<unsigned long long>(r.snapshots_written),
      r.snapshots_written == 1 ? "" : "s");
}

// ---- Denial-mix sweep (DESIGN.md §3.8) -----------------------------------
//
// The same grant:deny request mix served with the encrypted cuckoo
// prefilter off and on, over the virtual-time SimulatedNetwork and the real
// TCP transport. The geometry keeps exhaustion block-local (d^c ≈ 527 m,
// 1000 m blocks): three PUs stack onto (channel 0, block 0) until its
// budget is provably exhausted, deny-mix requests disclose [0,1) and hit
// the confirmed-exhausted set, grant-mix requests disclose the clean
// [3,4). With the filter on every deny is a one-round 32-byte FastDenyMsg
// — no Ṽ blinding, no STP conversion — so wall-clock requests/sec at a
// deny-heavy mix is the headline number: the within-run on/off pair at
// 80% deny feeds the ≥2x fast-deny guard in
// scripts/check_perf_regression.py. stp_decryptions counts conversion
// entries + probe slots the STP opened during the timed burst; per denied
// request it must sit at ~0 with the filter on (probes amortize at
// PU-update time, off the serve path). decisions_match asserts every
// decision equals the constructed mix — the filter never flips a verdict.

struct DenialRow {
  std::string transport = "sim";
  std::size_t deny_pct = 0;
  bool filter = false;
  std::size_t requests = 0;
  std::size_t grants = 0;
  std::size_t fast_denials = 0;
  std::size_t full_denials = 0;
  double serve_wall_ms = 0;
  double requests_per_sec = 0;          // wall clock over the timed burst
  std::uint64_t stp_decryptions = 0;    // conversion entries + probe slots
  double stp_decryptions_per_denied = 0;
  double wire_bytes_per_request = 0;
  std::uint64_t prefilter_false_positives = 0;
  bool decisions_match = true;
};

core::PisaConfig denial_config(bool filter) {
  core::PisaConfig cfg;
  cfg.watch.grid_rows = 1;
  cfg.watch.grid_cols = 4;
  cfg.watch.block_size_m = 1000.0;
  cfg.watch.channels = 2;
  cfg.watch.pu_min_signal_dbm = -40.0;  // d^c ≈ 527 m < one block: exhaustion
  cfg.watch.su_max_eirp_dbm = 20.0;     // stays local to the PU-site block
  cfg.paillier_bits = 512;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  cfg.denial_filter.enabled = filter;
  return cfg;
}

std::vector<watch::PuSite> denial_sites() {
  return {{0, radio::BlockId{0}}, {1, radio::BlockId{0}},
          {2, radio::BlockId{0}}};
}

bool deny_slot(std::size_t i, std::size_t deny_pct) {
  return i % 10 < deny_pct / 10;  // deterministic interleave: 80% = 8-in-10
}

void finish_denial_row(DenialRow& row, std::uint64_t decryptions,
                       std::uint64_t entries_per_grant,
                       std::uint64_t wire_bytes) {
  row.requests_per_sec =
      row.serve_wall_ms > 0
          ? static_cast<double>(row.requests) * 1e3 / row.serve_wall_ms
          : 0;
  row.stp_decryptions = decryptions;
  const std::uint64_t grant_cost =
      static_cast<std::uint64_t>(row.grants) * entries_per_grant;
  const std::size_t denied = row.fast_denials + row.full_denials;
  row.stp_decryptions_per_denied =
      denied > 0 && decryptions > grant_cost
          ? static_cast<double>(decryptions - grant_cost) /
                static_cast<double>(denied)
          : 0;
  row.wire_bytes_per_request =
      static_cast<double>(wire_bytes) / static_cast<double>(row.requests);
}

DenialRow measure_denial_sim(std::size_t deny_pct, bool filter, bool quick,
                             std::uint64_t seed) {
  auto cfg = denial_config(filter);
  crypto::ChaChaRng rng{seed};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  core::PisaSystem system{cfg, denial_sites(), model, rng};
  system.add_su(1);
  // Exhaust (channel 0, block 0): the folds invalidate, the probe rounds
  // confirm — all before the timed burst, like PU churn in deployment.
  for (std::uint32_t pu : {0u, 1u, 2u})
    system.pu_update(pu, watch::PuTuning{radio::ChannelId{0}, 1e-6});

  watch::SuRequest deny_req{1, radio::BlockId{0},
                            std::vector<double>(cfg.watch.channels, 1e-4)};
  watch::SuRequest grant_req{1, radio::BlockId{3},
                             std::vector<double>(cfg.watch.channels, 1e-4)};

  DenialRow row;
  row.deny_pct = deny_pct;
  row.filter = filter;
  row.requests = quick ? 10 : 30;

  // Untimed warm-up grant: cold-start allocations stay off the clock, and
  // its conversion-entry count calibrates the per-grant decryption cost.
  std::uint64_t entries0 = system.stp().entries_converted();
  auto warm = system.su_request(grant_req, std::make_pair(3u, 4u));
  if (!warm.completed() || !warm.granted) row.decisions_match = false;
  const std::uint64_t entries_per_grant =
      system.stp().entries_converted() - entries0;

  const std::uint64_t dec0 =
      system.stp().entries_converted() + system.stp().probe_slots_signed();
  const std::uint64_t fp0 = system.sdc().stats().prefilter_false_positives;
  std::uint64_t wire_bytes = 0;
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < row.requests; ++i) {
    const bool deny = deny_slot(i, deny_pct);
    auto out = deny ? system.su_request(deny_req, std::make_pair(0u, 1u))
                    : system.su_request(grant_req, std::make_pair(3u, 4u));
    if (!out.completed() || out.granted == deny) row.decisions_match = false;
    if (out.granted)
      ++row.grants;
    else if (out.fast_denied)
      ++row.fast_denials;
    else
      ++row.full_denials;
    wire_bytes += out.request_bytes + out.convert_bytes +
                  out.convert_reply_bytes + out.response_bytes;
  }
  row.serve_wall_ms = ms_since(t0);
  const std::uint64_t decryptions = system.stp().entries_converted() +
                                    system.stp().probe_slots_signed() - dec0;
  row.prefilter_false_positives =
      system.sdc().stats().prefilter_false_positives - fp0;
  finish_denial_row(row, decryptions, entries_per_grant, wire_bytes);
  return row;
}

DenialRow measure_denial_tcp(std::size_t deny_pct, bool filter, bool quick,
                             std::uint64_t seed) {
  auto cfg = denial_config(filter);
  crypto::ChaChaRng rng{seed};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  auto sites = denial_sites();
  const double d_c_m = watch::exclusion_radius_m(cfg.watch, model);

  rpc::RpcServer server{cfg, rng};
  rpc::RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(),
                        rng};
  for (const auto& site : sites) client.add_pu(site);

  DenialRow row;
  row.transport = "tcp";
  row.deny_pct = deny_pct;
  row.filter = filter;
  row.requests = quick ? 10 : 30;

  // One SU session per request, plus a warm-up session; registration is
  // offline setup, off the clock like every other tcp row.
  for (std::size_t i = 0; i <= row.requests; ++i)
    client.add_su(static_cast<std::uint32_t>(i + 1));
  for (std::uint32_t pu : {0u, 1u, 2u})
    client.pu_update(pu, watch::PuTuning{radio::ChannelId{0}, 1e-6});

  const std::vector<double> eirp(cfg.watch.channels, 1e-4);
  auto make_f = [&](const watch::SuRequest& req) {
    return watch::build_su_f_matrix(cfg.watch, sites, req.block,
                                    req.eirp_mw_per_channel, model, d_c_m);
  };

  // Warm-up grant on its own session: FIFO ordering guarantees the PU
  // folds (and their in-process probe rounds, filter on) fully drain
  // before the timed burst; its entry count calibrates per-grant cost.
  const std::uint64_t entries0 = server.stp().entries_converted();
  {
    watch::SuRequest req{static_cast<std::uint32_t>(row.requests + 1),
                         radio::BlockId{3}, eirp};
    auto p = client.prepare_request(req.su_id, make_f(req),
                                    std::make_pair(3u, 4u));
    client.submit(p);
    core::SuResponseMsg resp;
    bool fast = false;
    if (!client.wait_response(p.request_id, &resp, 600000, &fast) || fast ||
        !client.su(req.su_id)
             .process_response(resp, server.license_key())
             .granted)
      row.decisions_match = false;
  }
  const std::uint64_t entries_per_grant =
      server.stp().entries_converted() - entries0;

  // Prepare (encrypt) the whole mix off the clock.
  std::vector<rpc::RpcClient::PreparedRequest> prepared;
  std::vector<bool> expect_deny;
  prepared.reserve(row.requests);
  for (std::size_t i = 0; i < row.requests; ++i) {
    const bool deny = deny_slot(i, deny_pct);
    expect_deny.push_back(deny);
    watch::SuRequest req{static_cast<std::uint32_t>(i + 1),
                         radio::BlockId{deny ? 0u : 3u}, eirp};
    prepared.push_back(client.prepare_request(
        req.su_id, make_f(req),
        deny ? std::make_pair(0u, 1u) : std::make_pair(3u, 4u)));
  }

  const std::uint64_t dec0 =
      server.stp().entries_converted() + server.stp().probe_slots_signed();
  const std::uint64_t fp0 = server.sdc().stats().prefilter_false_positives;
  auto wire0 = client.transport().stats();
  auto t0 = Clock::now();
  for (const auto& p : prepared) client.submit(p);
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    core::SuResponseMsg resp;
    bool fast = false;
    if (!client.wait_response(prepared[i].request_id, &resp, 600000, &fast)) {
      std::fprintf(stderr, "warning: denial-sweep tcp request %zu timed out\n",
                   i);
      row.decisions_match = false;
      continue;
    }
    bool granted = false;
    if (fast) {
      ++row.fast_denials;
    } else {
      granted = client.su(prepared[i].su_id)
                    .process_response(resp, server.license_key())
                    .granted;
      if (granted)
        ++row.grants;
      else
        ++row.full_denials;
    }
    if (granted == expect_deny[i]) row.decisions_match = false;
  }
  row.serve_wall_ms = ms_since(t0);
  auto wire1 = client.transport().stats();
  const std::uint64_t decryptions = server.stp().entries_converted() +
                                    server.stp().probe_slots_signed() - dec0;
  row.prefilter_false_positives =
      server.sdc().stats().prefilter_false_positives - fp0;
  const std::uint64_t wire_bytes =
      (wire1.bytes_sent - wire0.bytes_sent) +
      (wire1.bytes_received - wire0.bytes_received);
  finish_denial_row(row, decryptions, entries_per_grant, wire_bytes);
  return row;
}

void print_denial_row(const DenialRow& r) {
  std::printf(
      "  %-3s deny=%2zu%% filter=%-3s | %7.2f req/s | grant %2zu fast %2zu "
      "full %2zu | STP dec/denied %5.2f | %7.2f kB/req | wall %8.1f ms%s\n",
      r.transport.c_str(), r.deny_pct, r.filter ? "on" : "off",
      r.requests_per_sec, r.grants, r.fast_denials, r.full_denials,
      r.stp_decryptions_per_denied, r.wire_bytes_per_request / 1e3,
      r.serve_wall_ms, r.decisions_match ? "" : "  [DECISION MISMATCH]");
}

std::vector<DenialRow> run_denial_sweep(bool quick, bool tcp_only) {
  std::printf(
      "Denial-mix sweep at n=512, C=2, B=4 (§3.8 prefilter off vs on; "
      "deny requests hit the exhausted block, wall-clock req/s):\n");
  std::vector<DenialRow> rows;
  for (std::size_t deny_pct :
       {std::size_t{20}, std::size_t{50}, std::size_t{80}}) {
    for (bool tcp : {false, true}) {
      if (tcp_only && !tcp) continue;
      const std::uint64_t seed = 0xFA57DE00 + deny_pct * 4 + (tcp ? 2 : 0);
      DenialRow off = tcp ? measure_denial_tcp(deny_pct, false, quick, seed)
                          : measure_denial_sim(deny_pct, false, quick, seed);
      print_denial_row(off);
      DenialRow on = tcp ? measure_denial_tcp(deny_pct, true, quick, seed + 1)
                         : measure_denial_sim(deny_pct, true, quick, seed + 1);
      print_denial_row(on);
      if (off.requests_per_sec > 0)
        std::printf("    -> prefilter at %zu%% deny (%s): %.2fx req/s, "
                    "%zu full denials -> %zu\n",
                    deny_pct, on.transport.c_str(),
                    on.requests_per_sec / off.requests_per_sec,
                    off.full_denials, on.full_denials);
      rows.push_back(off);
      rows.push_back(on);
    }
  }
  std::printf("\n");
  return rows;
}

// ---- §3.9 dynamic-spectrum scenario sweep --------------------------------
//
// The time-stepped ScenarioEngine — vehicular SU mobility, TV-channel
// churn, PU relocation/power-toggles, license expiry and revocation — run
// twice per fleet size over the identical seeded schedule: once with
// full-column PU updates, once with §3.9 incremental deltas. The tests
// prove the two runs decide identically tick for tick, so the only thing
// that differs here is cost: update_ms_per_send (client encrypt + SDC fold
// + re-probe round, the incremental path's headline) must show the delta
// rows ≥3x cheaper — scripts/check_perf_regression.py enforces that floor,
// an absolute ticks/sec guard on the committed snapshot, and
// oracle_mismatches = 0 on every row.

struct ScenarioRow {
  bool use_delta = false;
  std::size_t num_sus = 0;
  std::size_t ticks = 0;
  std::size_t pu_events = 0;
  std::size_t updates_sent = 0;
  std::size_t requests = 0;
  std::size_t grants = 0;
  std::size_t denials = 0;
  std::size_t fast_denials = 0;
  std::size_t oracle_mismatches = 0;
  double delta_cells_per_tick = 0;
  double wal_bytes_per_tick = 0;
  double update_wall_ms = 0;
  double update_ms_per_send = 0;
  double ticks_per_sec = 0;
  double requests_per_sec = 0;  // sustained: whole-run wall clock
};

ScenarioRow measure_scenario(bool use_delta, std::size_t num_sus,
                             std::uint32_t ticks, std::uint64_t seed) {
  namespace fs = std::filesystem;
  core::PisaConfig cfg;
  cfg.watch.grid_rows = 2;
  cfg.watch.grid_cols = 6;
  cfg.watch.block_size_m = 400.0;
  cfg.watch.channels = 3;
  cfg.paillier_bits = 512;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 16;
  cfg.mr_rounds = 6;
  cfg.num_shards = 3;
  cfg.denial_filter.enabled = true;
  fs::path dir = fs::temp_directory_path() /
                 ("pisa_bench_scenario_" + std::to_string(::getpid()) + "_" +
                  std::to_string(num_sus) + (use_delta ? "_delta" : "_full"));
  fs::remove_all(dir);
  fs::create_directories(dir);
  cfg.durability.enabled = true;
  cfg.durability.dir = dir.string();
  cfg.durability.snapshot_every = 8;

  crypto::ChaChaRng rng{seed};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  std::vector<watch::PuSite> sites{{0, radio::BlockId{0}},
                                   {1, radio::BlockId{7}},
                                   {2, radio::BlockId{11}}};
  core::PisaSystem system{cfg, sites, model, rng};
  for (std::size_t id = 0; id < num_sus; ++id)
    system.add_su(static_cast<std::uint32_t>(id));
  if (use_delta) {
    // Offline phase of the §3.9 delta path (paper §VI-A's pooled-preparation
    // argument applied to the PU side): each PU precomputes r^n randomizer
    // factors between events, so a live delta cell costs one modular
    // multiplication. The full-column rows stay un-pooled — they are the
    // pre-§3.9 baseline the speedup guard compares against.
    for (const auto& site : sites)
      system.pu(site.pu_id).precompute_randomizers(1024);
  }

  core::ScenarioConfig sc;
  sc.ticks = ticks;
  sc.num_sus = static_cast<std::uint32_t>(num_sus);
  sc.seed = 0x5CEA0 + num_sus;  // same schedule for the full/delta pair
  sc.license_ttl_ticks = 8;
  sc.request_range_blocks = 2;
  sc.use_delta = use_delta;

  core::SimScenarioDriver driver{system};
  core::ScenarioEngine engine{cfg, sites, model, sc, driver};
  auto res = engine.run();

  ScenarioRow row;
  row.use_delta = use_delta;
  row.num_sus = num_sus;
  row.ticks = res.ticks.size();
  row.pu_events = res.pu_events;
  row.updates_sent = res.updates_sent;
  row.requests = res.requests;
  row.grants = res.grants;
  row.denials = res.denials;
  row.fast_denials = res.fast_denials;
  row.oracle_mismatches = res.oracle_mismatches;
  row.delta_cells_per_tick =
      static_cast<double>(res.delta_cells) / static_cast<double>(row.ticks);
  row.wal_bytes_per_tick =
      static_cast<double>(res.wal_bytes) / static_cast<double>(row.ticks);
  row.update_wall_ms = res.update_wall_ms;
  row.update_ms_per_send =
      res.updates_sent > 0
          ? res.update_wall_ms / static_cast<double>(res.updates_sent)
          : 0;
  row.ticks_per_sec = res.ticks_per_sec();
  row.requests_per_sec =
      res.total_wall_ms > 0
          ? static_cast<double>(res.requests) * 1e3 / res.total_wall_ms
          : 0;
  fs::remove_all(dir);
  return row;
}

void print_scenario_row(const ScenarioRow& r) {
  std::printf(
      "  %-5s sus=%zu ticks=%-3zu | %6.2f ticks/s %5.2f req/s sustained | "
      "update %6.2f ms/send (%zu sends) | %5.1f delta cells/tick | wal "
      "%7.1f B/tick | grant %zu deny %zu (fast %zu) | oracle mismatches "
      "%zu\n",
      r.use_delta ? "delta" : "full", r.num_sus, r.ticks, r.ticks_per_sec,
      r.requests_per_sec, r.update_ms_per_send, r.updates_sent,
      r.delta_cells_per_tick, r.wal_bytes_per_tick, r.grants, r.denials,
      r.fast_denials, r.oracle_mismatches);
}

std::vector<ScenarioRow> run_scenario_sweep(bool quick) {
  const std::uint32_t ticks = quick ? 40 : 120;
  std::printf("Dynamic-spectrum scenario sweep at n=512, C=3, B=12 (§3.9 "
              "mobility/churn/revocation schedule, full-column vs "
              "incremental updates, %u ticks):\n",
              ticks);
  std::vector<std::size_t> fleet{2};
  if (!quick) fleet.push_back(4);
  std::vector<ScenarioRow> rows;
  for (std::size_t sus : fleet) {
    ScenarioRow full = measure_scenario(false, sus, ticks, 0x5CE0 + sus);
    print_scenario_row(full);
    ScenarioRow delta = measure_scenario(true, sus, ticks, 0x5CE0 + sus);
    print_scenario_row(delta);
    if (delta.update_ms_per_send > 0)
      std::printf("    -> incremental update path at %zu SUs: %.2fx "
                  "cheaper per send (guard: >= 3x), %.2fx ticks/s\n",
                  sus, full.update_ms_per_send / delta.update_ms_per_send,
                  delta.ticks_per_sec / full.ticks_per_sec);
    rows.push_back(full);
    rows.push_back(delta);
  }
  std::printf("\n");
  return rows;
}

// ---- §3.10 XOR-PIR vs Paillier query-path sweep --------------------------
//
// The head-to-head ROADMAP item 1 asks for: the same seeded world served
// through the blinded-conversion pipeline and through the XOR multi-server
// PIR path, at the scaling[] grid sizes. The Paillier rows carry the full
// query-path cost (SU-side encryption + SDC blind + STP convert + SDC
// finish); the PIR rows carry share-splitting, ℓ replica scans and the
// XOR reconstruction — no public-key operation anywhere. Latency is wall
// clock per request, bytes are all links of one request (sim: encoded
// payloads off the network stats; tcp: transport byte counters, framing
// included, both directions). decisions_match asserts every verdict equals
// the PlainWatch oracle on both paths — swapping the privacy mechanism
// must never flip a decision. The within-run Paillier/PIR latency pair
// feeds the ≥10x floor in scripts/check_perf_regression.py; the committed
// full-mode snapshot is the ≥50x / ≥10x headline at the 10×60 grid.

struct PirRow {
  std::string transport = "sim";
  std::size_t channels = 0, blocks = 0;
  std::size_t replicas = 0;
  std::size_t paillier_requests = 0, pir_requests = 0;
  double paillier_request_ms = 0;  // mean end-to-end, prep included
  double pir_request_ms = 0;       // mean end-to-end, split + scans + rebuild
  double latency_speedup = 0;      // paillier / pir
  double paillier_bytes_per_request = 0;
  double pir_bytes_per_request = 0;
  double byte_reduction = 0;       // paillier / pir
  double pir_scan_ms_per_request = 0;  // Σ replica-side XOR scan, all ℓ
  bool decisions_match = true;
};

core::PisaConfig pir_sweep_config(std::size_t channels, std::size_t rows,
                                  std::size_t cols, bool pir) {
  core::PisaConfig cfg;
  cfg.watch.grid_rows = rows;
  cfg.watch.grid_cols = cols;
  cfg.watch.block_size_m = 100.0;
  cfg.watch.channels = channels;
  cfg.paillier_bits = 1024;  // the scaling[] rows' key size
  cfg.rsa_bits = 512;
  cfg.blind_bits = 128;
  cfg.mr_rounds = 12;
  if (pir) {
    cfg.query_mode = core::QueryMode::kPir;
    cfg.pir.replicas = 2;
  }
  return cfg;
}

watch::SuRequest pir_sweep_request(std::size_t i, std::size_t channels,
                                   std::size_t blocks) {
  // Deterministic block walk with alternating strong/weak EIRP so both
  // grant and deny verdicts appear in every row's mix.
  return watch::SuRequest{
      1, radio::BlockId{static_cast<std::uint32_t>((i * 7) % blocks)},
      std::vector<double>(channels, i % 2 == 0 ? 100.0 : 1e-4)};
}

PirRow measure_pir_sim(std::size_t channels, std::size_t rows,
                       std::size_t cols, bool quick, std::uint64_t seed) {
  const std::size_t blocks = rows * cols;
  crypto::ChaChaRng rng_enc{seed};
  crypto::ChaChaRng rng_pir{seed};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  std::vector<watch::PuSite> sites{{0, radio::BlockId{0}}};
  auto enc_cfg = pir_sweep_config(channels, rows, cols, false);
  auto pir_cfg = pir_sweep_config(channels, rows, cols, true);
  core::PisaSystem encrypted{enc_cfg, sites, model, rng_enc};
  core::PisaSystem pirsys{pir_cfg, sites, model, rng_pir};
  watch::PlainWatch oracle{enc_cfg.watch, sites, model};
  encrypted.add_su(1);
  pirsys.add_su(1);
  watch::PuTuning tuning{radio::ChannelId{0}, 1e-6};
  encrypted.pu_update(0, tuning);
  pirsys.pu_update(0, tuning);
  oracle.pu_update(0, tuning);

  PirRow row;
  row.channels = channels;
  row.blocks = blocks;
  row.replicas = pir_cfg.pir.replicas;
  // The Paillier side costs seconds per request at these grids; the PIR
  // side costs microseconds, so it can afford a larger averaging window.
  row.paillier_requests = quick ? 1 : 2;
  row.pir_requests = quick ? 8 : 16;

  std::size_t paillier_bytes = 0;
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < row.paillier_requests; ++i) {
    auto req = pir_sweep_request(i, channels, blocks);
    auto out = encrypted.su_request(req);
    if (!out.completed() || out.granted != oracle.process_request(req).granted)
      row.decisions_match = false;
    paillier_bytes += out.request_bytes + out.convert_bytes +
                      out.convert_reply_bytes + out.response_bytes;
  }
  row.paillier_request_ms =
      ms_since(t0) / static_cast<double>(row.paillier_requests);
  row.paillier_bytes_per_request =
      static_cast<double>(paillier_bytes) /
      static_cast<double>(row.paillier_requests);

  std::size_t pir_bytes = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < row.pir_requests; ++i) {
    auto req = pir_sweep_request(i, channels, blocks);
    auto out = pirsys.su_request(req);
    if (!out.completed() || out.granted != oracle.process_request(req).granted)
      row.decisions_match = false;
    pir_bytes += out.request_bytes + out.response_bytes;
  }
  row.pir_request_ms = ms_since(t0) / static_cast<double>(row.pir_requests);
  row.pir_bytes_per_request =
      static_cast<double>(pir_bytes) / static_cast<double>(row.pir_requests);

  double scan_ms = 0;
  for (std::size_t i = 0; i < row.replicas; ++i)
    if (auto* rep = pirsys.pir_replica(i)) scan_ms += rep->stats().scan_total_ms;
  row.pir_scan_ms_per_request =
      scan_ms / static_cast<double>(row.pir_requests);
  row.latency_speedup = speedup(row.paillier_request_ms, row.pir_request_ms);
  row.byte_reduction =
      row.pir_bytes_per_request > 0
          ? row.paillier_bytes_per_request / row.pir_bytes_per_request
          : 0;
  return row;
}

PirRow measure_pir_tcp(std::size_t channels, std::size_t rows,
                       std::size_t cols, bool quick, std::uint64_t seed) {
  const std::size_t blocks = rows * cols;
  auto cfg = pir_sweep_config(channels, rows, cols, true);
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  std::vector<watch::PuSite> sites{{0, radio::BlockId{0}}};

  crypto::ChaChaRng server_rng{seed};
  rpc::RpcServer server{cfg, server_rng};
  crypto::ChaChaRng client_rng{seed + 1};
  rpc::RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(),
                        client_rng};
  watch::PlainWatch oracle{cfg.watch, sites, model};
  for (const auto& site : sites) client.add_pu(site);
  client.add_su(1);
  watch::PuTuning tuning{radio::ChannelId{0}, 1e-6};
  client.pu_update(0, tuning);
  oracle.pu_update(0, tuning);

  PirRow row;
  row.transport = "tcp";
  row.channels = channels;
  row.blocks = blocks;
  row.replicas = cfg.pir.replicas;
  row.paillier_requests = quick ? 1 : 2;
  row.pir_requests = quick ? 8 : 16;

  // Both privacy mechanisms ride the same pipelined connection, so the
  // transport byte counters (framing included, both directions) isolate
  // each request's wire cost as a before/after delta.
  auto wire = [&client]() {
    auto s = client.transport().stats();
    return s.bytes_sent + s.bytes_received;
  };

  std::uint64_t paillier_bytes = 0;
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < row.paillier_requests; ++i) {
    auto req = pir_sweep_request(i, channels, blocks);
    auto f = oracle.build_request_matrix(req);
    auto w0 = wire();
    auto prepared = client.prepare_request(req.su_id, f);
    client.submit(prepared);
    core::SuResponseMsg resp;
    if (!client.wait_response(prepared.request_id, &resp, 600000)) {
      std::fprintf(stderr, "warning: pir-sweep paillier request timed out\n");
      row.decisions_match = false;
      continue;
    }
    bool granted =
        client.su(req.su_id).process_response(resp, server.license_key())
            .granted;
    if (granted != oracle.process_request(req).granted)
      row.decisions_match = false;
    paillier_bytes += wire() - w0;
  }
  row.paillier_request_ms =
      ms_since(t0) / static_cast<double>(row.paillier_requests);
  row.paillier_bytes_per_request =
      static_cast<double>(paillier_bytes) /
      static_cast<double>(row.paillier_requests);

  std::uint64_t pir_bytes = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < row.pir_requests; ++i) {
    auto req = pir_sweep_request(i, channels, blocks);
    auto f = oracle.build_request_matrix(req);
    auto w0 = wire();
    auto out = client.pir_request(req.su_id, f, 0,
                                  static_cast<std::uint32_t>(blocks), 600000);
    pir_bytes += wire() - w0;
    if (!out.completed || out.granted != oracle.process_request(req).granted)
      row.decisions_match = false;
  }
  row.pir_request_ms = ms_since(t0) / static_cast<double>(row.pir_requests);
  row.pir_bytes_per_request =
      static_cast<double>(pir_bytes) / static_cast<double>(row.pir_requests);

  double scan_ms = 0;
  for (std::size_t i = 0; i < row.replicas; ++i)
    if (auto* rep = server.pir_replica(i)) scan_ms += rep->stats().scan_total_ms;
  row.pir_scan_ms_per_request =
      scan_ms / static_cast<double>(row.pir_requests);
  row.latency_speedup = speedup(row.paillier_request_ms, row.pir_request_ms);
  row.byte_reduction =
      row.pir_bytes_per_request > 0
          ? row.paillier_bytes_per_request / row.pir_bytes_per_request
          : 0;
  return row;
}

void print_pir_row(const PirRow& r) {
  std::printf(
      "  %-3s C=%-2zu B=%-3zu | paillier %8.1f ms %8.1f kB/req | pir %7.2f ms "
      "%6.2f kB/req (scan %5.2f ms) | %6.1fx latency %5.1fx bytes%s\n",
      r.transport.c_str(), r.channels, r.blocks, r.paillier_request_ms,
      r.paillier_bytes_per_request / 1e3, r.pir_request_ms,
      r.pir_bytes_per_request / 1e3, r.pir_scan_ms_per_request,
      r.latency_speedup, r.byte_reduction,
      r.decisions_match ? "" : "  [DECISION MISMATCH]");
}

std::vector<PirRow> run_pir_sweep(bool quick, bool tcp_only) {
  std::printf(
      "XOR-PIR vs Paillier query path at n=1024 (§3.10 head-to-head at the "
      "scaling[] grids; wall-clock per-request latency):\n");
  struct GridSize {
    std::size_t channels, rows, cols;
  };
  // The scaling[] grid sizes: 5×30 always, the 10×60 headline in full mode.
  std::vector<GridSize> sizes{{5, 3, 10}};
  if (!quick) sizes.push_back({10, 5, 12});
  std::vector<PirRow> out;
  for (const auto& s : sizes) {
    if (!tcp_only) {
      out.push_back(measure_pir_sim(s.channels, s.rows, s.cols, quick,
                                    0x919000 + s.channels));
      print_pir_row(out.back());
    }
    // Quick mode keeps one size and one transport (sim) so the perf-smoke
    // CI job covers the path without paying for the socket pair twice.
    if (!quick || tcp_only) {
      out.push_back(measure_pir_tcp(s.channels, s.rows, s.cols, quick,
                                    0x919100 + s.channels));
      print_pir_row(out.back());
    }
    const auto& last = out.back();
    std::printf("    -> PIR at C=%zu B=%zu: %.0fx lower query latency "
                "(guard: >= 10x), %.1fx fewer wire bytes\n",
                s.channels, s.rows * s.cols, last.latency_speedup,
                last.byte_reduction);
  }
  std::printf("\n");
  return out;
}

double byte_ratio(std::size_t base, std::size_t packed) {
  return packed > 0 ? static_cast<double>(base) / static_cast<double>(packed)
                    : 0;
}

void print_pack_row(const Row& base, const Row& r) {
  std::printf(
      "  k=%zu | PU enc %7.1f ms (%.2fx) fold %6.1f ms (%.2fx) recompute "
      "%7.1f ms (%.2fx) | SDC->STP %7.2f kB (%.2fx) STP->SDC %6.2f kB "
      "(%.2fx) | req %7.2f kB (%.2fx) STP %7.1f ms (%.2fx)\n",
      r.pack_slots, r.pu_encrypt_ms,
      speedup(base.pu_encrypt_ms, r.pu_encrypt_ms),
      r.pu_encrypt_ms + r.pu_apply_ms,
      speedup(base.pu_encrypt_ms + base.pu_apply_ms,
              r.pu_encrypt_ms + r.pu_apply_ms),
      r.pu_recompute_ms, speedup(base.pu_recompute_ms, r.pu_recompute_ms),
      static_cast<double>(r.convert_bytes) / 1e3,
      byte_ratio(base.convert_bytes, r.convert_bytes),
      static_cast<double>(r.convert_reply_bytes) / 1e3,
      byte_ratio(base.convert_reply_bytes, r.convert_reply_bytes),
      static_cast<double>(r.request_bytes) / 1e3,
      byte_ratio(base.request_bytes, r.request_bytes), r.stp_convert_ms,
      speedup(base.stp_convert_ms, r.stp_convert_ms));
}

benchjson::JsonFields row_json(const Row& r) {
  benchjson::JsonFields j;
  j.add("paillier_bits", r.paillier_bits);
  j.add("channels", r.channels);
  j.add("blocks", r.blocks);
  j.add("num_threads", r.num_threads);
  j.add("pack_slots", r.pack_slots);
  j.add("prep_fresh_ms", r.prep_fresh_ms);
  j.add("prep_pooled_ms", r.prep_pooled_ms);
  j.add("prep_hybrid_ms", r.prep_hybrid_ms);
  j.add("request_bytes", r.request_bytes);
  j.add("sdc_phase1_ms", r.sdc_phase1_ms);
  j.add("sdc_phase2_ms", r.sdc_phase2_ms);
  j.add("stp_convert_ms", r.stp_convert_ms);
  j.add("stp_convert_pooled_ms", r.stp_convert_pooled_ms);
  j.add("stp_convert_ms_per_entry",
        r.stp_convert_ms / static_cast<double>(r.entries()));
  j.add("convert_bytes", r.convert_bytes);
  j.add("convert_reply_bytes", r.convert_reply_bytes);
  j.add("pu_encrypt_ms", r.pu_encrypt_ms);
  j.add("pu_apply_ms", r.pu_apply_ms);
  j.add("pu_recompute_ms", r.pu_recompute_ms);
  j.add("pu_update_bytes", r.pu_update_bytes);
  j.add("response_bytes", r.response_bytes);
  j.add("su_request_total_ms", r.su_request_total_ms());
  return j;
}

benchjson::JsonFields throughput_json(const ThroughputRow& r) {
  benchjson::JsonFields j;
  j.add("transport", r.transport);
  j.add("mode", r.mode);
  j.add("concurrency", r.concurrency);
  j.add("entries_per_request", r.entries_per_request);
  j.add("makespan_us", r.makespan_us);
  j.add("requests_per_sec", r.requests_per_sec);
  j.add("p50_latency_us", r.p50_latency_us);
  j.add("p95_latency_us", r.p95_latency_us);
  j.add("p99_latency_us", r.p99_latency_us);
  j.add("convert_round_trips", r.convert_round_trips);
  j.add("bytes_per_request", r.bytes_per_request);
  j.add("wire_bytes_per_request", r.wire_bytes_per_request);
  j.add("serve_wall_ms", r.serve_wall_ms);
  return j;
}

benchjson::JsonFields shard_json(const ShardRow& r) {
  benchjson::JsonFields j;
  j.add("num_shards", r.num_shards);
  j.add("durability", std::size_t{r.durability ? 1u : 0u});
  j.add("channels", r.channels);
  j.add("blocks", r.blocks);
  j.add("pu_updates", r.pu_updates);
  j.add("pu_fold_ms", r.pu_fold_ms);
  j.add("pu_fold_rows_per_sec_per_shard", r.pu_fold_rows_per_sec_per_shard);
  j.add("requests_per_sec", r.requests_per_sec);
  j.add("serve_wall_ms", r.serve_wall_ms);
  j.add("recovery_ms", r.recovery_ms);
  j.add("wal_records", static_cast<std::size_t>(r.wal_records));
  j.add("wal_bytes", static_cast<std::size_t>(r.wal_bytes));
  j.add("snapshots_written", static_cast<std::size_t>(r.snapshots_written));
  return j;
}

benchjson::JsonFields denial_json(const DenialRow& r) {
  benchjson::JsonFields j;
  j.add("transport", r.transport);
  j.add("deny_pct", r.deny_pct);
  j.add("filter", std::size_t{r.filter ? 1u : 0u});
  j.add("requests", r.requests);
  j.add("grants", r.grants);
  j.add("fast_denials", r.fast_denials);
  j.add("full_denials", r.full_denials);
  j.add("serve_wall_ms", r.serve_wall_ms);
  j.add("requests_per_sec", r.requests_per_sec);
  j.add("stp_decryptions", static_cast<std::size_t>(r.stp_decryptions));
  j.add("stp_decryptions_per_denied", r.stp_decryptions_per_denied);
  j.add("wire_bytes_per_request", r.wire_bytes_per_request);
  j.add("prefilter_false_positives",
        static_cast<std::size_t>(r.prefilter_false_positives));
  j.add("decisions_match", std::size_t{r.decisions_match ? 1u : 0u});
  return j;
}

benchjson::JsonFields pir_json(const PirRow& r) {
  benchjson::JsonFields j;
  j.add("transport", r.transport);
  j.add("channels", r.channels);
  j.add("blocks", r.blocks);
  j.add("replicas", r.replicas);
  j.add("paillier_requests", r.paillier_requests);
  j.add("pir_requests", r.pir_requests);
  j.add("paillier_request_ms", r.paillier_request_ms);
  j.add("pir_request_ms", r.pir_request_ms);
  j.add("latency_speedup", r.latency_speedup);
  j.add("paillier_bytes_per_request", r.paillier_bytes_per_request);
  j.add("pir_bytes_per_request", r.pir_bytes_per_request);
  j.add("byte_reduction", r.byte_reduction);
  j.add("pir_scan_ms_per_request", r.pir_scan_ms_per_request);
  j.add("decisions_match", std::size_t{r.decisions_match ? 1u : 0u});
  return j;
}

benchjson::JsonFields scenario_json(const ScenarioRow& r) {
  benchjson::JsonFields j;
  j.add("use_delta", std::size_t{r.use_delta ? 1u : 0u});
  j.add("num_sus", r.num_sus);
  j.add("ticks", r.ticks);
  j.add("pu_events", r.pu_events);
  j.add("updates_sent", r.updates_sent);
  j.add("requests", r.requests);
  j.add("grants", r.grants);
  j.add("denials", r.denials);
  j.add("fast_denials", r.fast_denials);
  j.add("oracle_mismatches", r.oracle_mismatches);
  j.add("delta_cells_per_tick", r.delta_cells_per_tick);
  j.add("wal_bytes_per_tick", r.wal_bytes_per_tick);
  j.add("update_wall_ms", r.update_wall_ms);
  j.add("update_ms_per_send", r.update_ms_per_send);
  j.add("ticks_per_sec", r.ticks_per_sec);
  j.add("requests_per_sec", r.requests_per_sec);
  return j;
}

void write_json(const char* path, bool quick, const std::vector<Row>& scaling,
                const std::vector<Row>& sweep,
                const std::vector<Row>& pack_sweep,
                const std::vector<ThroughputRow>& throughput,
                const std::vector<ShardRow>& shard_sweep,
                const std::vector<DenialRow>& denial_sweep,
                const std::vector<ScenarioRow>& scenario_sweep,
                const std::vector<PirRow>& pir_sweep) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path);
    return;
  }
  auto rows_of = [](const std::vector<Row>& rs) {
    std::vector<benchjson::JsonFields> out;
    out.reserve(rs.size());
    for (const auto& r : rs) out.push_back(row_json(r));
    return out;
  };
  std::vector<benchjson::JsonFields> tput;
  tput.reserve(throughput.size());
  for (const auto& r : throughput) tput.push_back(throughput_json(r));
  std::vector<benchjson::JsonFields> shards;
  shards.reserve(shard_sweep.size());
  for (const auto& r : shard_sweep) shards.push_back(shard_json(r));
  std::vector<benchjson::JsonFields> denials;
  denials.reserve(denial_sweep.size());
  for (const auto& r : denial_sweep) denials.push_back(denial_json(r));
  std::vector<benchjson::JsonFields> scenarios;
  scenarios.reserve(scenario_sweep.size());
  for (const auto& r : scenario_sweep) scenarios.push_back(scenario_json(r));
  std::vector<benchjson::JsonFields> pir;
  pir.reserve(pir_sweep.size());
  for (const auto& r : pir_sweep) pir.push_back(pir_json(r));
  benchjson::write_header(f, quick);
  benchjson::write_row_array(f, "scaling", rows_of(scaling), false);
  benchjson::write_row_array(f, "thread_sweep", rows_of(sweep), false);
  benchjson::write_row_array(f, "pack_sweep", rows_of(pack_sweep), false);
  benchjson::write_row_array(f, "throughput", tput, false);
  benchjson::write_row_array(f, "shard_sweep", shards, false);
  benchjson::write_row_array(f, "denial_sweep", denials, false);
  benchjson::write_row_array(f, "scenario_sweep", scenarios, false);
  benchjson::write_row_array(f, "pir_sweep", pir, true);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

std::vector<ThroughputRow> run_tcp_sweep(bool quick) {
  std::printf("TCP closed-loop throughput at n=512, C=2, B=4 (8 "
              "entries/request; wall-clock req/s over real epoll sockets, "
              "one pipelined connection):\n");
  std::vector<std::size_t> fleet{64};
  if (!quick) {
    fleet.push_back(256);
    fleet.push_back(1024);
  }
  std::vector<ThroughputRow> rows;
  for (std::size_t c : fleet) {
    rows.push_back(measure_tcp_throughput(c, 0x7C9000 + c));
    print_tcp_throughput_row(rows.back());
  }
  std::printf("\n");
  return rows;
}

int main(int argc, char** argv) {
  bool quick = false;
  bool tcp_only = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg{argv[i]};
    if (arg == "--quick") quick = true;
    if (arg == "--transport=tcp") tcp_only = true;
  }

  std::printf("PISA system evaluation (Figure 6 reproduction)%s%s\n",
              quick ? " [--quick]" : "", tcp_only ? " [--transport=tcp]" : "");
  std::printf("==============================================\n\n");

  if (tcp_only) {
    // Load-generator mode: just the socket sweeps, nothing else on the
    // clock. The JSON still parses like every other run; the non-socket
    // sections are simply empty.
    auto tcp_rows = run_tcp_sweep(quick);
    auto denial_rows = run_denial_sweep(quick, /*tcp_only=*/true);
    auto pir_rows = run_pir_sweep(quick, /*tcp_only=*/true);
    write_json("BENCH_system.json", quick, {}, {}, {}, tcp_rows, {},
               denial_rows, {}, pir_rows);
    std::printf("\nMachine-readable results written to BENCH_system.json\n");
    std::printf("\nDone.\n");
    return 0;
  }

  std::printf("Scaling check at n=1024 (per-entry costs must be flat):\n");
  Row r1 = measure(1024, 5, 3, 10, 42);    // 150 entries
  Row r2 = measure(1024, 10, 5, 12, 43);   // 600 entries
  print_row(r1);
  print_row(r2);
  double per1 = r1.total_processing_ms() / static_cast<double>(r1.entries());
  double per2 = r2.total_processing_ms() / static_cast<double>(r2.entries());
  std::printf("  per-entry SDC processing: %.3f ms vs %.3f ms (ratio %.2f, "
              "linear if ~1)\n\n",
              per1, per2, per1 / per2);

  // Slot-packing sweep (DESIGN.md §3.4) over an identical workload + seed:
  // the k > 1 rows fold k channels per ciphertext, so the PU encrypt/fold
  // path and the SDC↔STP link must shrink ~k× in time and bytes while the
  // grant decision stays byte-identical at k = 1 and value-identical above.
  std::printf("Slot-packing sweep at n=1024, C=8, B=10 (vs k=1):\n");
  std::vector<Row> pack_sweep;
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    pack_sweep.push_back(measure(1024, 8, 2, 5, 77, 1, k));
    print_pack_row(pack_sweep.front(), pack_sweep.back());
  }
  std::printf("\n");

  std::vector<Row> sweep;
  if (!quick) {
    // Thread sweep over the same workload + seed: every phase re-runs on 1,
    // 2 and 4 lanes. Randomness is pre-sampled sequentially, so the protocol
    // outputs are bit-identical at every setting and the sweep measures pure
    // modexp parallelism. Speedups only materialize with that many physical
    // cores, of course (hardware_threads below says what this host offers).
    std::printf("Thread sweep at n=1024, 150 entries (speedup vs 1 thread; "
                "host has %zu hardware threads):\n",
                exec::ThreadPool::hardware_threads());
    for (std::size_t nt : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      sweep.push_back(measure(1024, 5, 3, 10, 42, nt));
      print_sweep_row(sweep.front(), sweep.back());
    }
    std::printf("\n");
  } else {
    // --quick still emits a two-point thread sweep — r1 already measured
    // this workload on one lane, so only the two-lane row costs anything —
    // keeping thread_sweep non-empty for BENCH_system.json consumers and
    // the perf guard.
    sweep.push_back(r1);
    sweep.push_back(measure(1024, 5, 3, 10, 42, 2));
  }

  // Cross-request throughput engine (DESIGN.md §3.5): sequential baseline
  // vs concurrent-unbatched vs the batched path, per fleet size.
  std::printf("Multi-SU throughput at n=1024, C=4, B=6 (24 entries/request; "
              "virtual-time req/s):\n");
  std::vector<ThroughputRow> throughput;
  std::vector<std::size_t> fleet{2, 8};
  if (!quick) fleet.push_back(16);
  for (std::size_t c : fleet) {
    for (auto mode :
         {ThroughputMode::kSequential, ThroughputMode::kConcurrentUnbatched,
          ThroughputMode::kBatched}) {
      throughput.push_back(measure_throughput(mode, c, 0xBEEF00 + c));
      print_throughput_row(throughput.back());
    }
    const auto& seq = throughput[throughput.size() - 3];
    const auto& bat = throughput.back();
    std::printf("    -> batched vs sequential at %zu SUs: %.2fx requests/sec, "
                "%zu -> %zu convert round-trips\n",
                c, bat.requests_per_sec / seq.requests_per_sec,
                seq.convert_round_trips, bat.convert_round_trips);
  }
  std::printf("\n");

  // Socket-path closed-loop sweep (DESIGN.md §3.7): the same throughput[]
  // table gains transport="tcp" rows measured over real sockets. Quick mode
  // keeps the 64-session row so CI's perf guard always has a tcp row to
  // compare against the committed snapshot.
  auto tcp_rows = run_tcp_sweep(quick);
  throughput.insert(throughput.end(), tcp_rows.begin(), tcp_rows.end());

  // Shard × durability sweep (DESIGN.md §3.6): identical workload per shard
  // count, WAL off vs on. The on/off requests/sec pair feeds the 15%
  // durability-overhead guard in scripts/check_perf_regression.py.
  std::printf("Shard x durability sweep at n=768, C=8, B=6 (wall-clock "
              "req/s; recovery = crash + rebuild):\n");
  // All four shard counts run in --quick too (the per-row burst shrinks
  // instead): the committed BENCH_system.json carries the full N column
  // and CI always has the on/off pair for the overhead guard.
  std::vector<ShardRow> shard_sweep;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{8}}) {
    ShardRow off = measure_shard(n, false, quick, 0xD0C5EED);
    print_shard_row(off);
    ShardRow on = measure_shard(n, true, quick, 0xD0C5EED);
    print_shard_row(on);
    if (on.requests_per_sec > 0)
      std::printf("    -> durability overhead at %zu shard%s: %+.1f%% req/s "
                  "(guard: <= 15%%), recovery %.1f ms\n",
                  n, n == 1 ? "" : "s",
                  (off.requests_per_sec / on.requests_per_sec - 1.0) * 100.0,
                  on.recovery_ms);
    shard_sweep.push_back(off);
    shard_sweep.push_back(on);
  }
  std::printf("\n");

  // Denial-mix sweep (DESIGN.md §3.8): the grant:deny mix with the
  // encrypted cuckoo prefilter off vs on, sim and tcp. The 80%-deny on/off
  // pair feeds the ≥2x fast-deny guard in scripts/check_perf_regression.py.
  auto denial_rows = run_denial_sweep(quick, /*tcp_only=*/false);

  // Dynamic-spectrum scenario sweep (DESIGN.md §3.9): the identical seeded
  // mobility/churn/revocation schedule with full-column vs incremental PU
  // updates. The per-send update-cost pair feeds the ≥3x incremental
  // speedup floor in scripts/check_perf_regression.py; quick mode shortens
  // the schedule and keeps the 2-SU fleet only.
  auto scenario_rows = run_scenario_sweep(quick);

  // XOR-PIR vs Paillier head-to-head (DESIGN.md §3.10): the same seeded
  // world served through both privacy mechanisms at the scaling[] grids.
  // The within-run latency pair feeds the ≥10x PIR floor in
  // scripts/check_perf_regression.py; quick mode keeps the sim 5×30 row.
  auto pir_rows = run_pir_sweep(quick, /*tcp_only=*/false);

  std::vector<Row> scaling{r1, r2};
  if (!quick) {
    std::printf("Production key size n=2048 (paper's configuration):\n");
    Row r3 = measure(2048, 4, 3, 8, 44);     // 96 entries
    print_row(r3);
    print_extrapolation(r3);
    scaling.push_back(r3);
  }

  write_json("BENCH_system.json", quick, scaling, sweep, pack_sweep,
             throughput, shard_sweep, denial_rows, scenario_rows, pir_rows);
  std::printf("\nMachine-readable results written to BENCH_system.json\n");

  std::printf("\nDone.\n");
  return 0;
}

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
// request on one core, so we measure scaled grids, verify per-entry costs
// are scale-invariant (they are: every pipeline stage is a per-entry loop),
// and report measured-per-entry × 60,000 extrapolations next to the paper's
// numbers. EXPERIMENTS.md records the comparison.
//
// Every sweep builds its rows as benchjson::JsonFields (one ordered
// key → value list per row), prints them with the one row printer, and
// writes them as one named section of BENCH_system.json:
//
//   scaling / thread_sweep / pack_sweep  one request through every phase,
//       timed phase by phase (Figure 5), at the scaled grids, on 1/2/4
//       lanes, and at k ∈ {1, 2, 4} slots per ciphertext (DESIGN.md §3.4).
//   throughput   the same burst served sequentially, concurrently without
//       batching and through the cross-request batching engine (§3.5,
//       virtual-time req/s), plus the closed-loop burst over real epoll
//       sockets (§3.7, transport="tcp", wall clock).
//   durability_sweep  a PU-fold burst and rounds of prepared request bursts
//       at num_threads ∈ {1, 2, 4, 8}, WAL off and on (§3.6): fold time,
//       serve-only req/s — the WAL-overhead guard input — and the engine's
//       own crash-recovery time.
//   denial_sweep grant:deny mixes {80:20, 50:50, 20:80} with the
//       exhausted-cell prefilter off and on, over both transports (§3.8).
//   scenario_sweep the time-stepped mobility/churn/revocation schedule with
//       full-column vs incremental PU updates (§3.9), checked decision by
//       decision against the plaintext WATCH oracle.
//   pir_sweep    the XOR multi-server PIR query path against the
//       blinded-conversion pipeline on the same seeded world, over both
//       transports (§3.10).
//
// scripts/check_perf_regression.py compares a `--quick` run against the
// committed snapshot and enforces the within-run guards (WAL ≤ 15%,
// fast-deny ≥ 2x, delta ≥ 3x, PIR ≥ 10x). The binary itself exits non-zero
// when any request fails or times out, or any decision differs from its
// oracle (decisions_match = 0, oracle_mismatches ≠ 0).
//
// `--quick` (the CI perf-smoke configuration) runs the n=1024 scaling rows,
// the pack sweep, a two-point thread sweep, the {2, 8}-SU throughput sweep,
// the 64-session TCP row, the full lanes × durability grid with a shorter
// fold burst, the denial grid with 10 requests per row, a 40-tick 2-SU
// scenario pair and the sim PIR row at the small grid.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
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
#include "watch/plain_watch.hpp"

namespace {

using namespace pisa;
using Clock = std::chrono::steady_clock;
using Row = benchjson::JsonFields;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Failed or timed-out requests seen by any sweep; main exits non-zero when
// this is not zero.
std::size_t g_failures = 0;

void report_failure(const std::string& what) {
  ++g_failures;
  std::fprintf(stderr, "error: %s\n", what.c_str());
}

/// The grid and key sizes every sweep starts from.
core::PisaConfig bench_config(std::size_t paillier_bits, std::size_t channels,
                              std::size_t rows, std::size_t cols,
                              double block_m = 100.0,
                              std::size_t blind_bits = 128,
                              std::size_t mr_rounds = 12) {
  core::PisaConfig cfg;
  cfg.watch.grid_rows = rows;
  cfg.watch.grid_cols = cols;
  cfg.watch.block_size_m = block_m;
  cfg.watch.channels = channels;
  cfg.paillier_bits = paillier_bits;
  // License key strictly below the slot width, and at least the RSA floor
  // (rsa_generate needs >= 384 bits).
  cfg.rsa_bits = std::max<std::size_t>(384, paillier_bits / 2);
  cfg.blind_bits = blind_bits;
  cfg.mr_rounds = mr_rounds;
  return cfg;
}

const radio::ExtendedHataModel kModel{600.0, 30.0, 10.0};

// ---- One deployment behind either transport -------------------------------
//
// The throughput, denial and PIR sweeps run the same workload over the
// virtual-time SimulatedNetwork (core::PisaSystem) and over real loopback
// sockets (rpc::RpcServer + rpc::RpcClient). Deployment is the seam: it
// registers SUs and PUs, mirrors PU updates into a PlainWatch oracle,
// serves a batch, and reports each request's outcome and the bytes its
// transport counts. sim: the encoded payloads on every link, SDC↔STP
// included. tcp: the client's socket bytes in both directions, framing
// included (the SDC↔STP link stays inside the server process).

enum class Transport { kSim, kTcp };

const char* transport_name(Transport t) {
  return t == Transport::kSim ? "sim" : "tcp";
}

struct Ask {
  watch::SuRequest req;
  std::optional<std::pair<std::uint32_t, std::uint32_t>> range = std::nullopt;
};

struct Answer {
  bool ok = false;  // answered (sim: completed; tcp: before the timeout)
  bool granted = false;
  bool fast_denied = false;
  bool right = false;     // ok, and the PlainWatch oracle's decision
  double latency_us = 0;  // sim: virtual time; tcp: wall clock
};

struct Served {
  std::vector<Answer> answers;
  double wall_ms = 0;      // host wall clock of the timed window
  // sim: PisaSystem's STP refill after each drain, kept out of wall_ms
  // (a tcp deployment does that work in its idle time).
  double refill_ms = 0;
  double makespan_us = 0;  // first send to last answer (sim: virtual time)
  std::uint64_t bytes = 0;
  std::size_t convert_msgs = 0;  // SDC→STP conversion messages (sim only)
};

class Deployment {
 public:
  Deployment(Transport t, const core::PisaConfig& cfg,
             const std::vector<watch::PuSite>& sites, std::uint64_t seed)
      : transport_(t), cfg_(cfg), oracle_(cfg.watch, sites, kModel),
        rng_{seed}, client_rng_{seed + 1} {
    if (t == Transport::kSim) {
      sim_ = std::make_unique<core::PisaSystem>(cfg, sites, kModel, rng_);
      return;
    }
    server_ = std::make_unique<rpc::RpcServer>(cfg, rng_);
    client_ = std::make_unique<rpc::RpcClient>(
        cfg, server_->group_key(), "127.0.0.1", server_->port(), client_rng_);
    for (const auto& site : sites) client_->add_pu(site);
    // Per-request completion times, stamped on the dispatch thread the
    // moment each answer lands.
    client_->set_response_hook([this](std::uint64_t rid) {
      std::lock_guard<std::mutex> lk(done_mu_);
      done_[rid] = Clock::now();
    });
  }

  /// Key distribution is an offline registration step (paper §III-C): the
  /// sim SDC gets the key up front, so no directory lookup lands on a timed
  /// request. The tcp SDC fetches it from the STP during the SU's first
  /// request, inside the server process, so no socket counts it either.
  void add_su(std::uint32_t id) {
    if (sim_) {
      auto& su = sim_->add_su(id);
      sim_->sdc().register_su_key(id, su.public_key());
    } else {
      client_->add_su(id);
    }
  }

  void pu_update(std::uint32_t pu, const watch::PuTuning& tuning) {
    if (sim_)
      sim_->pu_update(pu, tuning);
    else
      client_->pu_update(pu, tuning);
    oracle_.pu_update(pu, tuning);
  }

  /// Serves `asks` one at a time, each answered before the next is
  /// prepared (SU preparation on the clock). With `burst`, every request
  /// is prepared off the clock and all are in flight at once (sim:
  /// PisaSystem::su_request_many, which discloses the full block range).
  Served serve(const std::vector<Ask>& asks, bool burst = false) {
    Served s;
    s.answers.resize(asks.size());
    if (sim_ && burst)
      serve_sim_burst(asks, s);
    else if (sim_)
      serve_sim(asks, s);
    else
      serve_tcp(asks, burst, s);
    // A disclosed range narrows the decision to those blocks, which the
    // full-area oracle does not model: callers that disclose one check the
    // verdict themselves.
    for (std::size_t i = 0; i < asks.size(); ++i) {
      auto& a = s.answers[i];
      a.right = a.ok && (asks[i].range || a.granted == oracle_.process_request(
                                                           asks[i].req).granted);
      if (!a.right)
        report_failure(std::string(transport_name(transport_)) + " request " +
                       std::to_string(i) +
                       (a.ok ? " differs from the PlainWatch oracle"
                             : " not answered"));
    }
    return s;
  }

  core::StpServer& stp() { return sim_ ? sim_->stp() : server_->stp(); }
  core::SdcServer& sdc() { return sim_ ? sim_->sdc() : server_->sdc(); }

  /// Σ replica-side XOR scan time over all ℓ replicas.
  double pir_scan_ms() {
    double ms = 0;
    for (std::size_t i = 0; i < cfg_.pir.replicas; ++i)
      if (auto* rep = sim_ ? sim_->pir_replica(i) : server_->pir_replica(i))
        ms += rep->stats().scan_total_ms;
    return ms;
  }

 private:
  void serve_sim(const std::vector<Ask>& asks, Served& s) {
    auto t0 = Clock::now();
    const double refill0 = sim_->refill_wall_ms();
    for (std::size_t i = 0; i < asks.size(); ++i) {
      auto out = sim_->su_request(asks[i].req, asks[i].range);
      s.answers[i] = {out.completed(), out.granted, out.fast_denied, false,
                      out.latency_us};
      s.makespan_us += out.latency_us;  // strictly serial occupancy
      s.bytes += out.request_bytes + out.convert_bytes +
                 out.convert_reply_bytes + out.response_bytes;
      s.convert_msgs += out.convert_bytes > 0;
    }
    s.refill_ms = sim_->refill_wall_ms() - refill0;
    s.wall_ms = ms_since(t0) - s.refill_ms;
  }

  void serve_sim_burst(const std::vector<Ask>& asks, Served& s) {
    std::vector<watch::SuRequest> reqs;
    for (const auto& a : asks) reqs.push_back(a.req);
    core::PisaSystem::MultiRequestStats stats;
    auto outs = sim_->su_request_many(reqs, &stats);
    for (std::size_t i = 0; i < outs.size(); ++i)
      s.answers[i] = {outs[i].completed(), outs[i].granted,
                      outs[i].fast_denied, false, outs[i].latency_us};
    s.wall_ms = stats.serve_wall_ms;
    s.makespan_us = stats.makespan_us;
    s.convert_msgs = stats.convert_msgs;
    s.bytes = stats.request_bytes + stats.convert_bytes +
              stats.convert_reply_bytes + stats.response_bytes;
  }

  void serve_tcp(const std::vector<Ask>& asks, bool burst, Served& s) {
    // A PIR query is one blocking round trip to every replica.
    const bool pir = cfg_.query_mode == core::QueryMode::kPir;
    burst = burst && !pir;
    auto prepare = [&](const Ask& a) {
      return client_->prepare_request(
          a.req.su_id, oracle_.build_request_matrix(a.req), a.range);
    };
    std::vector<core::PreparedRequest> prepared;
    if (burst)
      for (const auto& a : asks) prepared.push_back(prepare(a));
    const auto wire0 = wire_bytes();
    const auto t0 = Clock::now();
    for (const auto& p : prepared) client_->submit(p);
    for (std::size_t i = 0; i < asks.size(); ++i) {
      auto& ans = s.answers[i];
      const auto start = burst ? t0 : Clock::now();
      if (pir) {
        const auto f = oracle_.build_request_matrix(asks[i].req);
        const auto [lo, hi] = core::ClientSession::disclosed(f, asks[i].range);
        auto out = client_->pir_request(asks[i].req.su_id, f, lo, hi, 600000);
        ans.ok = out.completed;
        ans.granted = out.granted;
        ans.latency_us = 1e3 * ms_since(start);
        continue;
      }
      if (!burst) {
        prepared.push_back(prepare(asks[i]));
        client_->submit(prepared.back());
      }
      const auto& p = prepared[i];
      const auto d = client_->decide(p, &server_->license_key(), 600000);
      ans.ok = d.completed();
      ans.granted = d.granted;
      ans.fast_denied = d.fast_denied;
      if (!ans.ok) continue;
      std::lock_guard<std::mutex> lk(done_mu_);
      ans.latency_us =
          std::chrono::duration<double, std::micro>(done_[p.request_id] - start)
              .count();
    }
    s.wall_ms = ms_since(t0);
    s.bytes = wire_bytes() - wire0;
    for (const auto& a : s.answers)
      s.makespan_us = burst ? std::max(s.makespan_us, a.latency_us)
                            : s.makespan_us + a.latency_us;
  }

  std::uint64_t wire_bytes() {
    auto st = client_->transport().stats();
    return st.bytes_sent + st.bytes_received;
  }

  Transport transport_;
  core::PisaConfig cfg_;
  watch::PlainWatch oracle_;
  crypto::ChaChaRng rng_;         // the deployment (sim: everything)
  crypto::ChaChaRng client_rng_;  // tcp: SU/PU keys and request randomness
  // Declared before the client, whose dispatch thread runs the hook until
  // the client is gone.
  std::mutex done_mu_;
  std::map<std::uint64_t, Clock::time_point> done_;
  std::unique_ptr<core::PisaSystem> sim_;
  std::unique_ptr<rpc::RpcServer> server_;
  std::unique_ptr<rpc::RpcClient> client_;
};

double percentile(const std::vector<double>& sorted, std::size_t pct) {
  return sorted[(sorted.size() * pct + 99) / 100 - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---- Figure 5 phase by phase: scaling, thread and pack sweeps -------------

/// Packed request entries (pack_slots channels of one block) that are zero
/// in every slot.
std::size_t zero_packs(const watch::QMatrix& f, std::size_t pack_slots) {
  std::size_t zeros = 0;
  for (std::size_t lo = 0; lo < f.channels(); lo += pack_slots) {
    const std::size_t hi = std::min(lo + pack_slots, f.channels());
    for (std::uint32_t b = 0; b < f.blocks(); ++b) {
      bool zero = true;
      for (std::size_t c = lo; c < hi; ++c)
        zero = zero && f.at(radio::ChannelId{static_cast<std::uint32_t>(c)},
                            radio::BlockId{b}) == 0;
      zeros += zero ? 1 : 0;
    }
  }
  return zeros;
}

Row measure(std::size_t paillier_bits, std::size_t channels, std::size_t rows,
            std::size_t cols, std::uint64_t seed, std::size_t num_threads = 1,
            std::size_t pack_slots = 1) {
  auto cfg = bench_config(paillier_bits, channels, rows, cols);
  cfg.num_threads = num_threads;
  cfg.pack_slots = pack_slots;

  crypto::ChaChaRng rng{seed};
  std::vector<watch::PuSite> sites{{0, radio::BlockId{0}}};
  core::PisaSystem system{cfg, sites, kModel, rng};
  auto& su = system.add_su(1);
  // Direct begin/finish_request calls below bypass the network key
  // directory, so prime the SDC with the SU key explicitly.
  system.sdc().register_su_key(1, su.public_key());
  const std::size_t gk_bytes = system.stp().group_key().ciphertext_bytes();
  const std::size_t su_bytes = su.public_key().ciphertext_bytes();

  // --- PU update path (Figure 4).
  auto& pu = system.pu(0);
  auto t0 = Clock::now();
  auto update = pu.make_update(watch::PuTuning{radio::ChannelId{0}, 1e-6});
  const double pu_encrypt_ms = ms_since(t0);
  const std::size_t pu_update_bytes = update.encode(gk_bytes).size();
  t0 = Clock::now();
  system.sdc().handle_pu_update(update);
  const double pu_apply_ms = ms_since(t0);
  t0 = Clock::now();
  system.sdc().recompute_budget();
  const double pu_recompute_ms = ms_since(t0);

  // --- SU request path (Figure 5).
  const std::size_t blocks = rows * cols;
  watch::SuRequest request{
      1, radio::BlockId{static_cast<std::uint32_t>(blocks - 1)},
      std::vector<double>(channels, 100.0)};
  auto f = system.build_f(request);

  // §VI-A's three preparation costs, all from the SU's one randomizer
  // source (off-the-clock precompute, then the timed request): fresh = a
  // cold cache, every r^n factor computed inline; pooled = the whole
  // request precomputed; hybrid = as many factors precomputed as the
  // request has all-zero packs — the paper's "a portion of the encrypted
  // data is encryptions of 0" — so that many entries cost one
  // multiplication and the rest a modexp.
  t0 = Clock::now();
  auto msg = su.prepare_request(f, 1001);
  const double prep_fresh_ms = ms_since(t0);
  const std::size_t request_bytes = msg.encode(gk_bytes).size();

  su.precompute_randomizers(msg.f.size());
  t0 = Clock::now();
  auto msg2 = su.prepare_request(f, 1002);
  const double prep_pooled_ms = ms_since(t0);

  su.precompute_randomizers(zero_packs(f, pack_slots));
  t0 = Clock::now();
  auto msg3 = su.prepare_request(f, 1003);
  const double prep_hybrid_ms = ms_since(t0);

  t0 = Clock::now();
  auto conv = system.sdc().begin_request(msg);
  const double sdc_phase1_ms = ms_since(t0);
  const std::size_t convert_bytes = conv.encode(gk_bytes).size();

  t0 = Clock::now();
  auto xresp = system.stp().convert(conv);
  const double stp_convert_ms = ms_since(t0);
  const std::size_t convert_reply_bytes = xresp.encode(su_bytes).size();

  t0 = Clock::now();
  auto resp = system.sdc().finish_request(xresp);
  const double sdc_phase2_ms = ms_since(t0);
  const std::size_t response_bytes = resp.encode(su_bytes).size();

  // STP ablation: precomputed per-SU randomizer pools for the conversion.
  auto conv2 = system.sdc().begin_request(msg2);
  system.stp().precompute_su_randomizers(1, conv2.v.size());
  t0 = Clock::now();
  auto xresp2 = system.stp().convert(conv2);
  const double stp_convert_pooled_ms = ms_since(t0);
  (void)system.sdc().finish_request(xresp2);

  // Consume the third prepared request so the hybrid path is exercised
  // end to end as well.
  auto conv3 = system.sdc().begin_request(msg3);
  (void)system.sdc().finish_request(system.stp().convert(conv3));

  // su_request_total_ms is the end-to-end latency of one fresh request (SU
  // prep + SDC blind + STP convert + SDC finish; network transfer excluded,
  // bytes are reported separately). The perf-regression guard watches it.
  return Row()
      .add("paillier_bits", paillier_bits)
      .add("channels", channels)
      .add("blocks", blocks)
      .add("num_threads", num_threads)
      .add("pack_slots", pack_slots)
      .add("prep_fresh_ms", prep_fresh_ms)
      .add("prep_pooled_ms", prep_pooled_ms)
      .add("prep_hybrid_ms", prep_hybrid_ms)
      .add("request_bytes", request_bytes)
      .add("sdc_phase1_ms", sdc_phase1_ms)
      .add("sdc_phase2_ms", sdc_phase2_ms)
      .add("stp_convert_ms", stp_convert_ms)
      .add("stp_convert_pooled_ms", stp_convert_pooled_ms)
      .add("stp_convert_ms_per_entry",
           stp_convert_ms / static_cast<double>(channels * blocks))
      .add("convert_bytes", convert_bytes)
      .add("convert_reply_bytes", convert_reply_bytes)
      .add("pu_encrypt_ms", pu_encrypt_ms)
      .add("pu_apply_ms", pu_apply_ms)
      .add("pu_recompute_ms", pu_recompute_ms)
      .add("pu_update_bytes", pu_update_bytes)
      .add("response_bytes", response_bytes)
      .add("su_request_total_ms",
           prep_fresh_ms + sdc_phase1_ms + stp_convert_ms + sdc_phase2_ms);
}

/// The paper's "processing" is SDC-side: both request phases.
double sdc_processing_ms(const Row& r) {
  return r.num("sdc_phase1_ms") + r.num("sdc_phase2_ms");
}

void print_extrapolation(const Row& r) {
  // Everything scales linearly in C×B except the PU paths, which scale in C.
  const double k = 60000.0 / (r.num("channels") * r.num("blocks"));
  const double kc = 100.0 / r.num("channels");
  std::printf("\n--- Extrapolation to the paper's Table I scale "
              "(C=100, B=600, n=%.0f) vs paper (n=2048) ---\n",
              r.num("paillier_bits"));
  std::printf("  %-34s %10.1f s   (paper ~221 s)\n",
              "SU request preparation (fresh):", r.num("prep_fresh_ms") * k / 1e3);
  std::printf("  %-34s %10.1f s   (paper ~221 s incl. zero-entry reuse)\n",
              "SU request preparation (hybrid):", r.num("prep_hybrid_ms") * k / 1e3);
  std::printf("  %-34s %10.1f s   (paper ~11 s)\n",
              "SU request preparation (pooled):", r.num("prep_pooled_ms") * k / 1e3);
  std::printf("  %-34s %10.1f MB  (paper ~29 MB)\n",
              "SU request size:", r.num("request_bytes") * k / 1e6);
  std::printf("  %-34s %10.1f s   (paper ~219 s)\n",
              "SDC request processing:", sdc_processing_ms(r) * k / 1e3);
  std::printf("  %-34s %10.1f s   (paper: not reported)\n",
              "STP key conversion:", r.num("stp_convert_ms") * k / 1e3);
  std::printf("  %-34s %10.1f s   (ablation: per-SU randomizer pools)\n",
              "STP key conversion (pooled):",
              r.num("stp_convert_pooled_ms") * k / 1e3);
  std::printf("  %-34s %10.2f kb  (paper ~4.1 kb)\n", "SDC -> SU response:",
              r.num("response_bytes") * 8.0 / 1e3);
  std::printf("  %-34s %10.3f MB  (paper ~0.05 MB)\n", "PU update message:",
              r.num("pu_update_bytes") * kc / 1e6);
  std::printf("  %-34s %10.2f s   (paper ~2.6 s)\n",
              "PU update processing (recompute):",
              (r.num("pu_encrypt_ms") + r.num("pu_recompute_ms")) * kc / 1e3);
  std::printf("  %-34s %10.3f s   (ablation: incremental path)\n",
              "PU update processing (incremental):",
              (r.num("pu_encrypt_ms") + r.num("pu_apply_ms")) * kc / 1e3);
}

std::vector<Row> run_scaling(bool quick) {
  std::printf("Scaling check at n=1024 (per-entry costs must be flat):\n");
  std::vector<Row> rows{measure(1024, 5, 3, 10, 42),    // 150 entries
                        measure(1024, 10, 5, 12, 43)};  // 600 entries
  for (const auto& r : rows) r.print();
  auto per_entry = [](const Row& r) {
    return sdc_processing_ms(r) / (r.num("channels") * r.num("blocks"));
  };
  std::printf("    -> per-entry SDC processing: %.3f ms vs %.3f ms (ratio "
              "%.2f, linear if ~1)\n\n",
              per_entry(rows[0]), per_entry(rows[1]),
              ratio(per_entry(rows[0]), per_entry(rows[1])));
  if (!quick) {
    std::printf("Production key size n=2048 (paper's configuration):\n");
    rows.push_back(measure(2048, 4, 3, 8, 44));  // 96 entries
    rows.back().print();
    print_extrapolation(rows.back());
    std::printf("\n");
  }
  return rows;
}

/// Thread sweep over the scaling workload + seed: every phase re-runs on 1,
/// 2 and 4 lanes. Randomness is pre-sampled sequentially, so the protocol
/// outputs are bit-identical at every setting and the sweep measures pure
/// modexp parallelism (hardware_threads in the header says what the host
/// offers). --quick keeps two points, reusing the one-lane scaling row.
std::vector<Row> run_thread_sweep(bool quick, const Row& one_lane) {
  std::printf("Thread sweep at n=1024, 150 entries (host has %zu hardware "
              "threads):\n",
              exec::ThreadPool::hardware_threads());
  std::vector<Row> rows{quick ? one_lane : measure(1024, 5, 3, 10, 42, 1)};
  for (std::size_t nt : {std::size_t{2}, std::size_t{4}}) {
    if (quick && nt == 4) break;
    rows.push_back(measure(1024, 5, 3, 10, 42, nt));
  }
  for (const auto& r : rows) {
    r.print();
    if (r.num("num_threads") > 1)
      std::printf("    -> %.0f threads: %.2fx su_request_total_ms vs 1 "
                  "thread\n",
                  r.num("num_threads"),
                  ratio(rows[0].num("su_request_total_ms"),
                        r.num("su_request_total_ms")));
  }
  std::printf("\n");
  return rows;
}

/// Slot packing (DESIGN.md §3.4) over an identical workload + seed: the
/// k > 1 rows fold k channels per ciphertext, so the PU encrypt/fold path
/// and the SDC↔STP link must shrink ~k× in time and bytes while the grant
/// decision stays byte-identical at k = 1 and value-identical above.
std::vector<Row> run_pack_sweep() {
  std::printf("Slot-packing sweep at n=1024, C=8, B=10:\n");
  std::vector<Row> rows;
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    rows.push_back(measure(1024, 8, 2, 5, 77, 1, k));
    const Row& base = rows.front();
    const Row& r = rows.back();
    r.print();
    if (k > 1)
      std::printf("    -> k=%zu vs k=1: %.2fx PU encrypt, %.2fx STP convert, "
                  "%.2fx SDC->STP bytes\n",
                  k, ratio(base.num("pu_encrypt_ms"), r.num("pu_encrypt_ms")),
                  ratio(base.num("stp_convert_ms"), r.num("stp_convert_ms")),
                  ratio(base.num("convert_bytes"), r.num("convert_bytes")));
  }
  std::printf("\n");
  return rows;
}

// ---- Throughput (DESIGN.md §3.5 and §3.7) ---------------------------------
//
// The same burst of requests, one SU session each, served four ways:
//   sequential            (sim) one request fully drains before the next
//                         starts — the paper's one-at-a-time baseline
//   concurrent_unbatched  (sim) all requests in flight at once, one
//                         ConvertRequestMsg round-trip per SU
//   batched               (sim) the cross-request engine: blinded Ṽ entries
//                         coalesced into one ConvertBatchMsg, every SU's STP
//                         randomizer source precomputed one request deep,
//                         request-phase pipelining
//   closed_loop           (tcp) every session's request prepared off the
//                         clock, then the whole fleet poured down one
//                         pipelined connection at once
// The sim rows' requests/sec comes from the virtual-time makespan, so the
// comparison isolates protocol round-trips from host load and stays
// deterministic for the CI perf guard. The tcp rows are wall clock across
// real sockets (framing, CRC sealing, epoll wakeups, the dispatch lane),
// with p50/p99 as sojourn times from burst start; bytes_per_request is
// then the wire bytes, both directions. stp_inline_factors counts the
// conversion entries whose r^n factor the STP computed on the request path
// instead of taking it from its cache.

Row measure_throughput(Transport t, const std::string& mode,
                       std::size_t concurrency, std::uint64_t seed) {
  const bool sim = t == Transport::kSim;
  auto cfg = sim ? bench_config(1024, 4, 2, 3)
                 : bench_config(512, 2, 2, 2, 400.0, 16, 6);
  const std::size_t blocks = cfg.watch.grid_rows * cfg.watch.grid_cols;
  const std::size_t entries = cfg.watch.channels * blocks;
  if (mode == "batched") {
    cfg.convert_batch_max = 4096;  // coalesce the whole burst
    cfg.convert_batch_linger_us = 200.0;
  }

  Deployment dep{t, cfg, {{0, radio::BlockId{0}}}, seed};
  for (std::size_t i = 0; i < concurrency; ++i) {
    const auto su = static_cast<std::uint32_t>(i + 1);
    dep.add_su(su);
    if (mode == "batched") dep.stp().precompute_su_randomizers(su, entries);
  }
  dep.pu_update(0, watch::PuTuning{radio::ChannelId{0}, 1e-6});

  // The tcp fleet alternates strong and weak EIRP, so both verdicts cross
  // the socket.
  std::vector<Ask> asks;
  for (std::size_t i = 0; i < concurrency; ++i)
    asks.push_back({{static_cast<std::uint32_t>(i + 1),
                     radio::BlockId{static_cast<std::uint32_t>(i % blocks)},
                     std::vector<double>(cfg.watch.channels,
                                         sim || i % 2 == 0 ? 100.0 : 1e-4)}});
  const std::uint64_t inline0 = dep.stp().factors_inline();
  auto s = dep.serve(asks, /*burst=*/mode != "sequential");
  const std::uint64_t inline_factors = dep.stp().factors_inline() - inline0;

  std::vector<double> lat;
  for (const auto& a : s.answers) lat.push_back(a.latency_us);
  std::sort(lat.begin(), lat.end());
  const double per_request = static_cast<double>(s.bytes) /
                             static_cast<double>(concurrency);
  return Row()
      .add("transport", transport_name(t))
      .add("mode", mode)
      .add("concurrency", concurrency)
      .add("entries_per_request", entries)
      .add("makespan_us", s.makespan_us)
      .add("requests_per_sec",
           ratio(static_cast<double>(concurrency), s.makespan_us) * 1e6)
      .add("p50_latency_us", lat[(lat.size() - 1) / 2])
      .add("p95_latency_us", percentile(lat, 95))
      .add("p99_latency_us", percentile(lat, 99))
      .add("convert_round_trips", s.convert_msgs)
      .add("bytes_per_request", per_request)
      .add("wire_bytes_per_request", sim ? 0.0 : per_request)
      .add("serve_wall_ms", s.wall_ms)
      .add("stp_inline_factors", inline_factors);
}

std::vector<Row> run_throughput(bool quick) {
  std::printf("Multi-SU throughput at n=1024, C=4, B=6 (24 entries/request; "
              "virtual-time req/s):\n");
  std::vector<Row> rows;
  std::vector<std::size_t> fleet{2, 8};
  if (!quick) fleet.push_back(16);
  for (std::size_t c : fleet) {
    for (const char* mode : {"sequential", "concurrent_unbatched", "batched"}) {
      rows.push_back(measure_throughput(Transport::kSim, mode, c, 0xBEEF00 + c));
      rows.back().print();
    }
    const Row& seq = rows[rows.size() - 3];
    const Row& bat = rows.back();
    std::printf("    -> batched vs sequential at %zu SUs: %.2fx requests/sec, "
                "%.0f -> %.0f convert round-trips\n",
                c, ratio(bat.num("requests_per_sec"), seq.num("requests_per_sec")),
                seq.num("convert_round_trips"), bat.num("convert_round_trips"));
  }
  std::printf("\nTCP closed-loop throughput at n=512, C=2, B=4 (8 "
              "entries/request; wall-clock req/s over real epoll sockets, "
              "one pipelined connection):\n");
  std::vector<std::size_t> sessions{64};
  if (!quick) sessions.insert(sessions.end(), {256, 1024});
  for (std::size_t c : sessions) {
    rows.push_back(
        measure_throughput(Transport::kTcp, "closed_loop", c, 0x7C9000 + c));
    rows.back().print();
  }
  std::printf("\n");
  return rows;
}

// ---- Durability sweep (DESIGN.md §3.6) -----------------------------------
//
// The same seeded workload — a PU-fold burst followed by rounds of SU
// request bursts — at every lane count, durability off and on. The fold
// burst is the path the WAL sits on (journal → retract → add), so
// pu_fold_ms carries the journaling cost. requests_per_sec is wall clock
// over the serve path only: every request is encrypted off the clock
// (MultiRequestStats::prep_wall_ms), so the column measures the SDC + STP
// pipeline, not SU-side encryption. The regression guard compares the
// on/off pair from the same run, so host speed cancels out — as far as both
// sides see the same host: the two sides serve 5-request bursts round after
// round, interleaved, until each has at least 300 ms on the clock, since one
// burst per side back to back left the 15% cap at the mercy of a few hundred
// milliseconds of host noise (at 150 ms per side one slow round still moved
// a pair by up to 14%). The fold is sampled the same way: after the serve
// rounds each side re-folds its prepared burst, interleaved, until it has
// at least 150 ms of fold time, and pu_fold_ms is the median per-update
// time over fold_rounds bursts (one burst timed once moved the column up to
// 2x between runs). num_threads sets the lanes of both the column fold and
// the serve path. The WAL columns are read after the first serve round,
// before any re-fold, so they do not depend on how many rounds the clock
// took; recovery_ms is the engine's own timing of the snapshot-load +
// WAL-replay rebuild after a crash at the end of the run.

class DurabilityRun {
 public:
  DurabilityRun(std::size_t num_threads, bool durable, bool quick,
                std::uint64_t seed)
      : durable_(durable), pu_updates_(quick ? 6 : 12), rng_{seed} {
    namespace fs = std::filesystem;
    cfg_ = bench_config(768, 8, 2, 3);  // 8 channel groups at pack_slots = 1:
                                        // every lane count splits them evenly
    cfg_.num_threads = num_threads;
    if (durable) {
      dir_ = fs::temp_directory_path() /
             ("pisa_bench_durability_" + std::to_string(::getpid()) + "_" +
              std::to_string(num_threads));
      fs::remove_all(dir_);
      fs::create_directories(dir_);
      cfg_.durability.enabled = true;
      cfg_.durability.dir = dir_.string();
      // Compaction triggers mid-burst.
      cfg_.durability.snapshot_every = 4;
    }
    const std::vector<watch::PuSite> sites{{0, radio::BlockId{0}},
                                           {1, radio::BlockId{4}}};
    system_ = std::make_unique<core::PisaSystem>(cfg_, sites, kModel, rng_);
    // One SU session per request of a burst, so the burst overlaps in the
    // SDC.
    for (std::size_t id = 1; id <= kRoundRequests; ++id) {
      const auto su = static_cast<std::uint32_t>(id);
      system_->sdc().register_su_key(su, system_->add_su(su).public_key());
    }

    // PU encryption happens client-side and off the clock; the timed
    // section is exactly the fold.
    for (std::size_t i = 0; i < pu_updates_; ++i) {
      watch::PuTuning tuning{
          radio::ChannelId{static_cast<std::uint32_t>(i % cfg_.watch.channels)},
          1e-6 * static_cast<double>(i % 5 + 1)};
      updates_.push_back(system_->pu(i % sites.size()).make_update(tuning));
    }
    fold_round();

    // One untimed warm-up request first: lazy pools, page faults and
    // first-use allocations land outside the measurement window.
    if (!system_->su_request(request(1)).completed())
      report_failure("durability-sweep warm-up request failed");
  }

  ~DurabilityRun() {
    if (durable_) std::filesystem::remove_all(dir_);
  }

  double wall_ms() const { return wall_ms_; }
  double fold_ms() const { return fold_ms_; }

  /// Fold the prepared PU burst once more (each update replaces its PU's
  /// column with the same one, so the state stays put).
  void fold_round() {
    auto t0 = Clock::now();
    for (const auto& u : updates_) system_->sdc().handle_pu_update(u);
    const double ms = ms_since(t0);
    fold_ms_ += ms;
    fold_per_update_ms_.push_back(ms / static_cast<double>(updates_.size()));
  }

  /// Serve one burst of prepared requests, one per SU session.
  void serve_round() {
    std::vector<watch::SuRequest> burst;
    for (std::size_t id = 1; id <= kRoundRequests; ++id)
      burst.push_back(request(id));
    core::PisaSystem::MultiRequestStats stats;
    for (const auto& out :
         system_->su_request_many(burst, &stats))
      if (!out.completed())
        report_failure("durability-sweep request failed: " + out.failure);
    wall_ms_ += stats.serve_wall_ms;
    if (rounds_++ == 0) {
      const auto& state = system_->sdc().state();
      wal_records_ = state.wal_records();
      wal_bytes_ = state.wal_bytes();
      snapshots_ = state.snapshots_written();
    }
  }

  Row row() {
    // Crash and restart: zero recovery time with durability off — the
    // restarted SDC has nothing to recover from.
    system_->crash_sdc();
    const double recovery_ms =
        system_->restart_sdc().state().recovery_stats().recover_ms;
    return Row()
        .add("num_threads", cfg_.num_threads)
        .add("durability", durable_)
        .add("channels", cfg_.watch.channels)
        .add("blocks", cfg_.watch.grid_rows * cfg_.watch.grid_cols)
        .add("pu_updates", pu_updates_)
        .add("pu_fold_ms", median(fold_per_update_ms_))
        .add("fold_rounds", fold_per_update_ms_.size())
        .add("rounds", rounds_)
        .add("requests_per_sec",
             ratio(static_cast<double>(kRoundRequests * rounds_) * 1e3,
                   wall_ms_))
        .add("serve_wall_ms", wall_ms_)
        .add("recovery_ms", recovery_ms)
        .add("wal_records", wal_records_)
        .add("wal_bytes", wal_bytes_)
        .add("snapshots_written", snapshots_);
  }

 private:
  watch::SuRequest request(std::size_t id) const {
    return watch::SuRequest{static_cast<std::uint32_t>(id), radio::BlockId{2},
                            std::vector<double>(cfg_.watch.channels, 100.0)};
  }

  static constexpr std::size_t kRoundRequests = 5;
  bool durable_;
  std::size_t pu_updates_, rounds_ = 0;
  core::PisaConfig cfg_;
  std::filesystem::path dir_;
  crypto::ChaChaRng rng_;
  std::unique_ptr<core::PisaSystem> system_;
  std::vector<core::PuUpdateMsg> updates_;
  std::vector<double> fold_per_update_ms_;
  double fold_ms_ = 0, wall_ms_ = 0;
  std::uint64_t wal_records_ = 0, wal_bytes_ = 0, snapshots_ = 0;
};

std::vector<Row> run_durability_sweep(bool quick) {
  // All four lane counts run in --quick too (the fold burst shrinks
  // instead): the committed snapshot carries the full column and CI always
  // has the on/off pair for the overhead guard.
  std::printf("Durability sweep at n=768, C=8, B=6 (serve-only wall-clock "
              "req/s; recovery = crash + rebuild):\n");
  constexpr double kMinServeMs = 300.0;
  constexpr double kMinFoldMs = 150.0;
  std::vector<Row> rows;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{8}}) {
    DurabilityRun off{n, false, quick, 0xD0C5EED};
    DurabilityRun on{n, true, quick, 0xD0C5EED};
    // The side with less time on the clock serves next, so both sample the
    // same stretch of host speed.
    while (std::min(off.wall_ms(), on.wall_ms()) < kMinServeMs)
      (off.wall_ms() <= on.wall_ms() ? off : on).serve_round();
    while (std::min(off.fold_ms(), on.fold_ms()) < kMinFoldMs)
      (off.fold_ms() <= on.fold_ms() ? off : on).fold_round();
    for (auto* run : {&off, &on}) {
      rows.push_back(run->row());
      rows.back().print();
    }
    const Row& off_row = rows[rows.size() - 2];
    const Row& on_row = rows.back();
    std::printf("    -> durability overhead at %zu lane%s: %+.1f%% req/s "
                "(guard: <= 15%%), recovery %.1f ms\n",
                n, n == 1 ? "" : "s",
                (ratio(off_row.num("requests_per_sec"),
                       on_row.num("requests_per_sec")) - 1.0) * 100.0,
                on_row.num("recovery_ms"));
  }
  std::printf("\n");
  return rows;
}

// ---- Denial-mix sweep (DESIGN.md §3.8) -----------------------------------
//
// The same grant:deny request mix served with the exhausted-cell
// prefilter off and on, over both transports. The
// geometry keeps exhaustion block-local (d^c ≈ 527 m, 1000 m blocks): three
// PUs stack onto (channel 0, block 0) until its budget is provably
// exhausted, deny-mix requests disclose [0,1) and hit the
// confirmed-exhausted set, grant-mix requests disclose the clean [3,4).
// With the filter on every deny is a one-round 32-byte FastDenyMsg — no Ṽ
// blinding, no STP conversion — so wall-clock requests/sec at a deny-heavy
// mix is the headline number: the within-run on/off pair at 80% deny feeds
// the ≥2x fast-deny guard. The two rows of a pair serve their mix round
// after round, interleaved so both sample the same stretch of host speed,
// until each has at least 150 ms on the clock: a single quick round is a
// 2–20 ms window, and a shared host's vCPUs can change speed every few
// hundred milliseconds. stp_decryptions counts conversion entries +
// probe slots the STP opened during the timed burst; per denied request it
// must sit at ~0 with the filter on (probes amortize at PU-update time, off
// the serve path). decisions_match asserts every decision equals the
// constructed mix and the oracle — the filter never flips a verdict.

constexpr std::size_t kDenialChannels = 2;

core::PisaConfig denial_config(bool filter) {
  auto cfg = bench_config(512, kDenialChannels, 1, 4, 1000.0, 48, 8);
  cfg.watch.pu_min_signal_dbm = -40.0;  // d^c ≈ 527 m < one block: exhaustion
  cfg.watch.su_max_eirp_dbm = 20.0;     // stays local to the PU-site block
  cfg.denial_filter.enabled = filter;
  return cfg;
}

/// One side (filter off or on) of a denial-mix pair: the deployment, its
/// request mix and what its timed rounds have served so far.
class DenialRun {
 public:
  DenialRun(Transport t, std::size_t deny_pct, bool filter, bool quick,
            std::uint64_t seed)
      : t_(t), deny_pct_(deny_pct), filter_(filter), n_(quick ? 10 : 30),
        dep_{t, denial_config(filter),
             {{0, radio::BlockId{0}}, {1, radio::BlockId{0}},
              {2, radio::BlockId{0}}},
             seed} {
    // One SU session per request, plus a warm-up session.
    for (std::size_t i = 0; i <= n_; ++i)
      dep_.add_su(static_cast<std::uint32_t>(i + 1));
    // Exhaust (channel 0, block 0): the folds invalidate, the probe rounds
    // confirm — all before the timed rounds, like PU churn in deployment.
    for (std::uint32_t pu : {0u, 1u, 2u})
      dep_.pu_update(pu, watch::PuTuning{radio::ChannelId{0}, 1e-6});

    // Untimed warm-up grant on its own session: cold-start allocations stay
    // off the clock, FIFO ordering drains the PU folds (and their probe
    // rounds) first, and its conversion-entry count calibrates the
    // per-grant decryption cost.
    auto& stp = dep_.stp();
    const std::uint64_t entries0 = stp.entries_converted();
    const auto warm = dep_.serve({ask(n_ + 1, false)}).answers[0];
    match_ = warm.right && warm.granted;
    entries_per_grant_ = stp.entries_converted() - entries0;

    for (std::size_t i = 0; i < n_; ++i)
      asks_.push_back(ask(i + 1, deny_slot(i)));
    dec0_ = stp.entries_converted() + stp.probe_slots_signed();
  }

  double wall_ms() const { return wall_ms_; }

  /// Serve the whole mix once. tcp pipelines it, prepared off the clock;
  /// the sim has no burst with a disclosed range, so it serves one request
  /// at a time. Served back to back on one thread, the sim has no idle
  /// time, so its STP refill counts toward the throughput here.
  void serve_round() {
    const auto s = dep_.serve(asks_, /*burst=*/t_ == Transport::kTcp);
    ++rounds_;
    wall_ms_ += s.wall_ms + s.refill_ms;
    bytes_ += s.bytes;
    for (std::size_t i = 0; i < n_; ++i) {
      const auto& a = s.answers[i];
      match_ = match_ && a.right && a.granted != deny_slot(i);
      grants_ += a.granted;
      fast_ += a.fast_denied;
      full_ += !a.granted && !a.fast_denied;
    }
  }

  Row row() {
    auto& stp = dep_.stp();
    const std::uint64_t decryptions =
        stp.entries_converted() + stp.probe_slots_signed() - dec0_;
    const std::size_t served = n_ * rounds_;
    const std::uint64_t grant_cost = grants_ * entries_per_grant_;
    return Row()
        .add("transport", transport_name(t_))
        .add("deny_pct", deny_pct_)
        .add("filter", filter_)
        .add("requests", served)
        .add("rounds", rounds_)
        .add("grants", grants_)
        .add("fast_denials", fast_)
        .add("full_denials", full_)
        .add("serve_wall_ms", wall_ms_)
        .add("requests_per_sec",
             ratio(static_cast<double>(served) * 1e3, wall_ms_))
        .add("stp_decryptions", decryptions)
        .add("stp_decryptions_per_denied",
             fast_ + full_ > 0 && decryptions > grant_cost
                 ? static_cast<double>(decryptions - grant_cost) /
                       static_cast<double>(fast_ + full_)
                 : 0.0)
        .add("wire_bytes_per_request",
             static_cast<double>(bytes_) / static_cast<double>(served))
        .add("decisions_match", match_);
  }

 private:
  Ask ask(std::size_t su, bool deny) const {
    const std::uint32_t block = deny ? 0 : 3;
    return Ask{{static_cast<std::uint32_t>(su), radio::BlockId{block},
                std::vector<double>(kDenialChannels, 1e-4)},
               std::pair{block, block + 1}};
  }
  // deterministic interleave: 80% = 8-in-10
  bool deny_slot(std::size_t i) const { return i % 10 < deny_pct_ / 10; }

  Transport t_;
  std::size_t deny_pct_;
  bool filter_;
  std::size_t n_;
  Deployment dep_;
  std::vector<Ask> asks_;
  bool match_ = false;
  std::uint64_t entries_per_grant_ = 0, dec0_ = 0, bytes_ = 0;
  std::size_t rounds_ = 0, grants_ = 0, fast_ = 0, full_ = 0;
  double wall_ms_ = 0;
};

std::vector<Row> run_denial_sweep(bool quick) {
  std::printf(
      "Denial-mix sweep at n=512, C=2, B=4 (§3.8 prefilter off vs on; "
      "deny requests hit the exhausted block, wall-clock req/s):\n");
  constexpr double kMinServeMs = 150.0;
  std::vector<Row> rows;
  for (std::size_t deny_pct :
       {std::size_t{20}, std::size_t{50}, std::size_t{80}}) {
    for (auto t : {Transport::kSim, Transport::kTcp}) {
      const std::uint64_t seed =
          0xFA57DE00 + deny_pct * 4 + (t == Transport::kTcp ? 2 : 0);
      DenialRun off{t, deny_pct, false, quick, seed};
      DenialRun on{t, deny_pct, true, quick, seed + 1};
      // The side with less time on the clock serves next, so both sample
      // the same stretch of host speed.
      while (std::min(off.wall_ms(), on.wall_ms()) < kMinServeMs)
        (off.wall_ms() <= on.wall_ms() ? off : on).serve_round();
      for (auto* run : {&off, &on}) {
        rows.push_back(run->row());
        rows.back().print();
      }
      const Row& off_row = rows[rows.size() - 2];
      const Row& on_row = rows.back();
      std::printf("    -> prefilter at %zu%% deny (%s): %.2fx req/s, %.0f "
                  "full denials -> %.0f\n",
                  deny_pct, transport_name(t),
                  ratio(on_row.num("requests_per_sec"),
                        off_row.num("requests_per_sec")),
                  off_row.num("full_denials"), on_row.num("full_denials"));
    }
  }
  std::printf("\n");
  return rows;
}

// ---- §3.9 dynamic-spectrum scenario sweep --------------------------------
//
// The time-stepped ScenarioEngine — vehicular SU mobility, TV-channel
// churn, PU relocation/power-toggles, license expiry and revocation — run
// per fleet size over the identical seeded schedule with full-column PU
// updates and with §3.9 incremental deltas. The tests prove the two decide
// identically tick for tick, so the only thing that differs here is cost:
// update_ms_per_send (client encrypt + SDC fold + re-probe round, the
// incremental path's headline) must show the delta rows ≥3x cheaper, and
// every row must report oracle_mismatches = 0. One schedule puts only a few
// milliseconds of updates on a side's clock, so each side runs fresh
// deployments of the same seed, interleaved so both sample the same stretch
// of host speed, until each has at least 150 ms of updates on the clock;
// the wall-clock columns are sums over those runs, and every rerun must
// decide exactly as the first.

core::ScenarioResult run_scenario(bool use_delta, std::size_t num_sus,
                                  std::uint32_t ticks, std::uint64_t seed) {
  namespace fs = std::filesystem;
  auto cfg = bench_config(512, 3, 2, 6, 400.0, 16, 6);
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
  std::vector<watch::PuSite> sites{{0, radio::BlockId{0}},
                                   {1, radio::BlockId{7}},
                                   {2, radio::BlockId{11}}};
  core::PisaSystem system{cfg, sites, kModel, rng};
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
  core::ScenarioEngine engine{cfg, sites, kModel, sc, driver};
  auto res = engine.run();
  fs::remove_all(dir);
  if (res.transport_failures > 0)
    report_failure("scenario run had " + std::to_string(res.transport_failures) +
                   " transport failures");
  return res;
}

/// One side of a full/delta pair: the exact columns of its first run, the
/// wall-clock columns summed over all of them.
Row scenario_row(bool use_delta, std::size_t num_sus,
                 const std::vector<core::ScenarioResult>& runs) {
  const auto& first = runs.front();
  double update_ms = 0, total_ms = 0;
  std::uint64_t sends = 0, requests = 0, mismatches = 0;
  for (const auto& r : runs) {
    if (r.ticks != first.ticks)
      report_failure("a scenario rerun decided differently from its first run");
    update_ms += r.update_wall_ms;
    total_ms += r.total_wall_ms;
    sends += r.updates_sent;
    requests += r.requests;
    mismatches += r.oracle_mismatches;
  }
  const auto n_ticks = static_cast<double>(first.ticks.size());
  return Row()
      .add("use_delta", use_delta)
      .add("num_sus", num_sus)
      .add("ticks", first.ticks.size())
      .add("runs", runs.size())
      .add("pu_events", first.pu_events)
      .add("updates_sent", first.updates_sent)
      .add("requests", first.requests)
      .add("grants", first.grants)
      .add("denials", first.denials)
      .add("fast_denials", first.fast_denials)
      .add("oracle_mismatches", mismatches)
      .add("delta_cells_per_tick",
           static_cast<double>(first.delta_cells) / n_ticks)
      .add("wal_bytes_per_tick", static_cast<double>(first.wal_bytes) / n_ticks)
      .add("update_wall_ms", update_ms)
      .add("update_ms_per_send", ratio(update_ms, static_cast<double>(sends)))
      .add("ticks_per_sec",
           ratio(n_ticks * static_cast<double>(runs.size()) * 1e3, total_ms))
      .add("requests_per_sec",  // sustained: whole-run wall clock
           ratio(static_cast<double>(requests) * 1e3, total_ms));
}

std::vector<Row> run_scenario_sweep(bool quick) {
  const std::uint32_t ticks = quick ? 40 : 120;
  std::printf("Dynamic-spectrum scenario sweep at n=512, C=3, B=12 (§3.9 "
              "mobility/churn/revocation schedule, full-column vs "
              "incremental updates, %u ticks):\n",
              ticks);
  constexpr double kMinUpdateMs = 150.0;
  std::vector<std::size_t> fleet{2};
  if (!quick) fleet.push_back(4);
  std::vector<Row> rows;
  for (std::size_t sus : fleet) {
    // [0] full-column, [1] delta. The side with less update time on the
    // clock runs next.
    std::vector<core::ScenarioResult> runs[2];
    double clock[2] = {0, 0};
    while (std::min(clock[0], clock[1]) < kMinUpdateMs) {
      const bool use_delta = clock[1] < clock[0];
      runs[use_delta].push_back(run_scenario(use_delta, sus, ticks, 0x5CE0 + sus));
      clock[use_delta] += runs[use_delta].back().update_wall_ms;
    }
    for (bool use_delta : {false, true}) {
      rows.push_back(scenario_row(use_delta, sus, runs[use_delta]));
      rows.back().print();
    }
    std::printf("    -> incremental update path at %zu SUs: %.2fx cheaper per "
                "send (guard: >= 3x), %.2fx ticks/s\n",
                sus,
                ratio(rows[rows.size() - 2].num("update_ms_per_send"),
                      rows.back().num("update_ms_per_send")),
                ratio(rows.back().num("ticks_per_sec"),
                      rows[rows.size() - 2].num("ticks_per_sec")));
  }
  std::printf("\n");
  return rows;
}

// ---- §3.10 XOR-PIR vs Paillier query-path sweep --------------------------
//
// The same seeded world served through the blinded-conversion pipeline and
// through the XOR multi-server PIR path, at the scaling[] grid sizes. The
// Paillier side carries the full query-path cost (SU-side encryption + SDC
// blind + STP convert + SDC finish); the PIR side carries share-splitting,
// ℓ replica scans and the XOR reconstruction — no public-key operation
// anywhere. Latency is wall clock per request, one request at a time; the
// PIR side serves its request mix round after round until it has at least
// 150 ms on the clock, since a few dozen ~50 µs requests are a window that
// host noise alone can double. decisions_match asserts every verdict on both paths equals the PlainWatch
// oracle — swapping the privacy mechanism must never flip a decision. The
// within-run Paillier/PIR latency pair feeds the ≥10x PIR floor.

Row measure_pir(Transport t, std::size_t channels, std::size_t rows,
                std::size_t cols, bool quick, std::uint64_t seed) {
  const std::size_t blocks = rows * cols;
  auto enc_cfg = bench_config(1024, channels, rows, cols);
  auto pir_cfg = enc_cfg;
  pir_cfg.query_mode = core::QueryMode::kPir;
  pir_cfg.pir.replicas = 2;
  std::vector<watch::PuSite> sites{{0, radio::BlockId{0}}};
  Deployment enc{t, enc_cfg, sites, seed};
  Deployment pir{t, pir_cfg, sites, seed};
  watch::PuTuning tuning{radio::ChannelId{0}, 1e-6};
  for (auto* dep : {&enc, &pir}) {
    dep->add_su(1);
    dep->pu_update(0, tuning);
  }

  // The Paillier side costs ~0.25–1 s per request at these grids; the PIR
  // side costs microseconds, so it can afford a larger averaging window.
  const std::size_t n_paillier = quick ? 1 : 8;
  const std::size_t pir_round = quick ? 8 : 16;
  constexpr double kMinPirMs = 150.0;
  auto asks = [&](std::size_t n) {
    // Deterministic block walk with alternating strong/weak EIRP so both
    // grant and deny verdicts appear in every row's mix.
    std::vector<Ask> out;
    for (std::size_t i = 0; i < n; ++i)
      out.push_back({{1, radio::BlockId{static_cast<std::uint32_t>((i * 7) % blocks)},
                      std::vector<double>(channels, i % 2 == 0 ? 100.0 : 1e-4)}});
    return out;
  };
  const auto p = enc.serve(asks(n_paillier));
  bool match = true;
  for (const auto& a : p.answers) match = match && a.right;
  const auto pir_asks = asks(pir_round);
  std::size_t n_pir = 0;
  std::uint64_t pir_total_bytes = 0;
  double pir_wall_ms = 0;
  while (pir_wall_ms < kMinPirMs) {
    const auto q = pir.serve(pir_asks);
    for (const auto& a : q.answers) match = match && a.right;
    n_pir += pir_round;
    pir_wall_ms += q.wall_ms;
    pir_total_bytes += q.bytes;
  }

  const double paillier_ms = p.wall_ms / static_cast<double>(n_paillier);
  const double pir_ms = pir_wall_ms / static_cast<double>(n_pir);
  const double paillier_bytes =
      static_cast<double>(p.bytes) / static_cast<double>(n_paillier);
  const double pir_bytes =
      static_cast<double>(pir_total_bytes) / static_cast<double>(n_pir);
  return Row()
      .add("transport", transport_name(t))
      .add("channels", channels)
      .add("blocks", blocks)
      .add("replicas", pir_cfg.pir.replicas)
      .add("paillier_requests", n_paillier)
      .add("pir_requests", n_pir)
      .add("paillier_request_ms", paillier_ms)
      .add("pir_request_ms", pir_ms)
      .add("latency_speedup", ratio(paillier_ms, pir_ms))
      .add("paillier_bytes_per_request", paillier_bytes)
      .add("pir_bytes_per_request", pir_bytes)
      .add("byte_reduction", ratio(paillier_bytes, pir_bytes))
      .add("pir_scan_ms_per_request",
           pir.pir_scan_ms() / static_cast<double>(n_pir))
      .add("decisions_match", match);
}

std::vector<Row> run_pir_sweep(bool quick) {
  std::printf(
      "XOR-PIR vs Paillier query path at n=1024 (§3.10 head-to-head at the "
      "scaling[] grids; wall-clock per-request latency):\n");
  struct GridSize {
    std::size_t channels, rows, cols;
  };
  // The scaling[] grid sizes: 5×30 always, the 10×60 headline in full mode.
  // Quick mode keeps one size and the sim transport only.
  std::vector<GridSize> sizes{{5, 3, 10}};
  if (!quick) sizes.push_back({10, 5, 12});
  std::vector<Row> rows;
  for (const auto& g : sizes) {
    for (auto t : {Transport::kSim, Transport::kTcp}) {
      if (quick && t == Transport::kTcp) continue;
      const std::uint64_t seed =
          (t == Transport::kSim ? 0x919000 : 0x919100) + g.channels;
      rows.push_back(measure_pir(t, g.channels, g.rows, g.cols, quick, seed));
      rows.back().print();
    }
    const Row& last = rows.back();
    std::printf("    -> PIR at C=%zu B=%zu: %.0fx lower query latency "
                "(guard: >= 10x), %.1fx fewer wire bytes\n",
                g.channels, g.rows * g.cols, last.num("latency_speedup"),
                last.num("byte_reduction"));
  }
  std::printf("\n");
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} != "--quick") {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
    quick = true;
  }

  std::printf("PISA system evaluation (Figure 6 reproduction)%s\n",
              quick ? " [--quick]" : "");
  std::printf("==============================================\n\n");

  auto scaling = run_scaling(quick);
  auto pack = run_pack_sweep();
  auto threads = run_thread_sweep(quick, scaling.front());
  const std::vector<benchjson::Section> sections{
      {"scaling", scaling},
      {"thread_sweep", threads},
      {"pack_sweep", pack},
      {"throughput", run_throughput(quick)},
      {"durability_sweep", run_durability_sweep(quick)},
      {"denial_sweep", run_denial_sweep(quick)},
      {"scenario_sweep", run_scenario_sweep(quick)},
      {"pir_sweep", run_pir_sweep(quick)}};
  benchjson::write_json("BENCH_system.json", quick, sections);
  std::printf("Machine-readable results written to BENCH_system.json\n");

  // Wrong answers fail the run, not just the JSON.
  std::size_t wrong = 0;
  for (const auto& [name, rows] : sections)
    for (const auto& r : rows)
      if ((r.has("decisions_match") && r.num("decisions_match") != 1) ||
          r.num("oracle_mismatches") != 0) {
        ++wrong;
        std::fprintf(stderr, "error: %s row with a wrong decision:\n",
                     name.c_str());
        r.print(stderr);
      }
  if (wrong > 0 || g_failures > 0) {
    std::fprintf(stderr, "FAILED: %zu row(s) with wrong decisions, %zu failed "
                         "or timed-out request(s)\n",
                 wrong, g_failures);
    return 1;
  }
  std::printf("\nDone.\n");
  return 0;
}

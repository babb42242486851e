// Chaos suite: the full encrypted PISA pipeline under seeded network
// faults. The reliability layer (ReliableTransport + idempotent handlers +
// frame checksums) must keep every *completed* request bit-identical to the
// PlainWatch oracle decision, convert undeliverable rounds into typed
// failures (never hangs or throws), and make entire chaos runs reproducible
// from the fault seed alone.
#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "crypto/chacha_rng.hpp"
#include "net/fault.hpp"
#include "radio/pathloss.hpp"
#include "watch/plain_watch.hpp"

namespace pisa::core {
namespace {

using radio::BlockId;
using radio::ChannelId;

// Same grid/channel shape as the protocol tests, with 512-bit Paillier to
// keep the 50-request sweep affordable, and the reliability layer enabled.
PisaConfig chaos_config() {
  PisaConfig cfg;
  cfg.watch.grid_rows = 2;
  cfg.watch.grid_cols = 3;
  cfg.watch.block_size_m = 500.0;
  cfg.watch.channels = 2;
  cfg.paillier_bits = 512;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  cfg.reliability.enabled = true;
  return cfg;
}

std::vector<watch::PuSite> chaos_sites() {
  return {{0, BlockId{0}}, {1, BlockId{5}}};
}

struct ChaosFixture : ::testing::Test {
  PisaConfig cfg = chaos_config();
  crypto::ChaChaRng rng{std::uint64_t{2024}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, chaos_sites(), model, rng};
  watch::PlainWatch oracle{cfg.watch, chaos_sites(), model};

  watch::SuRequest request(std::uint32_t su, std::uint32_t block, double mw) {
    return {su, BlockId{block}, std::vector<double>(cfg.watch.channels, mw)};
  }

  /// Random PU retuning applied to system and oracle in lockstep. Must run
  /// with fault plans cleared: a dropped pu_update would desynchronise the
  /// two, and chaos tests only inject faults into the request rounds.
  void mutate_pus(crypto::ChaChaRng& scenario) {
    system.network().clear_fault_plans();
    for (std::uint32_t pu = 0; pu < 2; ++pu) {
      watch::PuTuning tuning;
      if (scenario.next_u64() % 3 != 0) {
        tuning.channel = ChannelId{static_cast<std::uint32_t>(
            scenario.next_u64() % cfg.watch.channels)};
        tuning.signal_mw =
            1e-7 * static_cast<double>(scenario.next_u64() % 50 + 1);
      }
      system.pu_update(pu, tuning);
      oracle.pu_update(pu, tuning);
    }
  }
};

TEST_F(ChaosFixture, CompletedRequestsMatchOracleAcrossFaultSweep) {
  // Satellite #1 + headline invariant: 50 seeded fault schedules cycling
  // drop rates {0, 5%, 20%}. Whatever the failure schedule does, a request
  // that completes carries exactly the PlainWatch decision, and at 20% drop
  // the bounded-retry layer still completes the overwhelming majority.
  system.add_su(100);
  crypto::ChaChaRng scenario{std::uint64_t{0x5EED}};
  const double kDropRates[] = {0.0, 0.05, 0.20};

  int completed = 0, failed = 0, grants = 0, denies = 0;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t fault_seed = 0xC0FFEE00u + static_cast<std::uint64_t>(i);
    const double drop = kDropRates[i % 3];
    SCOPED_TRACE("schedule " + std::to_string(i) + " fault_seed=" +
                 std::to_string(fault_seed) + " drop=" + std::to_string(drop));

    mutate_pus(scenario);  // fault-free, keeps system == oracle

    net::FaultPlan plan;
    plan.drop = drop;
    plan.duplicate = 0.05;
    plan.reorder = 0.10;
    plan.corrupt = 0.05;
    plan.delay = 0.10;
    system.network().set_fault_seed(fault_seed);
    system.network().set_default_fault_plan(plan);

    auto req = request(100, static_cast<std::uint32_t>(scenario.next_u64() % 6),
                       0.01 * static_cast<double>(scenario.next_u64() % 2000 + 1));
    const bool expected = oracle.process_request(req).granted;
    auto out = system.su_request(req);
    if (out.completed()) {
      ++completed;
      EXPECT_EQ(out.granted, expected);
      (expected ? grants : denies) += 1;
    } else {
      ++failed;
      EXPECT_FALSE(out.failure.empty()) << "typed failures must say why";
    }
    EXPECT_EQ(system.network().pending(), 0u) << "no stuck timers or frames";
  }
  system.network().clear_fault_plans();

  EXPECT_GE(completed, 48) << "acceptance: >=95% completion across the sweep";
  EXPECT_EQ(completed + failed, 50);
  EXPECT_GT(grants, 0) << "sweep must exercise both decisions";
  EXPECT_GT(denies, 0);
}

TEST_F(ChaosFixture, TransportFailureIsTypedAndSystemRecovers) {
  // A blackholed SU->SDC link exhausts the retry budget: the outcome is a
  // typed kTransportFailed with a diagnosis, nothing throws or hangs, and
  // once the link heals the very next request completes and matches the
  // oracle — no poisoned state left behind.
  system.add_su(100);
  net::FaultPlan blackhole;
  blackhole.drop = 1.0;
  system.network().set_fault_seed(11);
  system.network().set_fault_plan("su_100", "sdc", blackhole);

  auto req = request(100, 1, 100.0);
  auto out = system.su_request(req);
  EXPECT_FALSE(out.completed());
  EXPECT_EQ(out.status, PisaSystem::RequestOutcome::Status::kTransportFailed);
  EXPECT_NE(out.failure.find("gave up"), std::string::npos) << out.failure;
  EXPECT_FALSE(out.granted);
  EXPECT_EQ(system.network().pending(), 0u);
  ASSERT_NE(system.reliable_transport(), nullptr);
  EXPECT_GE(system.reliable_transport()->stats().gave_up, 1u);

  system.network().clear_fault_plans();
  auto healed = system.su_request(req);
  ASSERT_TRUE(healed.completed());
  EXPECT_EQ(healed.granted, oracle.process_request(req).granted);
}

TEST_F(ChaosFixture, DuplicateStormDeliversEachRequestExactlyOnce) {
  // Aggressive duplication + reordering: transport-level dedup and the
  // (sender, seq) windows on SDC/STP must collapse every storm back to
  // exactly-once application processing, so decisions still match the
  // oracle and no request is double-served.
  system.add_su(100);
  net::FaultPlan storm;
  storm.duplicate = 0.9;
  storm.reorder = 0.3;
  system.network().set_fault_seed(21);
  system.network().set_default_fault_plan(storm);

  crypto::ChaChaRng scenario{std::uint64_t{9}};
  for (int i = 0; i < 4; ++i) {
    auto req = request(100, static_cast<std::uint32_t>(scenario.next_u64() % 6),
                       50.0);
    auto out = system.su_request(req);
    ASSERT_TRUE(out.completed()) << "duplication alone never loses frames";
    EXPECT_EQ(out.granted, oracle.process_request(req).granted);
  }
  const auto& stats = system.reliable_transport()->stats();
  EXPECT_GT(stats.duplicates_suppressed, 0u);
  EXPECT_GT(system.network().fault_stats().duplicated, 0u);
  EXPECT_EQ(stats.gave_up, 0u);
}

// Fixed seed + fixed plan => bit-reproducible chaos runs: identical
// outcomes, decisions, retransmission counts, fault schedules, traffic
// totals and virtual clocks — across repeated executions and across
// num_threads (the thread pool parallelises compute, never randomness).
TEST(ChaosDeterminism, RunsAreBitReproducibleAcrossExecutionsAndThreads) {
  auto run_chaos = [](std::size_t num_threads) {
    PisaConfig cfg = chaos_config();
    cfg.num_threads = num_threads;
    crypto::ChaChaRng rng{std::uint64_t{2024}};
    radio::ExtendedHataModel model{600.0, 30.0, 10.0};
    PisaSystem system{cfg, chaos_sites(), model, rng};
    system.add_su(100);

    net::FaultPlan plan;
    plan.drop = 0.20;
    plan.duplicate = 0.10;
    plan.corrupt = 0.05;
    plan.reorder = 0.15;
    plan.delay = 0.10;
    system.network().set_fault_seed(0xDEC0DE);
    system.network().set_default_fault_plan(plan);

    std::vector<std::tuple<bool, bool>> outcomes;  // (completed, granted)
    for (int i = 0; i < 4; ++i) {
      watch::SuRequest req{100, BlockId{static_cast<std::uint32_t>(i % 6)},
                           std::vector<double>(cfg.watch.channels, 25.0)};
      auto out = system.su_request(req);
      outcomes.emplace_back(out.completed(), out.granted);
    }
    return std::tuple{outcomes, system.network().fault_stats(),
                      system.network().total_stats(),
                      system.reliable_transport()->stats(),
                      system.network().now_us()};
  };

  auto r1 = run_chaos(1);
  auto r2 = run_chaos(1);
  auto r4 = run_chaos(4);
  EXPECT_EQ(std::get<0>(r1), std::get<0>(r2)) << "same outcomes, same run";
  EXPECT_EQ(std::get<1>(r1), std::get<1>(r2)) << "same fault schedule";
  EXPECT_EQ(std::get<2>(r1), std::get<2>(r2)) << "same traffic totals";
  EXPECT_EQ(std::get<3>(r1), std::get<3>(r2)) << "same retransmission counts";
  EXPECT_EQ(std::get<4>(r1), std::get<4>(r2)) << "same virtual clock";
  EXPECT_EQ(std::get<0>(r1), std::get<0>(r4)) << "outcomes independent of threads";
  EXPECT_EQ(std::get<1>(r1), std::get<1>(r4)) << "faults independent of threads";
  EXPECT_EQ(std::get<2>(r1), std::get<2>(r4)) << "traffic independent of threads";
  EXPECT_EQ(std::get<3>(r1), std::get<3>(r4)) << "retries independent of threads";
  EXPECT_EQ(std::get<4>(r1), std::get<4>(r4)) << "clock independent of threads";
}

}  // namespace
}  // namespace pisa::core

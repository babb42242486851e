// Chaos suite for the conversion batcher (DESIGN.md §3.5): batched
// SDC↔STP rounds under seeded faults must keep every completed request on
// the PlainWatch oracle decision, survive duplicated / reordered
// ConvertBatchMsg frames exactly-once, recover from a dead SDC↔STP link
// through the batch watchdog, and stay bit-reproducible from the fault
// seed across runs and thread counts.
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

constexpr std::uint32_t kBurstSus = 4;

PisaConfig chaos_batch_config() {
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
  cfg.convert_batch_max = 10'000;  // whole burst per batch
  cfg.convert_batch_linger_us = 200.0;
  return cfg;
}

std::vector<watch::PuSite> chaos_sites() {
  return {{0, BlockId{0}}, {1, BlockId{5}}};
}

struct ChaosBatchFixture : ::testing::Test {
  PisaConfig cfg = chaos_batch_config();
  crypto::ChaChaRng rng{std::uint64_t{2025}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, chaos_sites(), model, rng};
  watch::PlainWatch oracle{cfg.watch, chaos_sites(), model};

  ChaosBatchFixture() {
    for (std::uint32_t su = 1; su <= kBurstSus; ++su) {
      auto& client = system.add_su(su);
      system.sdc().register_su_key(su, client.public_key());
    }
  }

  std::vector<watch::SuRequest> burst(crypto::ChaChaRng& scenario) {
    std::vector<watch::SuRequest> reqs;
    for (std::uint32_t su = 1; su <= kBurstSus; ++su) {
      auto block = static_cast<std::uint32_t>(scenario.next_u64() % 6);
      double mw = 0.01 * static_cast<double>(scenario.next_u64() % 2000 + 1);
      reqs.push_back({su, BlockId{block},
                      std::vector<double>(cfg.watch.channels, mw)});
    }
    return reqs;
  }

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

TEST_F(ChaosBatchFixture, CompletedBatchedRequestsMatchOracleAcrossFaultSweep) {
  crypto::ChaChaRng scenario{std::uint64_t{0xBEE5}};
  const double kDropRates[] = {0.0, 0.05, 0.20};

  int completed = 0, failed = 0, grants = 0, denies = 0;
  for (int i = 0; i < 12; ++i) {
    SCOPED_TRACE("schedule " + std::to_string(i));
    mutate_pus(scenario);  // fault-free, keeps system == oracle

    net::FaultPlan plan;
    plan.drop = kDropRates[i % 3];
    plan.duplicate = 0.05;
    plan.reorder = 0.10;
    plan.corrupt = 0.05;
    plan.delay = 0.10;
    system.network().set_fault_seed(0xFACE00u + static_cast<std::uint64_t>(i));
    system.network().set_default_fault_plan(plan);

    auto reqs = burst(scenario);
    auto outs = system.su_request_many(reqs);
    ASSERT_EQ(outs.size(), reqs.size());
    for (std::size_t r = 0; r < reqs.size(); ++r) {
      bool expected = oracle.process_request(reqs[r]).granted;
      if (outs[r].completed()) {
        ++completed;
        EXPECT_EQ(outs[r].granted, expected) << "request " << r;
        (expected ? grants : denies) += 1;
      } else {
        ++failed;
        EXPECT_FALSE(outs[r].failure.empty());
      }
    }
    EXPECT_EQ(system.network().pending(), 0u) << "no stuck timers or frames";
  }
  system.network().clear_fault_plans();

  EXPECT_GE(completed, 40) << "bounded retries complete the large majority";
  EXPECT_EQ(completed + failed, 12 * static_cast<int>(kBurstSus));
  EXPECT_GT(grants, 0);
  EXPECT_GT(denies, 0);
  EXPECT_GT(system.stp().batches_served(), 0u) << "sweep exercised batches";
}

TEST_F(ChaosBatchFixture, DuplicatedBatchFramesAreProcessedExactlyOnce) {
  // Aggressive duplication + reordering aimed at the SDC↔STP link: the
  // transport dedup window, the STP's (sender, seq) window and the SDC's
  // per-item pending_ check must collapse replayed ConvertBatchMsg /
  // ConvertBatchResponseMsg frames to exactly-once processing.
  crypto::ChaChaRng scenario{std::uint64_t{0xD0B1}};
  mutate_pus(scenario);

  net::FaultPlan storm;
  storm.duplicate = 0.9;
  storm.reorder = 0.3;
  system.network().set_fault_seed(31);
  system.network().set_fault_plan("sdc", "stp", storm);
  system.network().set_fault_plan("stp", "sdc", storm);

  for (int round = 0; round < 3; ++round) {
    auto reqs = burst(scenario);
    auto outs = system.su_request_many(reqs);
    for (std::size_t r = 0; r < reqs.size(); ++r) {
      ASSERT_TRUE(outs[r].completed()) << "duplication alone never loses frames";
      EXPECT_EQ(outs[r].granted, oracle.process_request(reqs[r]).granted);
    }
  }
  const auto& stats = system.reliable_transport()->stats();
  EXPECT_GT(stats.duplicates_suppressed, 0u);
  EXPECT_EQ(stats.gave_up, 0u);
  EXPECT_EQ(system.sdc().stats().requests_finished,
            system.sdc().stats().requests_started)
      << "every begun request finished exactly once";
}

TEST_F(ChaosBatchFixture, WatchdogUnblocksBatcherAfterDeadLink) {
  // Blackhole the SDC→STP link: the in-flight batch dies after the retry
  // budget, the watchdog clears the in-flight slot (instead of wedging
  // every later request behind it), and after the link heals the next
  // burst completes and matches the oracle.
  crypto::ChaChaRng scenario{std::uint64_t{0x0DD}};
  mutate_pus(scenario);

  net::FaultPlan blackhole;
  blackhole.drop = 1.0;
  system.network().set_fault_seed(41);
  system.network().set_fault_plan("sdc", "stp", blackhole);

  auto reqs = burst(scenario);
  auto outs = system.su_request_many(reqs);
  for (const auto& out : outs) {
    EXPECT_FALSE(out.completed());
    EXPECT_EQ(out.status, PisaSystem::RequestOutcome::Status::kTransportFailed);
    EXPECT_NE(out.failure.find("no response"), std::string::npos) << out.failure;
  }
  EXPECT_GE(system.sdc().stats().batches_timed_out, 1u)
      << "watchdog reported the dead batch";
  EXPECT_EQ(system.network().pending(), 0u);

  system.network().clear_fault_plans();
  auto healed_reqs = burst(scenario);
  auto healed = system.su_request_many(healed_reqs);
  for (std::size_t r = 0; r < healed_reqs.size(); ++r) {
    ASSERT_TRUE(healed[r].completed()) << "batcher recovered after the heal";
    EXPECT_EQ(healed[r].granted,
              oracle.process_request(healed_reqs[r]).granted);
  }
}

// Batched chaos runs replay bit-for-bit from the fault seed — outcomes,
// fault schedule, traffic, retransmissions and the virtual clock — across
// executions and thread counts, with batching and linger timers enabled and
// the STP's randomizer cache refilled after every drain.
TEST(ChaosBatchDeterminism, BatchedRunsAreBitReproducible) {
  auto run_chaos = [](std::size_t num_threads) {
    PisaConfig cfg = chaos_batch_config();
    cfg.num_threads = num_threads;
    crypto::ChaChaRng rng{std::uint64_t{2025}};
    radio::ExtendedHataModel model{600.0, 30.0, 10.0};
    PisaSystem system{cfg, chaos_sites(), model, rng};
    for (std::uint32_t su = 1; su <= kBurstSus; ++su) {
      auto& client = system.add_su(su);
      system.sdc().register_su_key(su, client.public_key());
    }
    system.pu_update(0, watch::PuTuning{ChannelId{0}, 1e-6});

    net::FaultPlan plan;
    plan.drop = 0.20;
    plan.duplicate = 0.10;
    plan.corrupt = 0.05;
    plan.reorder = 0.15;
    plan.delay = 0.10;
    system.network().set_fault_seed(0xDEC1DE);
    system.network().set_default_fault_plan(plan);

    std::vector<std::tuple<bool, bool>> outcomes;
    for (int round = 0; round < 2; ++round) {
      std::vector<watch::SuRequest> reqs;
      for (std::uint32_t su = 1; su <= kBurstSus; ++su)
        reqs.push_back({su, BlockId{(su + static_cast<std::uint32_t>(round)) % 6},
                        std::vector<double>(cfg.watch.channels, 25.0)});
      for (const auto& out : system.su_request_many(reqs))
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

// Crash/recovery chaos (DESIGN.md §3.6): seeded kill/restart schedules over
// the full PisaSystem. A crash destroys the SDC object — every in-memory
// byte of Ñ, W̃ and pending state is gone — and recovery must rebuild it
// from the durability store so exactly that completed decisions keep
// matching the PlainWatch oracle, re-delivered PU updates apply exactly
// once, license serials never repeat, and the persisted RSA identity keeps
// old licenses verifiable.
#include "core/protocol.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/sdc_state.hpp"
#include "crypto/chacha_rng.hpp"
#include "net/fault.hpp"
#include "radio/pathloss.hpp"
#include "watch/plain_watch.hpp"

namespace pisa::core {
namespace {

namespace fs = std::filesystem;
using radio::BlockId;
using radio::ChannelId;

/// Seeded schedule of SDC kill points: deterministic from the seed alone,
/// so every chaos run is reproducible. kill_now() draws once per round.
class KillRestartSchedule {
 public:
  explicit KillRestartSchedule(std::uint64_t seed, double kill_prob = 0.4)
      : rng_(seed), threshold_(static_cast<std::uint64_t>(kill_prob * 1000)) {}

  bool kill_now() { return rng_.next_u64() % 1000 < threshold_; }
  std::size_t kills() const { return kills_; }
  void count_kill() { ++kills_; }

 private:
  crypto::ChaChaRng rng_;
  std::uint64_t threshold_;
  std::size_t kills_ = 0;
};

PisaConfig recovery_config(const fs::path& dir) {
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
  cfg.durability.enabled = true;
  cfg.durability.dir = dir.string();
  cfg.durability.snapshot_every = 6;  // compactions happen mid-sweep
  cfg.durability.serial_reserve = 4;
  return cfg;
}

std::vector<watch::PuSite> recovery_sites() {
  return {{0, BlockId{0}}, {1, BlockId{5}}};
}

class ChaosRecovery : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pisa_chaos_recovery_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(ChaosRecovery, DecisionsMatchOracleAcrossKillRestartSweep) {
  // Satellite #1, the headline invariant: across a seeded schedule of
  // crashes (each wiping all in-memory SDC state), every completed request
  // carries exactly the PlainWatch decision — recovery is semantically
  // invisible.
  auto cfg = recovery_config(dir_);
  crypto::ChaChaRng rng{std::uint64_t{2024}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, recovery_sites(), model, rng};
  watch::PlainWatch oracle{cfg.watch, recovery_sites(), model};
  system.add_su(100);

  crypto::ChaChaRng scenario{std::uint64_t{0x5EED}};
  KillRestartSchedule schedule{std::uint64_t{0xBAD5EED}};
  int completed = 0;
  for (int round = 0; round < 16; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    if (schedule.kill_now()) {
      system.crash_sdc();
      ASSERT_FALSE(system.sdc_running());
      auto& sdc = system.restart_sdc();
      schedule.count_kill();
      EXPECT_TRUE(sdc.state().recovery_stats().ran);
    }
    // PU mutations run fault-free and with the SDC up, keeping the oracle
    // in lockstep (chaos targets the crash path, not update loss).
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
    watch::SuRequest req{
        100, BlockId{static_cast<std::uint32_t>(scenario.next_u64() % 6)},
        std::vector<double>(cfg.watch.channels,
                            0.01 * static_cast<double>(
                                       scenario.next_u64() % 2000 + 1))};
    bool expected = oracle.process_request(req).granted;
    auto out = system.su_request(req);
    ASSERT_TRUE(out.completed()) << out.failure;
    EXPECT_EQ(out.granted, expected);
    ++completed;
    EXPECT_EQ(system.network().pending(), 0u);
  }
  EXPECT_EQ(completed, 16);
  EXPECT_GE(schedule.kills(), 3u) << "the seed must actually exercise crashes";
}

TEST_F(ChaosRecovery, RedeliveredPuUpdateAppliesExactlyOnceAcrossCrash) {
  // Satellite #1's exactly-once claim, at the byte level: the same
  // PuUpdateMsg delivered before the crash, replayed by recovery, and
  // re-delivered after the restart folds into Ñ exactly once.
  auto cfg = recovery_config(dir_);
  crypto::ChaChaRng rng{std::uint64_t{7}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, recovery_sites(), model, rng};

  auto update = system.pu(0).make_update(watch::PuTuning{ChannelId{1}, 2e-6});
  system.sdc().handle_pu_update(update);
  auto budget_before = system.sdc().encrypted_budget();  // deep copy

  system.crash_sdc();
  auto& sdc = system.restart_sdc();
  EXPECT_EQ(sdc.encrypted_budget(), budget_before)
      << "recovery must replay the journaled update exactly once";
  EXPECT_EQ(sdc.state().pu_count(), 1u);

  // At-least-once delivery: the PU's retransmission arrives again.
  sdc.handle_pu_update(update);
  EXPECT_EQ(sdc.encrypted_budget(), budget_before)
      << "re-delivery must be a modular no-op, not a double fold";
  EXPECT_EQ(sdc.state().pu_count(), 1u);
}

TEST_F(ChaosRecovery, CrashedSdcYieldsTypedFailuresThenRecovers) {
  // Requests sent into the crash window fail with a typed transport error
  // (never a hang or a throw); after restart the very next request
  // completes and matches the oracle.
  auto cfg = recovery_config(dir_);
  crypto::ChaChaRng rng{std::uint64_t{42}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, recovery_sites(), model, rng};
  watch::PlainWatch oracle{cfg.watch, recovery_sites(), model};
  system.add_su(100);
  system.pu_update(0, watch::PuTuning{ChannelId{0}, 1e-6});
  oracle.pu_update(0, watch::PuTuning{ChannelId{0}, 1e-6});

  system.crash_sdc();
  watch::SuRequest req{100, BlockId{2},
                       std::vector<double>(cfg.watch.channels, 50.0)};
  auto down = system.su_request(req);
  EXPECT_FALSE(down.completed());
  EXPECT_EQ(down.status, PisaSystem::RequestOutcome::Status::kTransportFailed);
  EXPECT_FALSE(down.failure.empty());
  EXPECT_EQ(system.network().pending(), 0u) << "no stuck retry timers";

  system.restart_sdc();
  auto up = system.su_request(req);
  ASSERT_TRUE(up.completed()) << up.failure;
  EXPECT_EQ(up.granted, oracle.process_request(req).granted);
}

TEST_F(ChaosRecovery, SerialsAndSigningIdentitySurviveRestarts) {
  auto cfg = recovery_config(dir_);
  crypto::ChaChaRng rng{std::uint64_t{99}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, recovery_sites(), model, rng};
  system.add_su(100);

  auto key_n = system.sdc().license_key().n();
  watch::SuRequest req{100, BlockId{4},
                       std::vector<double>(cfg.watch.channels, 1e-4)};

  std::set<std::uint64_t> serials;
  std::uint64_t last = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int i = 0; i < 5; ++i) {
      auto out = system.su_request(req);
      ASSERT_TRUE(out.completed()) << out.failure;
      ASSERT_TRUE(out.granted);
      EXPECT_GT(out.license.serial, last)
          << "strictly monotonic across crashes";
      last = out.license.serial;
      EXPECT_TRUE(serials.insert(out.license.serial).second)
          << "license serials must never repeat";
    }
    system.crash_sdc();
    system.restart_sdc();
    EXPECT_EQ(system.sdc().license_key().n(), key_n)
        << "the persisted RSA identity must survive the crash, so licenses "
           "issued before it stay verifiable";
  }
}

TEST_F(ChaosRecovery, WithoutDurabilityRestartResetsToInitialBudget) {
  // The durability=off contrast: a crash loses everything, the restarted
  // SDC is exactly a freshly-initialized one (Ñ = Ẽ), and re-sending the
  // PU updates resynchronizes it with the oracle.
  auto cfg = recovery_config(dir_);
  cfg.durability.enabled = false;
  cfg.durability.dir.clear();
  crypto::ChaChaRng rng{std::uint64_t{5}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, recovery_sites(), model, rng};
  watch::PlainWatch oracle{cfg.watch, recovery_sites(), model};
  system.add_su(100);

  system.pu_update(0, watch::PuTuning{ChannelId{1}, 3e-6});
  oracle.pu_update(0, watch::PuTuning{ChannelId{1}, 3e-6});

  system.crash_sdc();
  auto& sdc = system.restart_sdc();
  EXPECT_FALSE(sdc.state().recovery_stats().ran);
  SdcStateEngine fresh{cfg, system.stp().group_key(),
                       watch::make_e_matrix(cfg.watch)};
  EXPECT_EQ(sdc.encrypted_budget(), fresh.budget())
      << "no store, no memory: the budget is back to the E initialization";

  // Re-sending the tunings (the operator's manual resync) restores oracle
  // equivalence for subsequent decisions.
  system.pu_update(0, watch::PuTuning{ChannelId{1}, 3e-6});
  watch::SuRequest req{100, BlockId{3},
                       std::vector<double>(cfg.watch.channels, 25.0)};
  auto out = system.su_request(req);
  ASSERT_TRUE(out.completed()) << out.failure;
  EXPECT_EQ(out.granted, oracle.process_request(req).granted);
}

}  // namespace
}  // namespace pisa::core

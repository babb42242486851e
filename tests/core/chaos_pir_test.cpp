// §3.10 chaos: PIR under process death. A standalone replica killed while
// queries are in flight must surface as a typed kTransportFailed — never a
// hang, never a reconstruction from a partial reply set. A killed/restarted
// SDC must rebuild the co-located replica 0 from its WAL + snapshot into a
// byte-identical database (the XOR algebra breaks on any single differing
// bit between replicas, so byte-identity is the recovery acceptance bar).
#include "core/protocol.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "crypto/chacha_rng.hpp"
#include "radio/pathloss.hpp"
#include "watch/plain_watch.hpp"

namespace pisa::core {
namespace {

namespace fs = std::filesystem;
using radio::BlockId;
using radio::ChannelId;

PisaConfig chaos_pir_config(const fs::path& dir) {
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
  cfg.query_mode = QueryMode::kPir;
  cfg.pir.replicas = 2;
  cfg.durability.enabled = true;
  cfg.durability.dir = dir.string();
  cfg.durability.snapshot_every = 4;  // force mid-sweep pir0 compactions
  return cfg;
}

std::vector<watch::PuSite> chaos_sites() {
  return {{0, BlockId{0}}, {1, BlockId{5}}};
}

class ChaosPir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pisa_chaos_pir_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(ChaosPir, ReplicaDeathMidStreamYieldsTypedFailureNeverAHang) {
  auto cfg = chaos_pir_config(dir_);
  crypto::ChaChaRng rng{std::uint64_t{0xA1}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, chaos_sites(), model, rng};
  system.add_su(100);
  system.pu_update(0, watch::PuTuning{ChannelId{0}, 2e-6});

  watch::SuRequest req{100, BlockId{3}, std::vector<double>(2, 1e-4)};
  auto before = system.su_request(req);
  ASSERT_TRUE(before.completed());

  system.crash_pir_replica(1);
  auto during = system.su_request(req);
  EXPECT_FALSE(during.completed());
  EXPECT_EQ(during.status, PisaSystem::RequestOutcome::Status::kTransportFailed);
  EXPECT_NE(during.failure.find("1/2 PIR replies"), std::string::npos)
      << during.failure;
  EXPECT_FALSE(during.granted) << "a failed round must never look like a grant";

  // Kill is idempotent; the guarded indices throw instead of corrupting.
  system.crash_pir_replica(1);
  EXPECT_EQ(system.pir_replica(1), nullptr);
  EXPECT_THROW(system.crash_pir_replica(0), std::out_of_range);
  EXPECT_THROW(system.crash_pir_replica(2), std::out_of_range);
}

TEST_F(ChaosPir, SdcCrashRebuildsByteIdenticalReplicaZeroFromWalAndSnapshot) {
  auto cfg = chaos_pir_config(dir_);
  crypto::ChaChaRng rng{std::uint64_t{0xB2}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, chaos_sites(), model, rng};
  watch::PlainWatch oracle{cfg.watch, chaos_sites(), model};
  system.add_su(100);

  // Enough churn to roll the pir0 store through several snapshot + WAL-tail
  // states (snapshot_every = 4), via both full updates and §3.9 deltas.
  crypto::ChaChaRng scenario{std::uint64_t{0x5C}};
  for (int round = 0; round < 11; ++round) {
    std::uint32_t pu = round % 2;
    watch::PuTuning tuning;
    if (scenario.next_u64() % 4 != 0) {
      tuning.channel =
          ChannelId{static_cast<std::uint32_t>(scenario.next_u64() % 2)};
      tuning.signal_mw =
          1e-7 * static_cast<double>(scenario.next_u64() % 40 + 1);
    }
    if (round % 3 == 0) {
      system.pu_update(pu, tuning);
    } else {
      system.pu_delta(pu, tuning);
    }
    oracle.pu_update(pu, tuning);
  }

  auto* r0 = system.pir_replica(0);
  auto* r1 = system.pir_replica(1);
  ASSERT_NE(r0, nullptr);
  ASSERT_NE(r1, nullptr);
  auto bytes_before = r0->replica().database().bytes();
  auto version_before = r0->replica().version();
  ASSERT_EQ(bytes_before, r1->replica().database().bytes());
  ASSERT_GT(version_before, 0u);

  // Crash: replica 0's memory is gone with the SDC process; queries during
  // the outage are typed failures, not hangs or ℓ−1 reconstructions.
  system.crash_sdc();
  EXPECT_EQ(system.pir_replica(0), nullptr);
  watch::SuRequest req{100, BlockId{4}, std::vector<double>(2, 1e-4)};
  auto during = system.su_request(req);
  EXPECT_FALSE(during.completed());
  EXPECT_EQ(during.status, PisaSystem::RequestOutcome::Status::kTransportFailed);

  // Restart: recovery must reproduce the pre-crash database bit for bit and
  // the exact updates-applied counter (anything else poisons reconstruction
  // against the surviving replica).
  system.restart_sdc();
  r0 = system.pir_replica(0);
  ASSERT_NE(r0, nullptr);
  EXPECT_EQ(r0->replica().database().bytes(), bytes_before);
  EXPECT_EQ(r0->replica().version(), version_before);
  EXPECT_EQ(r0->replica().database().bytes(), r1->replica().database().bytes());

  // And the system keeps making oracle-exact decisions, including after
  // further post-recovery churn.
  for (std::uint32_t block = 0; block < 6; ++block) {
    watch::SuRequest probe{100, BlockId{block}, std::vector<double>(2, 100.0)};
    auto out = system.su_request(probe);
    ASSERT_TRUE(out.completed()) << out.failure;
    EXPECT_EQ(out.granted, oracle.process_request(probe).granted)
        << "block " << block;
  }
  system.pu_update(1, watch::PuTuning{ChannelId{1}, 9e-7});
  oracle.pu_update(1, watch::PuTuning{ChannelId{1}, 9e-7});
  auto after = system.su_request(req);
  ASSERT_TRUE(after.completed()) << after.failure;
  EXPECT_EQ(after.granted, oracle.process_request(req).granted);
  EXPECT_EQ(system.pir_replica(0)->replica().database().bytes(),
            r1->replica().database().bytes());
}

TEST_F(ChaosPir, RepeatedKillRestartCyclesStayByteIdentical) {
  auto cfg = chaos_pir_config(dir_);
  crypto::ChaChaRng rng{std::uint64_t{0xC3}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, chaos_sites(), model, rng};
  watch::PlainWatch oracle{cfg.watch, chaos_sites(), model};
  system.add_su(100);

  crypto::ChaChaRng scenario{std::uint64_t{0xD4}};
  for (int cycle = 0; cycle < 4; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    for (int i = 0; i < 3; ++i) {
      watch::PuTuning tuning;
      tuning.channel =
          ChannelId{static_cast<std::uint32_t>(scenario.next_u64() % 2)};
      tuning.signal_mw =
          1e-7 * static_cast<double>(scenario.next_u64() % 30 + 1);
      std::uint32_t pu = scenario.next_u64() % 2;
      system.pu_delta(pu, tuning);
      oracle.pu_update(pu, tuning);
    }
    system.crash_sdc();
    system.restart_sdc();
    auto* r0 = system.pir_replica(0);
    auto* r1 = system.pir_replica(1);
    ASSERT_NE(r0, nullptr);
    ASSERT_NE(r1, nullptr);
    ASSERT_EQ(r0->replica().database().bytes(),
              r1->replica().database().bytes());
    ASSERT_EQ(r0->replica().version(), r1->replica().version());

    auto block = static_cast<std::uint32_t>(scenario.next_u64() % 6);
    watch::SuRequest req{100, BlockId{block}, std::vector<double>(2, 100.0)};
    auto out = system.su_request(req);
    ASSERT_TRUE(out.completed()) << out.failure;
    EXPECT_EQ(out.granted, oracle.process_request(req).granted);
  }
}

}  // namespace
}  // namespace pisa::core

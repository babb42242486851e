// §3.8 prefilter under crash/recovery chaos (DESIGN.md §3.6): killing the
// SDC wipes the in-memory exhausted sets; recovery must rebuild them
// byte-identically from the journaled kRecExhaust records (or the snapshot
// that compacted them), so a restarted SDC keeps fast-denying exactly where
// the dead one did — and keeps every decision equal to the plaintext
// oracle.
#include "core/protocol.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/sdc_state.hpp"
#include "crypto/chacha_rng.hpp"
#include "radio/pathloss.hpp"
#include "watch/plain_watch.hpp"

namespace pisa::core {
namespace {

namespace fs = std::filesystem;
using radio::BlockId;
using radio::ChannelId;

// Same block-local-exhaustion geometry as denial_filter_test: d^c ≈ 527 m,
// blocks 1000 m apart.
PisaConfig chaos_filter_config(const fs::path& dir,
                               std::uint64_t snapshot_every) {
  PisaConfig cfg;
  cfg.watch.grid_rows = 1;
  cfg.watch.grid_cols = 4;
  cfg.watch.block_size_m = 1000.0;
  cfg.watch.channels = 2;
  cfg.watch.pu_min_signal_dbm = -40.0;
  cfg.watch.su_max_eirp_dbm = 20.0;
  cfg.paillier_bits = 512;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  cfg.denial_filter.enabled = true;
  cfg.durability.enabled = true;
  cfg.durability.dir = dir.string();
  cfg.durability.snapshot_every = snapshot_every;
  cfg.durability.serial_reserve = 4;
  return cfg;
}

std::vector<watch::PuSite> chaos_sites() {
  return {{0, BlockId{0}}, {1, BlockId{0}}, {2, BlockId{0}}, {3, BlockId{2}}};
}

class ChaosFilterRecovery : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pisa_chaos_filter_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void run_kill_restart_sweep(std::uint64_t snapshot_every) {
    auto cfg = chaos_filter_config(dir_, snapshot_every);
    crypto::ChaChaRng rng{std::uint64_t{404}};
    radio::ExtendedHataModel model{600.0, 30.0, 10.0};
    PisaSystem system{cfg, chaos_sites(), model, rng};
    watch::PlainWatch oracle{cfg.watch, chaos_sites(), model};
    system.add_su(100);

    // Exhaust block 0 and let the probe round confirm it.
    for (std::uint32_t pu : {0u, 1u, 2u}) {
      system.pu_update(pu, watch::PuTuning{ChannelId{0}, 1e-6});
      oracle.pu_update(pu, watch::PuTuning{ChannelId{0}, 1e-6});
    }
    ASSERT_GT(system.sdc().state().exhausted_entries(), 0u);
    auto filter_before = system.sdc().state().exhausted_state_bytes();

    auto deny = watch::SuRequest{
        100, BlockId{0}, std::vector<double>(cfg.watch.channels, 1e-4)};
    auto grant = watch::SuRequest{
        100, BlockId{3}, std::vector<double>(cfg.watch.channels, 1e-4)};
    auto pre = system.su_request(deny, std::make_pair(0u, 1u));
    ASSERT_FALSE(pre.granted);
    ASSERT_TRUE(pre.fast_denied);

    // Kill: every in-memory byte of the exhausted sets is gone.
    system.crash_sdc();
    auto& revived = system.restart_sdc();

    // Recovery rebuilt the exhausted sets byte-identically from the WAL
    // and the snapshot.
    EXPECT_EQ(revived.state().exhausted_state_bytes(), filter_before);
    EXPECT_GT(revived.state().exhausted_entries(), 0u);

    // And it still fast-denies without any fresh probe round.
    std::uint64_t probes_before = revived.stats().probes_sent;
    auto post = system.su_request(deny, std::make_pair(0u, 1u));
    EXPECT_FALSE(post.granted);
    EXPECT_TRUE(post.fast_denied);
    EXPECT_EQ(revived.stats().probes_sent, probes_before);
    EXPECT_FALSE(oracle.process_request(deny).granted);

    // The clean block still grants (no over-recovery of exhaustion).
    auto granted = system.su_request(grant, std::make_pair(3u, 4u));
    EXPECT_TRUE(granted.granted);
    EXPECT_FALSE(granted.fast_denied);

    // Un-exhaust after recovery, crash again, recover again: the departure
    // diff must also survive, so the twice-revived SDC grants at block 0.
    for (std::uint32_t pu : {0u, 1u, 2u}) {
      system.pu_update(pu, watch::PuTuning{});
      oracle.pu_update(pu, watch::PuTuning{});
    }
    EXPECT_EQ(system.sdc().state().exhausted_entries(), 0u);
    system.crash_sdc();
    auto& revived2 = system.restart_sdc();
    EXPECT_EQ(revived2.state().exhausted_entries(), 0u);
    auto regrant = system.su_request(deny, std::make_pair(0u, 1u));
    EXPECT_TRUE(regrant.granted);
    EXPECT_FALSE(regrant.fast_denied);
    EXPECT_TRUE(oracle.process_request(deny).granted);
  }

  fs::path dir_;
};

TEST_F(ChaosFilterRecovery, WalReplayRebuildsFilterByteIdentically) {
  // Huge snapshot_every: no compaction fires, recovery exercises the pure
  // WAL-replay path for the kRecExhaust records.
  run_kill_restart_sweep(/*snapshot_every=*/100000);
}

TEST_F(ChaosFilterRecovery, SnapshotPathRebuildsFilterByteIdentically) {
  // Tiny snapshot_every: the exhausted sets ride the sealed snapshot and
  // recovery restores the exhausted map from it directly.
  run_kill_restart_sweep(/*snapshot_every=*/2);
}

TEST_F(ChaosFilterRecovery, RestartWithFilterToggledOffIsRefused) {
  // The durable state encodes whether the filter was on; rebooting the SDC
  // against the same directory with denial_filter off must fail loudly
  // (snapshot flag mismatch) rather than silently dropping exhaustion
  // tracking — but only once a snapshot actually recorded the filter state.
  auto cfg = chaos_filter_config(dir_, /*snapshot_every=*/2);
  crypto::ChaChaRng rng{std::uint64_t{405}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  {
    PisaSystem system{cfg, chaos_sites(), model, rng};
    for (std::uint32_t pu : {0u, 1u, 2u})
      system.pu_update(pu, watch::PuTuning{ChannelId{0}, 1e-6});
    system.sdc().checkpoint();
  }
  auto off_cfg = cfg;
  off_cfg.denial_filter.enabled = false;
  crypto::ChaChaRng rng2{std::uint64_t{406}};
  EXPECT_THROW((PisaSystem{off_cfg, chaos_sites(), model, rng2}),
               std::runtime_error);
}

}  // namespace
}  // namespace pisa::core

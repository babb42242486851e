// §3.9 scenario-engine equivalence (the tentpole acceptance oracle, sim
// transport): a seeded 200-tick schedule of SU mobility, TV-channel churn,
// PU moves/toggles, license expiry and revocation — including a mid-schedule
// SDC kill + WAL recovery — must produce byte-identical per-tick outcomes
// (grant tuples with serials, denials, fast denials, and the engine's exact
// exhausted-cell sets) whether PU tunings travel as full W̃ columns or as
// §3.9 incremental deltas. Runs across pack_slots ∈ {1, 4}; the TCP variant
// lives in tests/net/tcp_scenario_test.cpp.
#include "core/scenario_engine.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "crypto/chacha_rng.hpp"
#include "radio/pathloss.hpp"

namespace pisa::core {
namespace {

namespace fs = std::filesystem;
using radio::BlockId;

PisaConfig scenario_config(std::size_t pack_slots, const std::string& dir) {
  PisaConfig cfg;
  cfg.watch.grid_rows = 2;
  cfg.watch.grid_cols = 4;
  cfg.watch.block_size_m = 400.0;
  cfg.watch.channels = 2;
  cfg.paillier_bits = 512;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 16;
  cfg.mr_rounds = 6;
  cfg.pack_slots = pack_slots;
  cfg.durability.enabled = true;
  cfg.durability.dir = dir;
  cfg.denial_filter.enabled = true;
  return cfg;
}

std::vector<watch::PuSite> scenario_sites() {
  return {{0, BlockId{0}}, {1, BlockId{3}}, {2, BlockId{5}}};
}

ScenarioConfig scenario_schedule(bool use_delta) {
  ScenarioConfig sc;
  sc.ticks = 200;
  sc.num_sus = 2;
  sc.seed = 0x5CEA;
  sc.p_churn = 0.5;
  sc.p_pu_move = 0.3;
  sc.p_toggle = 0.2;
  sc.p_revoke = 0.1;
  sc.license_ttl_ticks = 6;
  sc.request_range_blocks = 2;
  sc.use_delta = use_delta;
  sc.crash_at_tick = 80;
  sc.restart_at_tick = 120;
  return sc;
}

class ScenarioEquivalence
    : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pisa_scenario_" + std::to_string(::getpid()) + "_pack" +
            std::to_string(GetParam()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ScenarioResult run_schedule(bool use_delta) {
    const auto store = (dir_ / (use_delta ? "delta" : "full")).string();
    auto cfg = scenario_config(GetParam(), store);
    radio::ExtendedHataModel model{600.0, 30.0, 10.0};
    auto sites = scenario_sites();
    // Identically-seeded world per run: the two paths must diverge in
    // *nothing* but the update-message shape.
    crypto::ChaChaRng rng{std::uint64_t{0xD15C0}};
    PisaSystem sys{cfg, sites, model, rng};
    auto sc = scenario_schedule(use_delta);
    for (std::uint32_t id = 0; id < sc.num_sus; ++id) sys.add_su(id);

    SimScenarioDriver driver{sys};
    ScenarioEngine engine{cfg, sites, model, sc, driver};
    return engine.run();
  }

  fs::path dir_;
};

TEST_P(ScenarioEquivalence, DeltaPathMatchesFullRebuildTickForTick) {
  auto full = run_schedule(/*use_delta=*/false);
  auto delta = run_schedule(/*use_delta=*/true);

  ASSERT_EQ(full.ticks.size(), delta.ticks.size());
  for (std::size_t t = 0; t < full.ticks.size(); ++t) {
    SCOPED_TRACE("tick " + std::to_string(t));
    EXPECT_EQ(delta.ticks[t], full.ticks[t])
        << "grants/denials/serials/exhausted sets must be byte-identical";
  }

  // The schedule actually exercised the dynamics it claims to cover.
  EXPECT_GT(full.pu_events, 0u);
  EXPECT_GT(full.grants, 0u) << "some SU must win a license";
  EXPECT_GT(full.denials, 0u) << "some request must collide with a PU";
  EXPECT_EQ(full.grants, delta.grants);
  EXPECT_EQ(full.denials, delta.denials);
  EXPECT_EQ(full.fast_denials, delta.fast_denials);
  EXPECT_EQ(full.oracle_mismatches, 0u) << "every decision equals WATCH";
  EXPECT_EQ(delta.oracle_mismatches, 0u) << "every decision equals WATCH";
  EXPECT_EQ(full.transport_failures, 0u);
  EXPECT_EQ(delta.transport_failures, 0u);

  // The crash window really went dark and recovery really resumed.
  auto sc = scenario_schedule(false);
  EXPECT_FALSE(full.ticks[*sc.crash_at_tick].sdc_up);
  EXPECT_TRUE(full.ticks[*sc.restart_at_tick].sdc_up);
  EXPECT_TRUE(full.ticks[*sc.crash_at_tick - 1].sdc_up);

  // The incremental path earned its keep: deltas were folded cell-wise and
  // the full path pushed at least as many update messages.
  EXPECT_GT(delta.delta_cells, 0u);
  EXPECT_EQ(full.delta_cells, 0u);
  EXPECT_GE(full.updates_sent, delta.updates_sent)
      << "the delta path may skip no-op sends, never add extras";
  EXPECT_GT(full.wal_bytes, 0u);
  EXPECT_GT(delta.wal_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(PackLayouts, ScenarioEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const auto& info) {
                           return "pack" + std::to_string(info.param);
                         });

// Viewing schedules on a plain deployment (no WAL or prefilter):
// receivers retune and power-cycle, SUs drive and re-request, and every
// decision must equal the plaintext WATCH oracle's.
PisaConfig viewing_config() {
  PisaConfig cfg;
  cfg.watch.grid_rows = 2;
  cfg.watch.grid_cols = 3;
  cfg.watch.block_size_m = 500.0;
  cfg.watch.channels = 2;
  cfg.paillier_bits = 768;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  return cfg;
}

ScenarioResult run_viewing(const PisaConfig& cfg,
                           const std::vector<watch::PuSite>& sites,
                           std::uint64_t key_seed, const ScenarioConfig& sc) {
  crypto::ChaChaRng rng{key_seed};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem sys{cfg, sites, model, rng};
  for (std::uint32_t id = 0; id < sc.num_sus; ++id) sys.add_su(id);
  SimScenarioDriver driver{sys};
  return ScenarioEngine{cfg, sites, model, sc, driver}.run();
}

TEST(ViewingWorkload, ThresholdModeWholeScheduleAgreesWithOracle) {
  // The §VII threshold-STP extension over a whole schedule: partial
  // decryptions per entry, the async key directory, the lot.
  PisaConfig cfg = viewing_config();
  cfg.threshold_stp = true;
  ScenarioConfig sc;
  sc.ticks = 30;
  sc.num_sus = 1;
  sc.seed = 99;
  sc.p_pu_move = 0;
  sc.p_revoke = 0;
  sc.license_ttl_ticks = 5;
  auto res = run_viewing(cfg, {{0, BlockId{0}}}, 0x7512, sc);
  EXPECT_GT(res.requests, 0u);
  EXPECT_EQ(res.transport_failures, 0u);
  EXPECT_EQ(res.oracle_mismatches, 0u);
}

TEST(ViewingWorkload, EndToEndMiniDay) {
  // Two receivers and two SUs with every dynamic on, moves included.
  ScenarioConfig sc;
  sc.ticks = 40;
  sc.num_sus = 2;
  sc.seed = 42;
  sc.license_ttl_ticks = 5;
  auto res = run_viewing(viewing_config(), {{0, BlockId{0}}, {1, BlockId{5}}},
                         0xDA4, sc);
  EXPECT_GT(res.grants, 0u);
  EXPECT_GT(res.denials, 0u);
  EXPECT_EQ(res.transport_failures, 0u);
  EXPECT_EQ(res.oracle_mismatches, 0u);
}

TEST(ScenarioEngineConfig, RejectsDegenerateSchedules) {
  auto cfg = scenario_config(1, "/tmp/unused");
  cfg.durability.enabled = false;
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  crypto::ChaChaRng rng{std::uint64_t{1}};
  PisaSystem sys{cfg, scenario_sites(), model, rng};
  SimScenarioDriver driver{sys};

  auto no_ticks = scenario_schedule(false);
  no_ticks.ticks = 0;
  const auto sites = scenario_sites();
  EXPECT_THROW(ScenarioEngine(cfg, sites, model, no_ticks, driver),
               std::invalid_argument);

  auto bad_chaos = scenario_schedule(false);
  bad_chaos.crash_at_tick = 50;
  bad_chaos.restart_at_tick = 50;
  EXPECT_THROW(ScenarioEngine(cfg, sites, model, bad_chaos, driver),
               std::invalid_argument);

  auto bad_signal = scenario_schedule(false);
  bad_signal.signal_mw_lo = 0.0;
  EXPECT_THROW(ScenarioEngine(cfg, sites, model, bad_signal, driver),
               std::invalid_argument);

  EXPECT_THROW(
      ScenarioEngine(cfg, {}, model, scenario_schedule(false), driver),
      std::invalid_argument);
}

}  // namespace
}  // namespace pisa::core

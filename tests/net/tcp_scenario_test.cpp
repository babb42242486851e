// §3.9 scenario-engine equivalence over real sockets: the same seeded
// 200-tick dynamic-spectrum schedule as tests/core/scenario_engine_test.cpp,
// but driven through an RpcServer/RpcClient pair via TcpScenarioDriver —
// including the mid-schedule SDC kill + WAL recovery. Delta and full-column
// runs must produce byte-identical per-tick outcomes here too: the socket
// path adds framing, a dispatch thread and reconnect machinery, none of
// which may perturb a single decision, serial or exhausted-cell set. And
// the same schedule run once over the simulated network and once over the
// sockets must decide identically at every tick.
#include "net/rpc_scenario.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "crypto/chacha_rng.hpp"
#include "radio/pathloss.hpp"

namespace pisa::rpc {
namespace {

namespace fs = std::filesystem;
using radio::BlockId;

core::PisaConfig scenario_config(std::size_t pack_slots,
                                 const std::string& dir) {
  core::PisaConfig cfg;
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

core::ScenarioConfig scenario_schedule(bool use_delta) {
  core::ScenarioConfig sc;
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

class TcpScenarioEquivalence
    : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pisa_tcp_scenario_" + std::to_string(::getpid()) + "_pack" +
            std::to_string(GetParam()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  core::ScenarioResult run_schedule(bool use_delta) {
    const auto store = (dir_ / (use_delta ? "delta" : "full")).string();
    auto cfg = scenario_config(GetParam(), store);
    radio::ExtendedHataModel model{600.0, 30.0, 10.0};
    auto sites = scenario_sites();
    auto sc = scenario_schedule(use_delta);

    // Server and client each get their own seeded rng, re-seeded per run so
    // the two paths see identical keys, identical SU request randomness and
    // identical per-entity streams.
    crypto::ChaChaRng server_rng{std::uint64_t{0x7C9}};
    RpcServer server{cfg, server_rng};
    crypto::ChaChaRng client_rng{std::uint64_t{0xC11E}};
    RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(),
                     client_rng};
    for (const auto& site : sites) client.add_pu(site);
    for (std::uint32_t id = 0; id < sc.num_sus; ++id) client.add_su(id);

    TcpScenarioDriver driver{server, client, cfg, sites, model};
    core::ScenarioEngine engine{cfg, sites, model, sc, driver};
    return engine.run();
  }

  /// The same schedule on the simulated network: one rng, drawn in the
  /// order the socket pair below draws it (infrastructure, PUs, SUs).
  core::ScenarioResult run_simulated(bool use_delta) {
    auto cfg = scenario_config(GetParam(), (dir_ / "sim").string());
    radio::ExtendedHataModel model{600.0, 30.0, 10.0};
    auto sites = scenario_sites();
    auto sc = scenario_schedule(use_delta);

    crypto::ChaChaRng rng{std::uint64_t{0x7C9}};
    core::PisaSystem sys{cfg, sites, model, rng};
    for (std::uint32_t id = 0; id < sc.num_sus; ++id) sys.add_su(id);
    core::SimScenarioDriver driver{sys};
    core::ScenarioEngine engine{cfg, sites, model, sc, driver};
    return engine.run();
  }

  /// The socket pair sharing that one rng between server and client, as
  /// TcpVsSimulated does.
  core::ScenarioResult run_socket_shared_rng(bool use_delta) {
    auto cfg = scenario_config(GetParam(), (dir_ / "tcp").string());
    radio::ExtendedHataModel model{600.0, 30.0, 10.0};
    auto sites = scenario_sites();
    auto sc = scenario_schedule(use_delta);

    crypto::ChaChaRng rng{std::uint64_t{0x7C9}};
    RpcServer server{cfg, rng};
    RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(), rng};
    for (const auto& site : sites) client.add_pu(site);
    for (std::uint32_t id = 0; id < sc.num_sus; ++id) client.add_su(id);
    TcpScenarioDriver driver{server, client, cfg, sites, model};
    core::ScenarioEngine engine{cfg, sites, model, sc, driver};
    return engine.run();
  }

  fs::path dir_;
};

TEST_P(TcpScenarioEquivalence, DeltaPathMatchesFullRebuildTickForTick) {
  auto full = run_schedule(/*use_delta=*/false);
  auto delta = run_schedule(/*use_delta=*/true);

  ASSERT_EQ(full.ticks.size(), delta.ticks.size());
  for (std::size_t t = 0; t < full.ticks.size(); ++t) {
    SCOPED_TRACE("tick " + std::to_string(t));
    EXPECT_EQ(delta.ticks[t], full.ticks[t])
        << "socket transport must not perturb a single decision";
  }

  EXPECT_GT(full.grants, 0u);
  EXPECT_GT(full.denials, 0u);
  EXPECT_EQ(full.oracle_mismatches, 0u) << "every decision equals WATCH";
  EXPECT_EQ(delta.oracle_mismatches, 0u) << "every decision equals WATCH";
  EXPECT_EQ(full.transport_failures, 0u);
  EXPECT_EQ(delta.transport_failures, 0u);
  EXPECT_GT(delta.delta_cells, 0u);
  EXPECT_GE(full.updates_sent, delta.updates_sent);

  auto sc = scenario_schedule(false);
  EXPECT_FALSE(full.ticks[*sc.crash_at_tick].sdc_up);
  EXPECT_TRUE(full.ticks[*sc.restart_at_tick].sdc_up);
}

TEST_P(TcpScenarioEquivalence, SimulatedAndSocketTransportsDecideTickForTick) {
  // One client side under both transports: every grant and its serial,
  // every (fast) denial and every exhausted-cell set must match, through
  // the SDC kill at tick 80 and the WAL recovery at tick 120.
  auto sim = run_simulated(/*use_delta=*/true);
  auto tcp = run_socket_shared_rng(/*use_delta=*/true);

  ASSERT_EQ(sim.ticks.size(), tcp.ticks.size());
  for (std::size_t t = 0; t < sim.ticks.size(); ++t) {
    SCOPED_TRACE("tick " + std::to_string(t));
    EXPECT_EQ(tcp.ticks[t], sim.ticks[t])
        << "the transport must not perturb a single decision";
  }
  EXPECT_GT(sim.grants, 0u);
  EXPECT_GT(sim.denials, 0u);
  EXPECT_EQ(sim.oracle_mismatches, 0u);
  EXPECT_EQ(tcp.oracle_mismatches, 0u);
  EXPECT_EQ(sim.transport_failures, 0u);
  EXPECT_EQ(tcp.transport_failures, 0u);

  auto sc = scenario_schedule(true);
  EXPECT_FALSE(tcp.ticks[*sc.crash_at_tick].sdc_up);
  EXPECT_TRUE(tcp.ticks[*sc.restart_at_tick].sdc_up);
}

INSTANTIATE_TEST_SUITE_P(PackLayouts, TcpScenarioEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const auto& info) {
                           return "pack" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pisa::rpc

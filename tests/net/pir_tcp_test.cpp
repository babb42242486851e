// §3.10 over real sockets: the XOR-PIR query path through RpcServer /
// RpcClient must reach the same decisions as the PlainWatch oracle and the
// Paillier pipeline riding the very same connection, across slot packings;
// replica version counters must stay in lockstep under the pinned-seq
// re-send discipline; and a killed replica must surface as a typed timeout,
// never a hang or a bogus reconstruction.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "crypto/chacha_rng.hpp"
#include "net/rpc_server.hpp"
#include "radio/pathloss.hpp"
#include "watch/plain_watch.hpp"

namespace pisa::rpc {
namespace {

using radio::BlockId;
using radio::ChannelId;

core::PisaConfig pir_tcp_config(std::size_t pack_slots) {
  core::PisaConfig cfg;
  cfg.watch.grid_rows = 2;
  cfg.watch.grid_cols = 3;
  cfg.watch.block_size_m = 500.0;
  cfg.watch.channels = 3;
  cfg.paillier_bits = 512;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 16;
  cfg.mr_rounds = 6;
  cfg.pack_slots = pack_slots;
  cfg.query_mode = core::QueryMode::kPir;
  cfg.pir.replicas = 2;
  return cfg;
}

std::vector<watch::PuSite> test_sites() {
  return {{0, BlockId{0}}, {1, BlockId{5}}};
}

class PirTcpEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PirTcpEquivalence, SocketPirMatchesOracleAndPaillierOnOneConnection) {
  const std::size_t k = GetParam();
  auto cfg = pir_tcp_config(k);
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};

  crypto::ChaChaRng server_rng{std::uint64_t{0x51}};
  RpcServer server{cfg, server_rng};
  crypto::ChaChaRng client_rng{std::uint64_t{0x52}};
  RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(),
                   client_rng};
  watch::PlainWatch oracle{cfg.watch, test_sites(), model};
  for (const auto& site : test_sites()) client.add_pu(site);
  client.add_su(100);

  crypto::ChaChaRng scenario_rng{std::uint64_t{k + 90}};
  int grants = 0, denies = 0;
  for (int round = 0; round < 6; ++round) {
    for (std::uint32_t pu = 0; pu < 2; ++pu) {
      watch::PuTuning tuning;
      if (scenario_rng.next_u64() % 3 != 0) {
        tuning.channel = ChannelId{
            static_cast<std::uint32_t>(scenario_rng.next_u64() % 3)};
        tuning.signal_mw =
            1e-7 * static_cast<double>(scenario_rng.next_u64() % 50 + 1);
      }
      client.pu_update(pu, tuning);
      oracle.pu_update(pu, tuning);
    }
    auto block = static_cast<std::uint32_t>(scenario_rng.next_u64() % 6);
    double mw = (scenario_rng.next_u64() % 2) ? 100.0 : 1e-4;
    watch::SuRequest req{100, BlockId{block}, std::vector<double>(3, mw)};
    bool expected = oracle.process_request(req).granted;
    auto f = oracle.build_request_matrix(req);

    auto pir_out = client.pir_request(100, f, 0, 6, /*timeout_ms=*/60000);
    ASSERT_TRUE(pir_out.completed) << pir_out.failure;
    EXPECT_EQ(pir_out.granted, expected) << "k=" << k << " round " << round;
    EXPECT_GT(pir_out.query_bytes, 0u);
    EXPECT_GT(pir_out.reply_bytes, 0u);

    // The Paillier pipeline shares the connection; it must agree too.
    auto prepared = client.prepare_request(100, f);
    client.submit(prepared);
    core::SuResponseMsg resp;
    ASSERT_TRUE(client.wait_response(prepared.request_id, &resp, 60000));
    auto outcome = client.su(100).process_response(resp, server.license_key());
    EXPECT_EQ(outcome.granted, expected) << "k=" << k << " round " << round;
    (expected ? grants : denies)++;
  }
  EXPECT_GT(grants, 0) << "sweep must exercise the grant path";
  EXPECT_GT(denies, 0) << "sweep must exercise the deny path";
}

INSTANTIATE_TEST_SUITE_P(PackLayouts, PirTcpEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const auto& info) {
                           return "pack" + std::to_string(info.param);
                         });

TEST(PirTcp, ReplicaVersionsStayInLockstepUnderDuplicatedFrames) {
  auto cfg = pir_tcp_config(1);
  crypto::ChaChaRng server_rng{std::uint64_t{0x61}};
  RpcServer server{cfg, server_rng};
  crypto::ChaChaRng client_rng{std::uint64_t{0x62}};
  RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(),
                   client_rng};
  for (const auto& site : test_sites()) client.add_pu(site);
  client.add_su(100);

  client.pu_update(0, watch::PuTuning{ChannelId{1}, 2e-6});
  client.pu_delta(1, watch::PuTuning{ChannelId{0}, 3e-6});

  // A pinned-seq column frame delivered twice (the retry path after a
  // connection reset) must fold exactly once per replica, or the version
  // counters would drift apart and poison every later reconstruction.
  pir::PirUpdateMsg dup;
  dup.pu_id = 0;
  dup.block = 0;
  dup.w_column = {11, 0, -4};
  for (std::size_t i = 0; i < cfg.pir.replicas; ++i) {
    for (int copy = 0; copy < 2; ++copy) {
      net::Message m;
      m.from = "pu_0";
      m.to = pir::replica_name(i);
      m.type = pir::kMsgPirUpdate;
      m.payload = dup.encode();
      m.net_seq = 9999;  // same pinned seq both times
      client.transport().send(std::move(m));
    }
  }
  // FIFO on the one connection: the probe query drains behind the updates.
  auto f = watch::QMatrix{3, 6};
  auto probe = client.pir_request(100, f, 0, 6, 60000);
  ASSERT_TRUE(probe.completed) << probe.failure;

  auto* r0 = server.pir_replica(0);
  auto* r1 = server.pir_replica(1);
  ASSERT_NE(r0, nullptr);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r0->replica().version(), r1->replica().version());
  EXPECT_EQ(r0->replica().database().bytes(),
            r1->replica().database().bytes());
  EXPECT_EQ(r0->replica().version(), 3u) << "dup frames must not re-apply";
}

TEST(PirTcp, KilledReplicaYieldsTypedTimeoutNotHangOrGarbage) {
  auto cfg = pir_tcp_config(1);
  crypto::ChaChaRng server_rng{std::uint64_t{0x71}};
  RpcServer server{cfg, server_rng};
  crypto::ChaChaRng client_rng{std::uint64_t{0x72}};
  RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(),
                   client_rng};
  for (const auto& site : test_sites()) client.add_pu(site);
  client.add_su(100);

  server.crash_pir_replica(1);
  auto f = watch::QMatrix{3, 6};
  auto out = client.pir_request(100, f, 0, 6, /*timeout_ms=*/400);
  EXPECT_FALSE(out.completed);
  EXPECT_NE(out.failure.find("/2 PIR replies"), std::string::npos)
      << out.failure;

  // Idempotent double-kill, and replica 0 still answers its half (so the
  // failure above really was the missing standalone replica).
  server.crash_pir_replica(1);
  EXPECT_EQ(server.pir_replica(1), nullptr);
  EXPECT_NE(server.pir_replica(0), nullptr);
  EXPECT_THROW(server.crash_pir_replica(0), std::out_of_range);
}

TEST(PirTcp, OverflowingInterferenceThrowsLikeTheOracle) {
  // F·X wider than int64 is a configuration fault, not a delivery failure:
  // the socket path must fail as loudly as the simulated PIR path and
  // PlainSdc do, never report it as an incomplete request.
  auto cfg = pir_tcp_config(1);
  crypto::ChaChaRng server_rng{std::uint64_t{0x81}};
  RpcServer server{cfg, server_rng};
  crypto::ChaChaRng client_rng{std::uint64_t{0x82}};
  RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(),
                   client_rng};
  for (const auto& site : test_sites()) client.add_pu(site);
  client.add_su(100);

  auto f = watch::QMatrix{3, 6};
  f.at(ChannelId{0}, BlockId{0}) = std::numeric_limits<std::int64_t>::max() / 2;
  EXPECT_THROW(client.pir_request(100, f, 0, 6, /*timeout_ms=*/60000),
               std::overflow_error);
}

}  // namespace
}  // namespace pisa::rpc

// §3.10 acceptance: the PIR query path must be decision-bit-identical to
// the Paillier pipeline (and hence the PlainWatch oracle) over the simulated
// network, across slot-packing configurations, replica counts, range
// restrictions and the §3.9 incremental update path — while moving an order
// of magnitude fewer wire bytes per query.
#include <gtest/gtest.h>

#include "core/client_session.hpp"
#include "core/protocol.hpp"
#include "crypto/chacha_rng.hpp"
#include "crypto/paillier.hpp"
#include "pir/pir_replica.hpp"
#include "radio/pathloss.hpp"
#include "watch/plain_watch.hpp"

namespace pisa::core {
namespace {

using radio::BlockId;
using radio::ChannelId;

PisaConfig base_config(std::size_t pack_slots) {
  PisaConfig cfg;
  cfg.watch.grid_rows = 2;
  cfg.watch.grid_cols = 3;
  cfg.watch.block_size_m = 500.0;
  cfg.watch.channels = 3;
  cfg.paillier_bits = 768;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  cfg.pack_slots = pack_slots;
  return cfg;
}

PisaConfig pir_config(std::size_t pack_slots, std::size_t replicas = 2) {
  PisaConfig cfg = base_config(pack_slots);
  cfg.query_mode = QueryMode::kPir;
  cfg.pir.replicas = replicas;
  return cfg;
}

std::vector<watch::PuSite> test_sites() {
  return {{0, BlockId{0}}, {1, BlockId{5}}};
}

class PirEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PirEquivalence, RandomScenarioSweepMatchesPaillierAndOracle) {
  const std::size_t k = GetParam();
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  crypto::ChaChaRng rng_enc{std::uint64_t{2024}};
  crypto::ChaChaRng rng_pir{std::uint64_t{2024}};
  PisaSystem encrypted{base_config(k), test_sites(), model, rng_enc};
  PisaSystem pirsys{pir_config(k), test_sites(), model, rng_pir};
  watch::PlainWatch oracle{base_config(k).watch, test_sites(), model};
  encrypted.add_su(100);
  pirsys.add_su(100);

  crypto::ChaChaRng scenario_rng{std::uint64_t{k + 40}};
  int grants = 0, denies = 0;
  for (int round = 0; round < 8; ++round) {
    for (std::uint32_t pu = 0; pu < 2; ++pu) {
      watch::PuTuning tuning;
      if (scenario_rng.next_u64() % 3 != 0) {
        tuning.channel = ChannelId{
            static_cast<std::uint32_t>(scenario_rng.next_u64() % 3)};
        tuning.signal_mw =
            1e-7 * static_cast<double>(scenario_rng.next_u64() % 50 + 1);
      }
      encrypted.pu_update(pu, tuning);
      pirsys.pu_update(pu, tuning);
      oracle.pu_update(pu, tuning);
    }
    auto block = static_cast<std::uint32_t>(scenario_rng.next_u64() % 6);
    double mw = (scenario_rng.next_u64() % 2) ? 100.0 : 1e-4;
    watch::SuRequest req{100, BlockId{block}, std::vector<double>(3, mw)};
    bool expected = oracle.process_request(req).granted;
    auto enc_out = encrypted.su_request(req);
    auto pir_out = pirsys.su_request(req);
    ASSERT_TRUE(enc_out.completed());
    ASSERT_TRUE(pir_out.completed());
    EXPECT_EQ(enc_out.granted, expected)
        << "Paillier diverged: k=" << k << " round " << round;
    EXPECT_EQ(pir_out.granted, expected)
        << "PIR diverged: k=" << k << " round " << round;
    (expected ? grants : denies)++;
  }
  EXPECT_GT(grants, 0) << "sweep must exercise the grant path";
  EXPECT_GT(denies, 0) << "sweep must exercise the deny path";
}

INSTANTIATE_TEST_SUITE_P(PackSlots, PirEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

TEST(PirProtocol, RangeRestrictedQueryMatchesFullFetch) {
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  crypto::ChaChaRng rng{std::uint64_t{7}};
  PisaSystem system{pir_config(1), test_sites(), model, rng};
  system.add_su(100);
  system.pu_update(1, watch::PuTuning{ChannelId{1}, 1e-6});
  watch::SuRequest req{100, BlockId{4}, std::vector<double>(3, 100.0)};
  auto full = system.su_request(req);
  auto ranged = system.su_request(req, std::make_pair(0u, 6u));
  ASSERT_TRUE(full.completed());
  ASSERT_TRUE(ranged.completed());
  EXPECT_EQ(full.granted, ranged.granted);
  // A range that hides a block with non-zero interference must be refused,
  // mirroring the Paillier path's client-side rejection.
  EXPECT_THROW(system.su_request(req, std::make_pair(1u, 6u)),
               std::invalid_argument);
}

TEST(PirProtocol, ThreeReplicaDeploymentStaysCorrect) {
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  crypto::ChaChaRng rng{std::uint64_t{11}};
  PisaSystem system{pir_config(1, 3), test_sites(), model, rng};
  watch::PlainWatch oracle{base_config(1).watch, test_sites(), model};
  system.add_su(100);
  system.pu_update(0, watch::PuTuning{ChannelId{0}, 5e-6});
  oracle.pu_update(0, watch::PuTuning{ChannelId{0}, 5e-6});
  for (std::uint32_t block = 0; block < 6; ++block) {
    watch::SuRequest req{100, BlockId{block}, std::vector<double>(3, 50.0)};
    auto out = system.su_request(req);
    ASSERT_TRUE(out.completed());
    EXPECT_EQ(out.granted, oracle.process_request(req).granted)
        << "block " << block;
  }
}

TEST(PirProtocol, IncrementalDeltaPathKeepsReplicasInLockstep) {
  // §3.9 deltas and full updates must land identically on every replica:
  // drive moves/retunes through pu_delta and compare against the oracle.
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  crypto::ChaChaRng rng{std::uint64_t{13}};
  PisaSystem system{pir_config(1), test_sites(), model, rng};
  watch::PlainWatch oracle{base_config(1).watch, test_sites(), model};
  system.add_su(100);

  system.pu_update(0, watch::PuTuning{ChannelId{2}, 3e-6});
  oracle.pu_update(0, watch::PuTuning{ChannelId{2}, 3e-6});
  EXPECT_TRUE(system.pu_delta(0, watch::PuTuning{ChannelId{1}, 4e-6}));
  oracle.pu_update(0, watch::PuTuning{ChannelId{1}, 4e-6});
  // An identical re-tune is a no-op on the delta path; replicas must not
  // drift apart in version (which would poison reconstruction).
  EXPECT_FALSE(system.pu_delta(0, watch::PuTuning{ChannelId{1}, 4e-6}));

  auto* r0 = system.pir_replica(0);
  auto* r1 = system.pir_replica(1);
  ASSERT_NE(r0, nullptr);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r0->replica().version(), r1->replica().version());
  EXPECT_EQ(r0->replica().database().bytes(), r1->replica().database().bytes());

  for (std::uint32_t block = 0; block < 6; ++block) {
    watch::SuRequest req{100, BlockId{block}, std::vector<double>(3, 100.0)};
    auto out = system.su_request(req);
    ASSERT_TRUE(out.completed());
    EXPECT_EQ(out.granted, oracle.process_request(req).granted)
        << "block " << block;
  }
}

TEST(PirProtocol, QueryMovesFarFewerBytesThanPaillier) {
  // The bench pins the ≥10× wire floor at scale; this is the always-on
  // miniature: even at a 6-block toy grid the PIR round trip must be well
  // under the encrypted request's byte count.
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  crypto::ChaChaRng rng_enc{std::uint64_t{3}};
  crypto::ChaChaRng rng_pir{std::uint64_t{3}};
  PisaSystem encrypted{base_config(1), test_sites(), model, rng_enc};
  PisaSystem pirsys{pir_config(1), test_sites(), model, rng_pir};
  encrypted.add_su(100);
  pirsys.add_su(100);
  watch::SuRequest req{100, BlockId{1}, std::vector<double>(3, 1e-4)};
  auto enc_out = encrypted.su_request(req);
  auto pir_out = pirsys.su_request(req);
  ASSERT_TRUE(enc_out.completed());
  ASSERT_TRUE(pir_out.completed());
  std::size_t enc_total = enc_out.request_bytes + enc_out.convert_bytes +
                          enc_out.convert_reply_bytes + enc_out.response_bytes;
  std::size_t pir_total = pir_out.request_bytes + pir_out.response_bytes;
  EXPECT_GT(enc_total, 5 * pir_total)
      << "encrypted " << enc_total << "B vs PIR " << pir_total << "B";
}

TEST(PirProtocol, BurstRequestsAggregateAndMatchSequential) {
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  crypto::ChaChaRng rng{std::uint64_t{19}};
  PisaSystem system{pir_config(1), test_sites(), model, rng};
  watch::PlainWatch oracle{base_config(1).watch, test_sites(), model};
  system.add_su(100);
  system.add_su(101);
  system.pu_update(1, watch::PuTuning{ChannelId{0}, 1e-6});
  oracle.pu_update(1, watch::PuTuning{ChannelId{0}, 1e-6});

  std::vector<watch::SuRequest> burst;
  for (std::uint32_t i = 0; i < 4; ++i)
    burst.push_back(watch::SuRequest{100 + (i % 2), BlockId{i},
                                     std::vector<double>(3, i % 2 ? 100.0 : 1e-4)});
  PisaSystem::MultiRequestStats stats;
  auto outs = system.su_request_many(burst, &stats);
  ASSERT_EQ(outs.size(), burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    ASSERT_TRUE(outs[i].completed()) << "request " << i;
    EXPECT_EQ(outs[i].granted, oracle.process_request(burst[i]).granted)
        << "request " << i;
  }
  EXPECT_GT(stats.request_bytes, 0u);
  EXPECT_GT(stats.response_bytes, 0u);
  EXPECT_EQ(stats.convert_msgs, 0u);  // no conversion round exists in PIR mode
}

TEST(PirProtocol, MisShapedRepliesAreATypedFailure) {
  // Replicas that agree with each other but not with the request — one row
  // short of the 162 asked for, or 64-byte rows where C = 100 needs 832 —
  // must be a typed delivery failure, not an exception out of decide_pir,
  // and the session must serve the next request.
  PisaConfig cfg = pir_config(1);
  cfg.watch.grid_rows = 20;
  cfg.watch.grid_cols = 30;
  cfg.watch.channels = 100;
  crypto::ChaChaRng rng{std::uint64_t{23}};
  net::SimulatedNetwork net;
  ClientSession session{cfg, crypto::paillier_generate(512, rng, 8).pk, net,
                        rng, nullptr};
  session.add_su(100);

  const auto e = watch::make_e_matrix(cfg.watch);
  enum class Answer { kHonest, kShortRows, kNarrowRows } answer{};
  std::vector<pir::PirReplica> replicas;
  for (std::size_t i = 0; i < cfg.pir.replicas; ++i)
    replicas.emplace_back(e, 1);
  for (std::size_t i = 0; i < cfg.pir.replicas; ++i)
    net.register_endpoint(pir::replica_name(i), [&, i](const net::Message& m) {
      auto reply =
          replicas[i].answer(pir::PirQueryMsg::decode(m.payload), nullptr);
      if (answer == Answer::kShortRows)
        reply.row_data.resize(reply.row_data.size() - reply.row_bytes);
      if (answer == Answer::kNarrowRows) {
        reply.row_data.resize(reply.row_count() * 64);
        reply.row_bytes = 64;
      }
      net.send({m.to, m.from, pir::kMsgPirReply, reply.encode()});
    });

  const std::uint32_t lo = 210, hi = lo + 162;
  watch::QMatrix f{cfg.watch.channels, 600};
  for (std::uint32_t b = lo; b < hi; ++b)
    f.at(ChannelId{b % 100}, BlockId{b}) = 1;  // non-zero on every fetched row
  for (auto mode : {Answer::kShortRows, Answer::kNarrowRows, Answer::kHonest}) {
    answer = mode;
    const auto query = session.submit_pir(100, lo, hi);
    net.run();
    SuDecision d;
    ASSERT_NO_THROW(d = session.decide_pir(query, f));
    if (mode == Answer::kHonest) {
      EXPECT_EQ(d.status, SuDecision::Status::kCompleted);
      EXPECT_TRUE(d.granted);
    } else {
      EXPECT_EQ(d.status, SuDecision::Status::kTransportFailed);
      EXPECT_FALSE(d.failure.empty());
    }
  }
}

TEST(PirConfigValidation, ReplicaCountBounds) {
  PisaConfig cfg = pir_config(1);
  EXPECT_NO_THROW(cfg.validate());
  cfg.pir.replicas = 1;  // a single replica would see the plaintext query
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.pir.replicas = 17;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.pir.replicas = 16;
  EXPECT_NO_THROW(cfg.validate());
  // Paillier mode ignores the replica knob entirely.
  cfg.query_mode = QueryMode::kPaillier;
  cfg.pir.replicas = 0;
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
}  // namespace pisa::core

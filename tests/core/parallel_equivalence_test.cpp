// Determinism contract, protocol level: with the same ChaCha seed, the
// entire pipeline — PU updates, request preparation, SDC blinding, STP
// conversion, license issuance — must produce bit-identical messages and
// the same grant/deny decision at num_threads 1, 2 and 4. Randomness is
// pre-sampled sequentially before every parallel section, so the thread
// knob may only shift wall-clock, never outputs.
#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "crypto/chacha_rng.hpp"
#include "exec/thread_pool.hpp"
#include "radio/pathloss.hpp"

namespace pisa::core {
namespace {

using radio::BlockId;
using radio::ChannelId;

PisaConfig test_config(std::size_t num_threads) {
  PisaConfig cfg;
  cfg.watch.grid_rows = 2;
  cfg.watch.grid_cols = 3;
  cfg.watch.block_size_m = 500.0;
  cfg.watch.channels = 2;
  cfg.paillier_bits = 768;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  cfg.num_threads = num_threads;
  return cfg;
}

std::vector<watch::PuSite> test_sites() {
  return {{0, BlockId{0}}, {1, BlockId{5}}};
}

// One full scripted run: a PU tunes in, a granted and a denied SU request
// execute via direct entity calls so every intermediate message is
// observable. Returns everything worth comparing bit-for-bit.
struct RunTrace {
  std::vector<crypto::PaillierCiphertext> pu_column;
  std::vector<crypto::PaillierCiphertext> request_f;
  std::vector<crypto::PaillierCiphertext> convert_v;
  std::vector<crypto::PaillierCiphertext> convert_x;
  crypto::PaillierCiphertext response_g;
  bn::BigUint signature;
  bool granted = false;
  bool denied_granted = true;  // second (should-deny) request's outcome
};

RunTrace run_pipeline(std::size_t num_threads) {
  auto cfg = test_config(num_threads);
  crypto::ChaChaRng rng{std::uint64_t{777'000 + 7}};  // same seed for all runs
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, test_sites(), model, rng};
  auto& su = system.add_su(9, /*precompute=*/12);  // one factor per F entry
  system.sdc().register_su_key(9, su.public_key());

  RunTrace trace;

  // PU 0 tunes to channel 1 — the encrypted column must match bitwise.
  auto update = system.pu(0).make_update(watch::PuTuning{ChannelId{1}, 1e-6});
  trace.pu_column = update.w_column;
  system.sdc().handle_pu_update(update);

  // Request far from the PU (granted at these parameters).
  watch::SuRequest req{9, BlockId{4},
                       std::vector<double>(cfg.watch.channels, 0.001)};
  auto f = system.build_f(req);
  auto msg = su.prepare_request(f, 1);
  trace.request_f = msg.f;

  auto conv = system.sdc().begin_request(msg);
  trace.convert_v = conv.v;
  auto xresp = system.stp().convert(conv);
  trace.convert_x = xresp.x;
  auto resp = system.sdc().finish_request(xresp);
  trace.response_g = resp.g;

  auto outcome = su.process_response(resp, system.sdc().license_key());
  trace.granted = outcome.granted;
  trace.signature = outcome.signature;

  // Request next to the PU (denied): decision must also be invariant.
  watch::SuRequest bad{9, BlockId{1},
                       std::vector<double>(cfg.watch.channels, 100.0)};
  auto bad_msg = su.prepare_request(system.build_f(bad), 2);
  auto bad_resp = system.sdc().finish_request(
      system.stp().convert(system.sdc().begin_request(bad_msg)));
  trace.denied_granted =
      su.process_response(bad_resp, system.sdc().license_key()).granted;
  return trace;
}

TEST(ParallelEquivalence, PipelineIsBitIdenticalAcrossThreadCounts) {
  auto reference = run_pipeline(1);
  EXPECT_TRUE(reference.granted) << "sanity: far request should be granted";
  EXPECT_FALSE(reference.denied_granted) << "sanity: near request denied";

  for (std::size_t nt : {2u, 4u}) {
    auto got = run_pipeline(nt);
    EXPECT_EQ(got.pu_column, reference.pu_column) << "threads=" << nt;
    EXPECT_EQ(got.request_f, reference.request_f) << "threads=" << nt;
    EXPECT_EQ(got.convert_v, reference.convert_v) << "threads=" << nt;
    EXPECT_EQ(got.convert_x, reference.convert_x) << "threads=" << nt;
    EXPECT_EQ(got.response_g, reference.response_g) << "threads=" << nt;
    EXPECT_EQ(got.signature, reference.signature) << "threads=" << nt;
    EXPECT_EQ(got.granted, reference.granted) << "threads=" << nt;
    EXPECT_EQ(got.denied_granted, reference.denied_granted) << "threads=" << nt;
  }
}

TEST(ParallelEquivalence, ThreadPoolIsSharedAcrossEntities) {
  auto cfg = test_config(2);
  crypto::ChaChaRng rng{std::uint64_t{31337}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, test_sites(), model, rng};
  ASSERT_NE(system.thread_pool(), nullptr);
  EXPECT_EQ(system.thread_pool()->num_threads(), 2u);

  // num_threads == 1 must not spin up a pool at all.
  crypto::ChaChaRng rng1{std::uint64_t{31337}};
  PisaSystem seq{test_config(1), test_sites(), model, rng1};
  EXPECT_EQ(seq.thread_pool(), nullptr);
}

TEST(ParallelEquivalence, NetworkDrivenRequestDecisionInvariant) {
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  bool reference = false;
  for (std::size_t nt : {1u, 2u, 4u}) {
    crypto::ChaChaRng rng{std::uint64_t{99}};
    PisaSystem system{test_config(nt), test_sites(), model, rng};
    system.add_su(5);
    system.pu_update(1, watch::PuTuning{ChannelId{0}, 1e-6});
    watch::SuRequest req{5, BlockId{2},
                         std::vector<double>(2, 50.0)};
    bool granted = system.su_request(req).granted;
    if (nt == 1)
      reference = granted;
    else
      EXPECT_EQ(granted, reference) << "threads=" << nt;
  }
}

}  // namespace
}  // namespace pisa::core

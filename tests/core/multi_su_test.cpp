// Multi-tenant behaviour: several SUs with independent keys sharing one SDC
// and STP. Checks request isolation (interleaved pending requests), key
// separation (one SU cannot read another's response), and license binding.
#include <gtest/gtest.h>

#include "core/protocol.hpp"
#include "crypto/chacha_rng.hpp"
#include "radio/pathloss.hpp"
#include "watch/plain_watch.hpp"

namespace pisa::core {
namespace {

using radio::BlockId;
using radio::ChannelId;

PisaConfig small_config() {
  PisaConfig cfg;
  cfg.watch.grid_rows = 2;
  cfg.watch.grid_cols = 4;
  cfg.watch.block_size_m = 400.0;
  cfg.watch.channels = 2;
  cfg.paillier_bits = 768;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  return cfg;
}

struct MultiSuFixture : ::testing::Test {
  PisaConfig cfg = small_config();
  crypto::ChaChaRng rng{std::uint64_t{0x3503}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  std::vector<watch::PuSite> sites{{0, BlockId{0}}};
  PisaSystem system{cfg, sites, model, rng};

  watch::SuRequest request(std::uint32_t su, std::uint32_t block, double mw) {
    return {su, BlockId{block}, std::vector<double>(cfg.watch.channels, mw)};
  }

  /// Direct (network-free) SDC calls bypass the STP key directory, so tests
  /// that drive begin/finish_request by hand register keys explicitly.
  SuClient& add_su_direct(std::uint32_t id) {
    auto& su = system.add_su(id);
    system.sdc().register_su_key(id, su.public_key());
    return su;
  }
};

TEST_F(MultiSuFixture, ThreeSusIndependentOutcomes) {
  system.add_su(1);
  system.add_su(2);
  system.add_su(3);
  system.pu_update(0, watch::PuTuning{ChannelId{0}, 1e-6});

  // SU 1 loud & close: denied. SU 2 far & quiet: granted. SU 3 avoids the
  // PU channel: granted.
  auto o1 = system.su_request(request(1, 1, 100.0));
  auto o2 = system.su_request(request(2, 7, 0.0001));
  auto eirp3 = std::vector<double>{0.0, 100.0};
  auto o3 = system.su_request({3, BlockId{1}, eirp3});

  EXPECT_FALSE(o1.granted);
  EXPECT_TRUE(o2.granted);
  EXPECT_TRUE(o3.granted);
  EXPECT_EQ(o2.license.su_id, 2u);
  EXPECT_EQ(o3.license.su_id, 3u);
  EXPECT_NE(o2.license.serial, o3.license.serial) << "serials are unique";
}

TEST_F(MultiSuFixture, BurstByteTotalsCountEachRequestOnce) {
  system.add_su(1);
  system.pu_update(0, watch::PuTuning{ChannelId{0}, 1e-6});
  const auto req = request(1, 7, 0.0001);
  PisaSystem::MultiRequestStats one, two;
  system.su_request_many({req}, &one);
  system.su_request_many({req, req}, &two);
  // Same F, same sizes: one SU's two requests are twice one request, not
  // its link counted once per request.
  EXPECT_EQ(two.request_bytes, 2 * one.request_bytes);
  EXPECT_EQ(two.response_bytes, 2 * one.response_bytes);
}

TEST_F(MultiSuFixture, InterleavedPendingRequestsAtTheSdc) {
  // Start two requests at the SDC before finishing either; each must
  // complete against its own blinding state.
  auto& su1 = add_su_direct(1);
  auto& su2 = add_su_direct(2);
  system.pu_update(0, watch::PuTuning{ChannelId{0}, 1e-6});

  auto f_deny = system.build_f(request(1, 1, 100.0));
  auto f_grant = system.build_f(request(2, 7, 0.0001));

  auto m1 = su1.prepare_request(f_deny, 501);
  auto m2 = su2.prepare_request(f_grant, 502);

  auto conv1 = system.sdc().begin_request(m1);
  auto conv2 = system.sdc().begin_request(m2);  // both pending now

  // Finish in reverse order.
  auto resp2 = system.sdc().finish_request(system.stp().convert(conv2));
  auto resp1 = system.sdc().finish_request(system.stp().convert(conv1));

  EXPECT_FALSE(su1.process_response(resp1, system.sdc().license_key()).granted);
  EXPECT_TRUE(su2.process_response(resp2, system.sdc().license_key()).granted);
}

TEST_F(MultiSuFixture, ResponsesAreKeySeparated) {
  // SU 2 cannot extract SU 1's license from SU 1's response: it is
  // encrypted under pk_1.
  auto& su1 = add_su_direct(1);
  auto& su2 = add_su_direct(2);
  auto f = system.build_f(request(1, 6, 0.0001));
  auto m1 = su1.prepare_request(f, 601);
  auto resp = system.sdc().finish_request(
      system.stp().convert(system.sdc().begin_request(m1)));

  auto own = su1.process_response(resp, system.sdc().license_key());
  EXPECT_TRUE(own.granted);
  // Decrypting with the wrong key either throws (ciphertext out of range
  // for the smaller modulus) or yields garbage that does not verify.
  try {
    auto stolen = su2.process_response(resp, system.sdc().license_key());
    EXPECT_FALSE(stolen.granted);
  } catch (const std::out_of_range&) {
    // acceptable: pk_2's modulus is smaller than the ciphertext value
  }
}

TEST_F(MultiSuFixture, LicenseIsBoundToTheRequestDigest) {
  auto& su1 = add_su_direct(1);
  auto f1 = system.build_f(request(1, 6, 0.0001));
  auto f2 = system.build_f(request(1, 7, 0.0002));
  auto m1 = su1.prepare_request(f1, 701);
  auto m2 = su1.prepare_request(f2, 702);
  auto r1 = system.sdc().finish_request(
      system.stp().convert(system.sdc().begin_request(m1)));
  auto r2 = system.sdc().finish_request(
      system.stp().convert(system.sdc().begin_request(m2)));
  EXPECT_NE(r1.license.request_digest, r2.license.request_digest)
      << "licenses bind to the exact encrypted operation parameters";
  // Swapping signatures across licenses must not verify.
  auto o1 = su1.process_response(r1, system.sdc().license_key());
  auto o2 = su1.process_response(r2, system.sdc().license_key());
  ASSERT_TRUE(o1.granted);
  ASSERT_TRUE(o2.granted);
  EXPECT_FALSE(system.sdc().license_key().verify(o1.license.signing_bytes(),
                                                 o2.signature));
}

TEST_F(MultiSuFixture, ManySequentialRequestsKeepStateClean) {
  system.add_su(1);
  system.pu_update(0, watch::PuTuning{ChannelId{1}, 1e-6});
  for (int i = 0; i < 6; ++i) {
    bool loud = i % 2 == 0;
    auto out = system.su_request(request(1, 1, loud ? 100.0 : 0.00001));
    EXPECT_EQ(out.granted, !loud) << "iteration " << i;
  }
  EXPECT_EQ(system.sdc().stats().requests_finished, 6u);
}

TEST_F(MultiSuFixture, PuFlappingIsTrackedExactly) {
  // Rapid tune/retune/off cycles must leave the encrypted budget exactly in
  // sync with a plaintext oracle.
  system.add_su(1);
  watch::PlainWatch oracle{cfg.watch, sites, model};
  auto req = request(1, 1, 100.0);
  crypto::ChaChaRng flap{std::uint64_t{77}};
  for (int i = 0; i < 8; ++i) {
    watch::PuTuning tuning;
    if (flap.next_u64() % 4 != 0) {
      tuning.channel = ChannelId{static_cast<std::uint32_t>(flap.next_u64() % 2)};
      tuning.signal_mw = 1e-7 * static_cast<double>(flap.next_u64() % 30 + 1);
    }
    system.pu_update(0, tuning);
    oracle.pu_update(0, tuning);
    EXPECT_EQ(system.su_request(req).granted,
              oracle.process_request(req).granted)
        << "flap " << i;
  }
}

}  // namespace
}  // namespace pisa::core

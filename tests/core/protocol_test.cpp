// End-to-end protocol tests: the encrypted PISA pipeline against the
// plaintext WATCH oracle, license soundness, the STP round, the privacy
// trade-off, and the privacy accounting on the simulated network.
#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include "crypto/chacha_rng.hpp"
#include "radio/pathloss.hpp"
#include "watch/plain_watch.hpp"

namespace pisa::core {
namespace {

using radio::BlockId;
using radio::ChannelId;

// Small-but-real parameters: 768-bit Paillier, 384-bit RSA licenses.
PisaConfig test_config() {
  PisaConfig cfg;
  cfg.watch.grid_rows = 2;
  cfg.watch.grid_cols = 3;
  cfg.watch.block_size_m = 500.0;  // spread sites out for decision variety
  cfg.watch.channels = 2;
  cfg.paillier_bits = 768;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  return cfg;
}

std::vector<watch::PuSite> test_sites() {
  return {{0, BlockId{0}}, {1, BlockId{5}}};
}

struct ProtocolFixture : ::testing::Test {
  PisaConfig cfg = test_config();
  crypto::ChaChaRng rng{std::uint64_t{2024}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, test_sites(), model, rng};
  watch::PlainWatch oracle{cfg.watch, test_sites(), model};

  watch::SuRequest request(std::uint32_t su, std::uint32_t block, double mw) {
    return {su, BlockId{block}, std::vector<double>(cfg.watch.channels, mw)};
  }
};

TEST_F(ProtocolFixture, GrantWhenNoPuActive) {
  system.add_su(100);
  auto req = request(100, 1, 100.0);
  auto out = system.su_request(req);
  EXPECT_TRUE(out.granted);
  EXPECT_TRUE(oracle.process_request(req).granted);
  EXPECT_EQ(out.license.su_id, 100u);
  EXPECT_EQ(out.license.issuer, "sdc");
}

TEST_F(ProtocolFixture, DenyNearActivePu) {
  system.add_su(100);
  watch::PuTuning tuning{ChannelId{1}, 1e-6};
  system.pu_update(0, tuning);
  oracle.pu_update(0, tuning);
  auto req = request(100, 1, 100.0);  // one block from PU 0
  ASSERT_FALSE(oracle.process_request(req).granted) << "oracle sanity";
  auto out = system.su_request(req);
  EXPECT_FALSE(out.granted);
}

TEST_F(ProtocolFixture, DeniedResponseCarriesNoValidSignature) {
  system.add_su(100);
  system.pu_update(0, watch::PuTuning{ChannelId{0}, 1e-6});
  auto out = system.su_request(request(100, 1, 100.0));
  ASSERT_FALSE(out.granted);
  // The decrypted value must not verify — and must not even equal the
  // would-be signature for a granted request (η-blinded).
  EXPECT_FALSE(system.sdc().license_key().verify(out.license.signing_bytes(),
                                                 out.signature));
}

TEST_F(ProtocolFixture, GrantedLicenseVerifiesAgainstIssuerKey) {
  system.add_su(100);
  auto out = system.su_request(request(100, 4, 0.001));
  ASSERT_TRUE(out.granted);
  EXPECT_TRUE(system.sdc().license_key().verify(out.license.signing_bytes(),
                                                out.signature));
  // Tampering with any license field invalidates it.
  auto tampered = out.license;
  tampered.su_id = 101;
  EXPECT_FALSE(system.sdc().license_key().verify(tampered.signing_bytes(),
                                                 out.signature));
}

TEST_F(ProtocolFixture, PuSwitchingTracksOracle) {
  system.add_su(100);
  auto req = request(100, 1, 100.0);

  for (auto tuning : {watch::PuTuning{ChannelId{0}, 1e-6},
                      watch::PuTuning{ChannelId{1}, 2e-6},
                      watch::PuTuning{}}) {
    system.pu_update(0, tuning);
    oracle.pu_update(0, tuning);
    EXPECT_EQ(system.su_request(req).granted,
              oracle.process_request(req).granted);
  }
}

TEST_F(ProtocolFixture, RandomScenarioEquivalenceSweep) {
  // The headline invariant: for random PU/SU configurations, the encrypted
  // pipeline and the plaintext oracle reach the same decision.
  system.add_su(100, /*precompute=*/0);
  crypto::ChaChaRng scenario_rng{std::uint64_t{77}};
  int grants = 0, denies = 0;
  for (int round = 0; round < 12; ++round) {
    for (std::uint32_t pu = 0; pu < 2; ++pu) {
      watch::PuTuning tuning;
      if (scenario_rng.next_u64() % 3 != 0) {
        tuning.channel = ChannelId{static_cast<std::uint32_t>(
            scenario_rng.next_u64() % cfg.watch.channels)};
        tuning.signal_mw = 1e-7 * static_cast<double>(scenario_rng.next_u64() % 50 + 1);
      }
      system.pu_update(pu, tuning);
      oracle.pu_update(pu, tuning);
    }
    auto block = static_cast<std::uint32_t>(scenario_rng.next_u64() % 6);
    double mw = (scenario_rng.next_u64() % 2) ? 100.0 : 1e-4;
    auto req = request(100, block, mw);
    bool expected = oracle.process_request(req).granted;
    bool actual = system.su_request(req).granted;
    EXPECT_EQ(actual, expected) << "round " << round << " block " << block
                                << " mw " << mw;
    (expected ? grants : denies)++;
  }
  EXPECT_GT(grants, 0) << "sweep must exercise the grant path";
  EXPECT_GT(denies, 0) << "sweep must exercise the deny path";
}

TEST_F(ProtocolFixture, PooledPreparationGivesSameDecision) {
  auto& su = system.add_su(100);
  // The whole request (C × B = 2 × 6 entries) precomputed, plus a spare.
  su.precompute_randomizers(2 * 6 + 1);
  system.pu_update(0, watch::PuTuning{ChannelId{0}, 1e-6});
  oracle.pu_update(0, watch::PuTuning{ChannelId{0}, 1e-6});
  auto req = request(100, 5, 100.0);
  auto out = system.su_request(req);
  EXPECT_EQ(out.granted, oracle.process_request(req).granted);
  EXPECT_EQ(su.randomizers_available(), 1u) << "the request spent its 12";
}

TEST_F(ProtocolFixture, RangeRestrictedRequestMatchesFullRequest) {
  // §VI-A trade-off: disclosing a half-area block range must not change the
  // decision as long as all PU sites within d^c fall inside the range.
  system.add_su(100);
  system.pu_update(1, watch::PuTuning{ChannelId{1}, 1e-6});
  oracle.pu_update(1, watch::PuTuning{ChannelId{1}, 1e-6});
  auto req = request(100, 4, 100.0);
  // Both sites (blocks 0 and 5) lie in [0, 6); restrict to exactly that but
  // also test that a proper sub-range containing all non-zero F columns
  // (0..6 here, since both sites are within d^c) matches the full run.
  auto full = system.su_request(req);
  auto ranged = system.su_request(req, std::make_pair(0u, 6u));
  EXPECT_EQ(full.granted, ranged.granted);
}

TEST_F(ProtocolFixture, RangeExcludingAPuSiteIsRejectedClientSide) {
  system.add_su(100);
  auto req = request(100, 4, 100.0);
  // Block 0 hosts PU site 0 within d^c, so F(., 0) != 0 and a range
  // starting at 1 would hide interference: the client must refuse.
  EXPECT_THROW(system.su_request(req, std::make_pair(1u, 6u)),
               std::invalid_argument);
}

TEST_F(ProtocolFixture, VirtualLatencyReflectsMessageSizes) {
  system.add_su(100);
  auto out = system.su_request(request(100, 1, 100.0));
  // Four hops (request, convert, convert-reply, response) at >= 500 µs base
  // latency each, plus the transfer component of ~2.3 MB of ciphertext.
  EXPECT_GT(out.latency_us, 4 * 500.0);
  double transfer_us =
      static_cast<double>(out.request_bytes + out.convert_bytes +
                          out.convert_reply_bytes + out.response_bytes) /
      125.0;  // default bus bandwidth, bytes/µs
  EXPECT_GT(out.latency_us, transfer_us);
  EXPECT_LT(out.latency_us, transfer_us + 20 * 500.0)
      << "no unexplained idle time on the virtual links";
}

TEST_F(ProtocolFixture, CommunicationSizesMatchTheoreticalShape) {
  system.add_su(100);
  auto out = system.su_request(request(100, 1, 100.0));
  std::size_t ct = system.stp().group_key().ciphertext_bytes();
  std::size_t entries = cfg.watch.channels * 6;
  // Request and conversion: C×B fixed-width ciphertexts (+ small headers).
  EXPECT_GE(out.request_bytes, entries * ct);
  EXPECT_LT(out.request_bytes, entries * ct + 128);
  EXPECT_GE(out.convert_bytes, entries * ct);
  // Response: a single ciphertext under pk_j.
  std::size_t su_ct = system.su(100).public_key().ciphertext_bytes();
  EXPECT_GE(out.response_bytes, su_ct);
  EXPECT_LT(out.response_bytes, su_ct + 128);
}

TEST_F(ProtocolFixture, HalfRangeRequestHalvesTheTraffic) {
  system.add_su(100);
  system.pu_update(0, watch::PuTuning{ChannelId{0}, 1e-6});
  auto req = request(100, 1, 100.0);
  auto full = system.su_request(req);
  // Sites at blocks 0 and 5 — a [0,6) range is full; [0,3) would drop site
  // 1's column only if F there is zero. Build a request whose F support
  // fits in [0,3): move the SU next to site 0 and keep site 1 out of range
  // is impossible (d^c is huge), so instead verify the byte count scales
  // with the range width on an idle system where F support is empty.
  PisaConfig cfg2 = cfg;
  crypto::ChaChaRng rng2{std::uint64_t{5}};
  PisaSystem idle{cfg2, {}, model, rng2};  // no PU sites at all ⇒ F all-zero
  idle.add_su(200);
  watch::SuRequest req2{200, BlockId{1},
                        std::vector<double>(cfg.watch.channels, 100.0)};
  auto wide = idle.su_request(req2, std::make_pair(0u, 6u));
  auto narrow = idle.su_request(req2, std::make_pair(0u, 3u));
  EXPECT_NEAR(static_cast<double>(narrow.request_bytes),
              static_cast<double>(wide.request_bytes) / 2.0,
              64.0);
  EXPECT_TRUE(wide.granted);
  EXPECT_TRUE(narrow.granted);
  (void)full;
}

TEST_F(ProtocolFixture, PrivacyAuditSdcAndStpSeeOnlyCiphertext) {
  system.add_su(100);
  system.pu_update(0, watch::PuTuning{ChannelId{0}, 1e-6});
  (void)system.su_request(request(100, 1, 100.0));

  // The STP saw only blinded conversion requests and public-key directory
  // traffic — never a plaintext spectrum quantity.
  for (const auto& rec : system.network().audit_log("stp")) {
    EXPECT_TRUE(rec.type == kMsgConvertBatch || rec.type == kMsgKeyRegister ||
                rec.type == kMsgKeyLookup)
        << rec.type;
  }
  // The SDC saw only ciphertext matrices and public keys (pu_update,
  // su_request, stp_convert_batch_response, key lookups).
  for (const auto& rec : system.network().audit_log("sdc")) {
    EXPECT_TRUE(rec.type == kMsgPuUpdate || rec.type == kMsgSuRequest ||
                rec.type == kMsgConvertBatchResponse ||
                rec.type == kMsgKeyLookupResponse)
        << rec.type;
  }
}

TEST_F(ProtocolFixture, BlindedValuesAtStpLookRandomAcrossRuns) {
  // Two identical requests: the V values the STP decrypts must differ
  // (fresh α, β, ε per request), even though the underlying I is identical.
  system.add_su(100);
  auto f = system.build_f(request(100, 1, 100.0));
  auto& su = system.su(100);
  auto m1 = su.prepare_request(f, 901);
  auto m2 = su.prepare_request(f, 902);
  auto c1 = system.sdc().begin_request(m1);
  auto c2 = system.sdc().begin_request(m2);
  ASSERT_EQ(c1.v.size(), c2.v.size());
  for (std::size_t i = 0; i < c1.v.size(); ++i) {
    auto v1 = system.stp().peek_decrypt_signed(c1.v[i]);
    auto v2 = system.stp().peek_decrypt_signed(c2.v[i]);
    EXPECT_NE(v1, v2) << "blinding must be one-time, entry " << i;
  }
}

TEST_F(ProtocolFixture, DuplicatesAndUnknownsRejected) {
  system.add_su(100);
  EXPECT_THROW(system.add_su(100), std::invalid_argument);
  EXPECT_THROW(system.su(999), std::out_of_range);
  EXPECT_THROW(system.pu(999), std::out_of_range);
  EXPECT_THROW(system.pu_update(7, watch::PuTuning{}), std::out_of_range);
}

TEST(PuRelocation, MovedReceiverIsProtectedAtItsNewBlock) {
  // A receiver registered at block 0 moves to block 5 and tunes there. Its
  // W column moves with it, so F must model it at block 5 too: otherwise a
  // loud SU right next to it is licensed to jam it.
  PisaConfig cfg = test_config();
  crypto::ChaChaRng rng{std::uint64_t{0x4E10C}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, {{0, BlockId{0}}}, model, rng};
  watch::PlainWatch moved{cfg.watch, {{0, BlockId{5}}}, model};
  system.add_su(100);

  const watch::PuTuning tuning{ChannelId{1}, 1e-6};
  system.pu_move(0, 5);
  system.pu_update(0, tuning);
  moved.pu_update(0, tuning);

  const watch::SuRequest loud{100, BlockId{5},
                              std::vector<double>(cfg.watch.channels, 100.0)};
  ASSERT_FALSE(moved.process_request(loud).granted) << "oracle sanity";
  EXPECT_FALSE(system.su_request(loud).granted);
  EXPECT_EQ(system.build_f(loud), moved.build_request_matrix(loud));
}

struct ThresholdProtocolFixture : ::testing::Test {
  PisaConfig cfg = [] {
    auto c = test_config();
    c.threshold_stp = true;
    return c;
  }();
  crypto::ChaChaRng rng{std::uint64_t{4242}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, test_sites(), model, rng};
  watch::PlainWatch oracle{cfg.watch, test_sites(), model};

  watch::SuRequest request(std::uint32_t su, std::uint32_t block, double mw) {
    return {su, BlockId{block}, std::vector<double>(cfg.watch.channels, mw)};
  }
};

TEST_F(ThresholdProtocolFixture, DecisionsMatchOracleInThresholdMode) {
  // §VII future-work mode: 2-of-2 shared decryption between SDC and STP
  // must be decision-equivalent to classic PISA.
  system.add_su(100);
  EXPECT_TRUE(system.stp().threshold_mode());
  for (auto tuning : {watch::PuTuning{ChannelId{0}, 1e-6}, watch::PuTuning{}}) {
    system.pu_update(0, tuning);
    oracle.pu_update(0, tuning);
    for (std::uint32_t block : {1u, 5u}) {
      auto req = request(100, block, 100.0);
      EXPECT_EQ(system.su_request(req).granted,
                oracle.process_request(req).granted)
          << "block " << block;
    }
  }
}

TEST_F(ThresholdProtocolFixture, ConversionTrafficDoublesWithPartials) {
  system.add_su(100);
  auto out = system.su_request(request(100, 1, 100.0));
  std::size_t ct = system.stp().group_key().ciphertext_bytes();
  std::size_t entries = cfg.watch.channels * 6;
  // v plus one partial per entry.
  EXPECT_GE(out.convert_bytes, 2 * entries * ct);
}

TEST_F(ThresholdProtocolFixture, StpRejectsRequestsWithoutPartials) {
  system.add_su(100);
  auto f = system.build_f(request(100, 1, 100.0));
  auto msg = system.su(100).prepare_request(f, 900);
  auto conv = system.sdc().begin_request(msg);
  ASSERT_EQ(conv.partials.size(), conv.v.size());
  conv.partials.clear();  // adversarial SDC trying to get free decryptions
  EXPECT_THROW(system.stp().convert(conv), std::invalid_argument);
}

TEST(ThresholdProtocol, ClassicStpHasNoShare) {
  PisaConfig cfg = test_config();
  crypto::ChaChaRng rng{std::uint64_t{1}};
  StpServer stp{cfg, rng};
  EXPECT_FALSE(stp.threshold_mode());
  EXPECT_THROW(stp.sdc_share(), std::logic_error);
}

TEST(PisaConfigValidation, CatchesBadCombinations) {
  PisaConfig cfg = test_config();
  cfg.rsa_bits = cfg.paillier_bits;  // signature would not fit eq. (17)
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = test_config();
  cfg.blind_bits = 1024;  // blinding overflows the plaintext space
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = test_config();
  cfg.blind_bits = 4;  // too small to hide anything
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = test_config();
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
}  // namespace pisa::core

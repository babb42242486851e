// §3.8 encrypted denial fast path, end to end: the keyed cuckoo prefilter
// must deny provably-exhausted requests in one round while every decision —
// fast or full — stays exactly what the plaintext oracle computes. Covers
// the budget-probe flow that confirms exhaustion, un-exhaustion on PU
// departure, the false-positive fallback into the full pipeline, packed
// slots, threshold-STP probes, and the fixed-size (leak-free) deny reply.
#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "crypto/chacha_rng.hpp"
#include "radio/pathloss.hpp"
#include "watch/plain_watch.hpp"

namespace pisa::core {
namespace {

using radio::BlockId;
using radio::ChannelId;

// Geometry chosen so exhaustion is block-local: d^c ≈ 527 m at these power
// limits, blocks 1000 m apart — an SU's F matrix is supported only on its
// own block, so range-restricted requests away from the exhausted block
// stay grantable while any range covering it is a certain denial.
PisaConfig filter_config() {
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
  return cfg;
}

// Three PUs stacked on block 0 (enough to drive N(0, block 0) negative when
// all tune to channel 0) plus one at block 2 for decision variety.
std::vector<watch::PuSite> filter_sites() {
  return {{0, BlockId{0}}, {1, BlockId{0}}, {2, BlockId{0}}, {3, BlockId{2}}};
}

/// Ranged ground truth: the pipeline over [lo, hi) grants iff every covered
/// cell keeps I = N − X·F positive (eq. (6)/(7) restricted to the disclosed
/// blocks — the full-matrix PlainWatch::process_request equals this at the
/// full range).
bool ranged_expected(const watch::PlainWatch& oracle, const watch::QMatrix& f,
                     std::uint32_t lo, std::uint32_t hi) {
  const std::int64_t x = oracle.config().protection_scalar();
  for (std::uint32_t c = 0; c < oracle.config().channels; ++c) {
    for (std::uint32_t b = lo; b < hi; ++b) {
      std::int64_t n = oracle.sdc().budget().at(ChannelId{c}, BlockId{b});
      if (n - x * f.at(ChannelId{c}, BlockId{b}) <= 0) return false;
    }
  }
  return true;
}

struct DenialFilterFixture : ::testing::Test {
  PisaConfig cfg = filter_config();
  crypto::ChaChaRng rng{std::uint64_t{2026}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, filter_sites(), model, rng};
  watch::PlainWatch oracle{cfg.watch, filter_sites(), model};

  watch::SuRequest request(std::uint32_t su, std::uint32_t block, double mw) {
    return {su, BlockId{block}, std::vector<double>(cfg.watch.channels, mw)};
  }

  /// Tune a PU in the system and the oracle in lock-step.
  void tune(std::uint32_t pu, const watch::PuTuning& t) {
    system.pu_update(pu, t);
    oracle.pu_update(pu, t);
  }

  /// Drive PUs 0–2 onto channel 0 so N(0, block 0) goes ≤ 0; the probe
  /// round (issued inside pu_update's network drain) confirms it.
  void exhaust_block0() {
    for (std::uint32_t pu : {0u, 1u, 2u})
      tune(pu, watch::PuTuning{ChannelId{0}, 1e-6});
  }
};

TEST_F(DenialFilterFixture, ConfirmedExhaustionDeniesInOneRound) {
  system.add_su(100);
  exhaust_block0();
  ASSERT_GT(system.sdc().state().exhausted_entries(), 0u)
      << "probe round must have confirmed the exhausted cell";

  // Range covering the exhausted block: certain denial, answered by the
  // prefilter without any conversion round.
  auto deny_req = request(100, 0, 1e-4);
  auto f_deny = system.build_f(deny_req);
  ASSERT_FALSE(ranged_expected(oracle, f_deny, 0, 1)) << "oracle sanity";
  std::uint64_t converted_before = system.stp().entries_converted();
  auto denied = system.su_request(deny_req, std::make_pair(0u, 1u));
  EXPECT_FALSE(denied.granted);
  EXPECT_TRUE(denied.fast_denied);
  EXPECT_EQ(system.stp().entries_converted(), converted_before)
      << "fast denial must not touch the conversion pipeline";
  EXPECT_EQ(denied.convert_bytes, 0u);
  EXPECT_EQ(denied.convert_reply_bytes, 0u);

  // A clean block far from the PU cluster still grants through the full
  // pipeline (the filter misses, nothing else changes).
  auto grant_req = request(100, 3, 1e-4);
  auto f_grant = system.build_f(grant_req);
  ASSERT_TRUE(ranged_expected(oracle, f_grant, 3, 4)) << "oracle sanity";
  auto granted = system.su_request(grant_req, std::make_pair(3u, 4u));
  EXPECT_TRUE(granted.granted);
  EXPECT_FALSE(granted.fast_denied);
  EXPECT_GT(system.stp().entries_converted(), converted_before);

  // A full-range request covers the exhausted block too — fast-denied, and
  // the full-matrix oracle agrees.
  EXPECT_FALSE(oracle.process_request(grant_req).granted);
  auto full = system.su_request(grant_req);
  EXPECT_FALSE(full.granted);
  EXPECT_TRUE(full.fast_denied);

  const auto& stats = system.sdc().stats();
  EXPECT_EQ(stats.prefilter_hits, 2u);
  EXPECT_EQ(stats.prefilter_misses, 1u);
  EXPECT_GT(stats.probes_sent, 0u);
}

TEST_F(DenialFilterFixture, DecisionsIdenticalToFilterOffOracle) {
  // The headline acceptance bar: with the filter on, every grant/deny
  // decision equals both the plaintext oracle and a filter-off system run
  // over the same schedule — the fast path only changes *how* a denial is
  // produced, never *what* is decided.
  PisaConfig off_cfg = cfg;
  off_cfg.denial_filter.enabled = false;
  crypto::ChaChaRng off_rng{std::uint64_t{9099}};
  PisaSystem off_system{off_cfg, filter_sites(), model, off_rng};
  system.add_su(100);
  off_system.add_su(100);

  crypto::ChaChaRng scenario{std::uint64_t{31}};
  std::size_t denies = 0, grants = 0;
  for (int round = 0; round < 10; ++round) {
    for (std::uint32_t pu = 0; pu < 4; ++pu) {
      watch::PuTuning t;
      if (scenario.next_u64() % 4 != 0) {
        t.channel = ChannelId{static_cast<std::uint32_t>(scenario.next_u64() %
                                                         cfg.watch.channels)};
        t.signal_mw = 1e-6;
      }
      tune(pu, t);
      off_system.pu_update(pu, t);
    }
    std::uint32_t block =
        static_cast<std::uint32_t>(scenario.next_u64() % 4);
    auto req = request(100, block, 1e-4);
    auto f = system.build_f(req);
    auto range = std::make_pair(block, block + 1);
    bool expected = ranged_expected(oracle, f, range.first, range.second);
    auto on = system.su_request(req, range);
    auto off = off_system.su_request(req, range);
    EXPECT_EQ(on.granted, expected) << "round " << round << " block " << block;
    EXPECT_EQ(off.granted, expected) << "round " << round << " block " << block;
    EXPECT_FALSE(off.fast_denied) << "filter-off must never fast-deny";
    if (on.fast_denied) EXPECT_FALSE(on.granted);
    (expected ? grants : denies)++;
  }
  EXPECT_GT(grants, 0u) << "sweep must exercise the grant path";
  EXPECT_GT(denies, 0u) << "sweep must exercise the deny path";
  EXPECT_GT(system.sdc().stats().prefilter_hits, 0u)
      << "sweep must exercise the fast path";
  EXPECT_EQ(off_system.sdc().stats().prefilter_hits, 0u);
  EXPECT_EQ(off_system.sdc().stats().probes_sent, 0u);
}

TEST_F(DenialFilterFixture, PuDepartureUnExhaustsTheBlock) {
  system.add_su(100);
  exhaust_block0();
  auto req = request(100, 0, 1e-4);
  auto denied = system.su_request(req, std::make_pair(0u, 1u));
  ASSERT_TRUE(denied.fast_denied);

  // All three stacked PUs leave; the fold invalidates block 0, the follow-up
  // probe finds the budget positive again, and the entry must disappear.
  for (std::uint32_t pu : {0u, 1u, 2u}) tune(pu, watch::PuTuning{});
  EXPECT_EQ(system.sdc().state().exhausted_entries(), 0u);
  auto f = system.build_f(req);
  ASSERT_TRUE(ranged_expected(oracle, f, 0, 1)) << "oracle sanity";
  auto granted = system.su_request(req, std::make_pair(0u, 1u));
  EXPECT_TRUE(granted.granted);
  EXPECT_FALSE(granted.fast_denied);

  // Re-exhaustion works too (insert after erase on the same filter).
  exhaust_block0();
  auto denied_again = system.su_request(req, std::make_pair(0u, 1u));
  EXPECT_FALSE(denied_again.granted);
  EXPECT_TRUE(denied_again.fast_denied);
}

TEST_F(DenialFilterFixture, FullColumnAfterDeltaReprobesRetractedCells) {
  // A full column retracts the PU's whole contribution, deltas included. A
  // delta that landed away from the PU's column block must come back out of
  // the filter with it, or the block stays "exhausted" after its budget
  // recovered — a false denial.
  system.add_su(100);
  const watch::PuTuning ch0{ChannelId{0}, 1e-6};
  tune(0, ch0);  // full column at block 0
  system.pu_move(2, 3);
  oracle.pu_move(2, BlockId{3});
  tune(2, ch0);  // full column at block 3
  system.pu_move(2, 0);
  oracle.pu_move(2, BlockId{0});
  ASSERT_TRUE(system.pu_delta(2, ch0));  // delta: block 3 → block 0
  oracle.pu_update(2, ch0);
  ASSERT_LE(oracle.sdc().budget().at(ChannelId{0}, BlockId{0}), 0);
  ASSERT_TRUE(system.sdc().state().probe_exhausted(0, 0).confirmed);

  system.pu_move(2, 1);
  oracle.pu_move(2, BlockId{1});
  tune(2, ch0);  // full column at block 1: retracts the block-0 delta cell
  ASSERT_GT(oracle.sdc().budget().at(ChannelId{0}, BlockId{0}), 0);
  EXPECT_FALSE(system.sdc().state().probe_exhausted(0, 0).confirmed);

  auto weak = request(100, 0, 1e-9);
  ASSERT_TRUE(oracle.process_request(weak).granted) << "oracle sanity";
  for (auto range : {std::make_pair(0u, 4u), std::make_pair(0u, 1u)}) {
    auto out = system.su_request(weak, range);
    EXPECT_TRUE(out.granted) << "[" << range.first << ", " << range.second << ")";
    EXPECT_FALSE(out.fast_denied);
  }
}

TEST_F(DenialFilterFixture, CuckooFalsePositiveFallsBackToFullPipeline) {
  system.add_su(100);
  // Nothing is exhausted; plant block 3's cells in the cuckoo table only —
  // the exact set stays empty, exactly what a fingerprint collision looks
  // like. The screen must fall through to the full pipeline and grant.
  for (std::uint32_t g = 0; g < cfg.channel_groups(); ++g)
    system.sdc().test_state().test_inject_filter_collision(g, 3);
  auto req = request(100, 3, 1e-4);
  auto out = system.su_request(req, std::make_pair(3u, 4u));
  EXPECT_TRUE(out.granted);
  EXPECT_FALSE(out.fast_denied);
  const auto& stats = system.sdc().stats();
  EXPECT_GE(stats.prefilter_false_positives, 1u);
  EXPECT_EQ(stats.prefilter_hits, 0u);
  EXPECT_EQ(stats.prefilter_misses, 1u);
}

TEST_F(DenialFilterFixture, FastDenyReplyIsFixedSizeAndPadded) {
  system.add_su(100);
  exhaust_block0();
  auto out = system.su_request(request(100, 0, 1e-4), std::make_pair(0u, 1u));
  ASSERT_TRUE(out.fast_denied);

  // The deny reply is exactly kWireBytes on the wire — independent of the
  // grid, channel count or which cell tripped the filter — so its size
  // cannot leak anything about the exhausted set.
  bool saw_deny = false;
  for (const auto& rec : system.network().audit_log("su_100")) {
    if (rec.type != kMsgFastDeny) continue;
    saw_deny = true;
    EXPECT_EQ(rec.bytes, FastDenyMsg::kWireBytes);
  }
  EXPECT_TRUE(saw_deny);
  EXPECT_EQ(out.response_bytes, FastDenyMsg::kWireBytes);

  // The codec enforces the all-zero pad, so no implementation can smuggle
  // channel-identifying bytes into the reply without tests noticing.
  auto bytes = FastDenyMsg{77}.encode();
  ASSERT_EQ(bytes.size(), FastDenyMsg::kWireBytes);
  EXPECT_NO_THROW(FastDenyMsg::decode(bytes));
  bytes.back() = 1;
  EXPECT_THROW(FastDenyMsg::decode(bytes), net::DecodeError);

  // The probe leg leaks no coordinates either: probes for different blocks
  // and channels are the same size on the wire.
  std::vector<std::size_t> probe_sizes;
  for (const auto& rec : system.network().audit_log("stp")) {
    if (rec.type == kMsgBudgetProbe) probe_sizes.push_back(rec.bytes);
  }
  ASSERT_GE(probe_sizes.size(), 2u);
  EXPECT_EQ(std::set<std::size_t>(probe_sizes.begin(), probe_sizes.end()).size(),
            1u)
      << "single-block probes must be indistinguishable by size";
}

TEST_F(DenialFilterFixture, ThresholdStpProbesAndFastDenies) {
  PisaConfig tcfg = cfg;
  tcfg.threshold_stp = true;
  crypto::ChaChaRng trng{std::uint64_t{777}};
  PisaSystem tsystem{tcfg, filter_sites(), model, trng};
  watch::PlainWatch toracle{tcfg.watch, filter_sites(), model};
  tsystem.add_su(100);
  for (std::uint32_t pu : {0u, 1u, 2u}) {
    tsystem.pu_update(pu, watch::PuTuning{ChannelId{0}, 1e-6});
    toracle.pu_update(pu, watch::PuTuning{ChannelId{0}, 1e-6});
  }
  EXPECT_GT(tsystem.stp().probes_served(), 0u);
  ASSERT_GT(tsystem.sdc().state().exhausted_entries(), 0u);

  auto req = watch::SuRequest{100, BlockId{0},
                              std::vector<double>(tcfg.watch.channels, 1e-4)};
  auto out = tsystem.su_request(req, std::make_pair(0u, 1u));
  EXPECT_FALSE(out.granted);
  EXPECT_TRUE(out.fast_denied);
  auto grant = watch::SuRequest{100, BlockId{3},
                                std::vector<double>(tcfg.watch.channels, 1e-4)};
  EXPECT_TRUE(tsystem.su_request(grant, std::make_pair(3u, 4u)).granted);
}

TEST(DenialFilterPacked, PackedSlotsSweepMatchesOracle) {
  // pack_slots = 4 over 6 channels: 2 groups, the second with two real
  // slots and two always-positive tail slots — the probe decoder must skip
  // the padding or clean groups would be marked exhausted.
  PisaConfig cfg = filter_config();
  cfg.watch.channels = 6;
  cfg.pack_slots = 4;
  crypto::ChaChaRng rng{std::uint64_t{606}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  PisaSystem system{cfg, filter_sites(), model, rng};
  watch::PlainWatch oracle{cfg.watch, filter_sites(), model};
  system.add_su(100);

  crypto::ChaChaRng scenario{std::uint64_t{17}};
  std::size_t denies = 0, grants = 0;
  for (int round = 0; round < 8; ++round) {
    for (std::uint32_t pu = 0; pu < 3; ++pu) {
      watch::PuTuning t;
      if (scenario.next_u64() % 4 != 0) {
        // Bias onto channel 5 (a tail-adjacent slot of group 1) half the
        // time so packing edges get exercised.
        std::uint32_t c = (scenario.next_u64() % 2) ? 5u
                          : static_cast<std::uint32_t>(scenario.next_u64() %
                                                       cfg.watch.channels);
        t.channel = ChannelId{c};
        t.signal_mw = 1e-6;
      }
      system.pu_update(pu, t);
      oracle.pu_update(pu, t);
    }
    std::uint32_t block = static_cast<std::uint32_t>(scenario.next_u64() % 4);
    watch::SuRequest req{100, BlockId{block},
                         std::vector<double>(cfg.watch.channels, 1e-4)};
    auto f = system.build_f(req);
    const std::int64_t x = cfg.watch.protection_scalar();
    bool expected = true;
    for (std::uint32_t c = 0; c < cfg.watch.channels && expected; ++c)
      if (oracle.sdc().budget().at(ChannelId{c}, BlockId{block}) -
              x * f.at(ChannelId{c}, BlockId{block}) <=
          0)
        expected = false;
    auto out = system.su_request(req, std::make_pair(block, block + 1));
    EXPECT_EQ(out.granted, expected) << "round " << round << " block " << block;
    (expected ? grants : denies)++;
  }
  EXPECT_GT(grants, 0u);
  EXPECT_GT(denies, 0u);
  EXPECT_GT(system.sdc().stats().prefilter_hits, 0u);
}

// Seeded PU churn over both update paths at once: each event moves, toggles
// or retunes one PU, and a coin sends it as a full column or as a delta.
// After every event the filter may only confirm a group that PlainWatch has
// exhausted, and a weak SU at each block gets PlainWatch's decision. Eight
// scenario seeds per pack layout; a full column that retracts a delta cell
// off its own blocks while that cell is confirmed exhausted is the rare
// event the sweep exists to reach.
class DenialFilterMixedPaths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DenialFilterMixedPaths, FilterTracksOracleAcrossColumnsAndDeltas) {
  PisaConfig cfg = filter_config();
  cfg.watch.channels = 3;  // pack 2: the second group has a tail slot
  cfg.pack_slots = GetParam();
  const std::size_t k = cfg.pack_slots;
  const std::uint32_t blocks = 4;
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  std::size_t columns = 0, deltas = 0, confirmed = 0, denies = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    crypto::ChaChaRng rng{seed};
    PisaSystem system{cfg, filter_sites(), model, rng};
    watch::PlainWatch oracle{cfg.watch, filter_sites(), model};
    system.add_su(100);
    std::vector<watch::PuTuning> tuning(filter_sites().size());
    crypto::ChaChaRng scenario{seed};
    auto draw = [&](std::uint64_t n) { return scenario.next_u64() % n; };
    for (int event = 0; event < 24; ++event) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " event " +
                   std::to_string(event));
      const auto pu = static_cast<std::uint32_t>(draw(tuning.size()));
      auto& t = tuning[pu];
      switch (draw(3)) {
        case 0: {  // move, biased onto blocks 0 and 1 so PUs pile up
          const auto b = static_cast<std::uint32_t>(draw(4) < 3 ? draw(2)
                                                                : draw(blocks));
          system.pu_move(pu, b);
          oracle.pu_move(pu, BlockId{b});
          break;
        }
        case 1:  // on/off toggle
          t = t.channel ? watch::PuTuning{}
                        : watch::PuTuning{ChannelId{0}, 1e-6};
          break;
        default:  // retune, biased onto channel 0
          t = {ChannelId{static_cast<std::uint32_t>(draw(4) ? 0 : draw(3))},
               1e-6};
          break;
      }
      const bool use_delta = draw(2) != 0;
      system.pu_send(pu, t, use_delta);
      oracle.pu_update(pu, t);
      (use_delta ? deltas : columns)++;

      const auto& n = oracle.sdc().budget();
      for (std::uint32_t b = 0; b < blocks; ++b) {
        for (std::uint32_t g = 0; g < cfg.channel_groups(); ++g) {
          if (!system.sdc().state().probe_exhausted(g, b).confirmed) continue;
          ++confirmed;
          bool exhausted = false;
          for (std::size_t c = g * k; c < (g + 1) * k && c < cfg.watch.channels;
               ++c)
            exhausted |=
                n.at(ChannelId{static_cast<std::uint32_t>(c)}, BlockId{b}) <= 0;
          EXPECT_TRUE(exhausted) << "filter confirms group " << g
                                 << " at block " << b
                                 << " but every channel has N > 0";
        }
        auto weak = watch::SuRequest{
            100, BlockId{b}, std::vector<double>(cfg.watch.channels, 1e-9)};
        const bool expected =
            ranged_expected(oracle, system.build_f(weak), b, b + 1);
        EXPECT_EQ(system.su_request(weak, std::make_pair(b, b + 1)).granted,
                  expected)
            << "block " << b;
        denies += expected ? 0 : 1;
      }
    }
  }
  EXPECT_GT(columns, 0u);
  EXPECT_GT(deltas, 0u);
  EXPECT_GT(confirmed, 0u) << "sweep must exercise confirmed exhaustion";
  EXPECT_GT(denies, 0u) << "sweep must exercise the deny path";
}

INSTANTIATE_TEST_SUITE_P(PackSlots, DenialFilterMixedPaths,
                         ::testing::Values(std::size_t{1}, std::size_t{2}),
                         [](const auto& info) {
                           return "pack" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pisa::core

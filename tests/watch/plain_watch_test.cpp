#include "watch/plain_watch.hpp"

#include <gtest/gtest.h>

#include "radio/pathloss.hpp"
#include "watch/tvws_baseline.hpp"

namespace pisa::watch {
namespace {

using radio::BlockId;
using radio::ChannelId;

// A 2 km × 3 km suburban area: large enough that far SUs clear the SINR
// protection of a −60 dBm TV reception while near SUs do not.
WatchConfig area_config() {
  WatchConfig cfg;
  cfg.grid_rows = 20;
  cfg.grid_cols = 30;
  cfg.block_size_m = 100.0;
  cfg.channels = 4;
  return cfg;
}

std::vector<double> all_channels_eirp(const WatchConfig& cfg, double mw) {
  return std::vector<double>(cfg.channels, mw);
}

struct PlainWatchFixture : ::testing::Test {
  WatchConfig cfg = area_config();
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  // One PU in the top-left corner, one near the middle.
  std::vector<PuSite> sites{{0, BlockId{0}}, {1, BlockId{10 * 30 + 15}}};
  PlainWatch watch{cfg, sites, model};
};

TEST_F(PlainWatchFixture, ExclusionRadiusCoversTheArea) {
  // With S_max = 36 dBm and ATSC protection, d^c is tens of kilometres —
  // every PU site is inside it for any SU in this area.
  EXPECT_GT(watch.exclusion_radius(), 3000.0);
}

TEST_F(PlainWatchFixture, AllGrantedWhenNoPuActive) {
  SuRequest req{100, BlockId{1}, all_channels_eirp(cfg, 100.0)};
  auto d = watch.process_request(req);
  EXPECT_TRUE(d.granted);
}

TEST_F(PlainWatchFixture, NearSuDeniedFarSuGranted) {
  watch.pu_update(0, PuTuning{ChannelId{2}, 1e-6});  // −60 dBm on channel 2

  // SU adjacent to the PU at full WiFi power: denied.
  SuRequest near{100, BlockId{1}, all_channels_eirp(cfg, 100.0)};
  EXPECT_FALSE(watch.process_request(near).granted);

  // Same SU, but far corner (≈3.3 km away): granted.
  SuRequest far{101, BlockId{20 * 30 - 1}, all_channels_eirp(cfg, 100.0)};
  EXPECT_TRUE(watch.process_request(far).granted);
}

TEST_F(PlainWatchFixture, RequestAvoidingThePuChannelIsGranted) {
  watch.pu_update(0, PuTuning{ChannelId{2}, 1e-6});
  // Near SU that masks out channel 2 entirely.
  auto eirp = all_channels_eirp(cfg, 100.0);
  eirp[2] = 0.0;
  SuRequest req{100, BlockId{1}, eirp};
  EXPECT_TRUE(watch.process_request(req).granted);
}

TEST_F(PlainWatchFixture, PuSwitchingFreesTheOldChannel) {
  watch.pu_update(0, PuTuning{ChannelId{2}, 1e-6});
  SuRequest near{100, BlockId{1}, all_channels_eirp(cfg, 100.0)};
  EXPECT_FALSE(watch.process_request(near).granted);

  watch.pu_update(0, PuTuning{ChannelId{3}, 1e-6});  // switch 2 → 3
  auto eirp = all_channels_eirp(cfg, 100.0);
  eirp[3] = 0.0;  // avoid the new channel
  EXPECT_TRUE(watch.process_request({100, BlockId{1}, eirp}).granted);

  watch.pu_update(0, PuTuning{});  // receiver off
  EXPECT_TRUE(watch.process_request(near).granted);
}

TEST_F(PlainWatchFixture, LowPowerSuToleratedCloser) {
  watch.pu_update(0, PuTuning{ChannelId{0}, 1e-6});
  // 10 µW SU one block away — interference at −? dBm falls below the
  // protection margin earlier than the 100 mW request.
  SuRequest strong{100, BlockId{5}, all_channels_eirp(cfg, 100.0)};
  SuRequest weak{101, BlockId{5}, all_channels_eirp(cfg, 0.01)};
  auto ds = watch.process_request(strong);
  auto dw = watch.process_request(weak);
  EXPECT_GT(dw.worst_margin, ds.worst_margin);
}

TEST_F(PlainWatchFixture, TwoPusBothProtected) {
  watch.pu_update(0, PuTuning{ChannelId{0}, 1e-6});
  watch.pu_update(1, PuTuning{ChannelId{1}, 1e-6});
  // An SU near PU 1 (mid-grid) interferes with it even though PU 0 is far.
  SuRequest req{100, BlockId{10 * 30 + 16}, all_channels_eirp(cfg, 100.0)};
  auto d = watch.process_request(req);
  EXPECT_FALSE(d.granted);
}

TEST_F(PlainWatchFixture, UnknownPuThrows) {
  EXPECT_THROW(watch.pu_update(99, PuTuning{ChannelId{0}, 1e-6}),
               std::out_of_range);
}

TEST_F(PlainWatchFixture, MovedPuIsProtectedAtItsNewBlock) {
  const PuTuning tuning{ChannelId{0}, 1e-6};
  const auto eirp = all_channels_eirp(cfg, 100.0);
  SuRequest far_corner{100, BlockId{20 * 30 - 1}, eirp};
  SuRequest beside_old{101, BlockId{1}, eirp};
  watch.pu_update(0, tuning);
  EXPECT_TRUE(watch.process_request(far_corner).granted);
  EXPECT_FALSE(watch.process_request(beside_old).granted);

  // The receiver re-registers next to the far corner and re-tunes there.
  watch.pu_move(0, BlockId{20 * 30 - 2});
  watch.pu_update(0, tuning);
  EXPECT_EQ(watch.sites()[0].block, (BlockId{20 * 30 - 2}));
  EXPECT_FALSE(watch.process_request(far_corner).granted);
  EXPECT_TRUE(watch.process_request(beside_old).granted)
      << "the old block is free once the receiver has left";

  EXPECT_THROW(watch.pu_move(99, BlockId{0}), std::out_of_range);
  EXPECT_THROW(watch.pu_move(0, BlockId{20 * 30}), std::out_of_range);
}

TEST_F(PlainWatchFixture, RequestMatrixMatchesDecisionPath) {
  watch.pu_update(0, PuTuning{ChannelId{2}, 1e-6});
  SuRequest req{100, BlockId{1}, all_channels_eirp(cfg, 100.0)};
  auto f = watch.build_request_matrix(req);
  auto direct = watch.process_request(req);
  auto via_matrix = watch.sdc().evaluate(f);
  EXPECT_EQ(direct.granted, via_matrix.granted);
  EXPECT_EQ(direct.worst_margin, via_matrix.worst_margin);
}

TEST(PlainWatchValidation, PuSiteOutsideAreaThrows) {
  WatchConfig cfg = area_config();
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  std::vector<PuSite> bad{{0, BlockId{600}}};
  EXPECT_THROW(PlainWatch(cfg, bad, model), std::out_of_range);
}

TEST(TvwsBaseline, TowerOccupiesItsContour) {
  WatchConfig cfg = area_config();
  radio::ExtendedHataModel tv_model{600.0, 200.0, 10.0};
  // A 100 kW tower in the middle of the area on channel 1.
  std::vector<TvTransmitter> towers{
      {radio::Point{1500.0, 1000.0}, ChannelId{1}, 80.0}};
  TvwsBaseline tvws{cfg, towers, tv_model};

  auto area = cfg.make_area();
  auto center_block = area.block_at({1500.0, 1000.0});
  EXPECT_FALSE(tvws.channel_available(ChannelId{1}, center_block))
      << "inside the protection contour";
  EXPECT_TRUE(tvws.channel_available(ChannelId{0}, center_block))
      << "other channels unaffected";
  EXPECT_EQ(tvws.total_pairs(), cfg.channels * area.num_blocks());
  EXPECT_LT(tvws.available_pairs(), tvws.total_pairs());
}

TEST(TvwsBaseline, WatchStrictlyBeatsStaticTvws) {
  // The paper's motivating comparison: with an active tower on channel 1 but
  // *no active receiver*, TVWS forbids the whole contour while WATCH grants.
  WatchConfig cfg = area_config();
  radio::ExtendedHataModel tv_model{600.0, 200.0, 10.0};
  radio::ExtendedHataModel su_model{600.0, 30.0, 10.0};
  std::vector<TvTransmitter> towers{
      {radio::Point{1500.0, 1000.0}, ChannelId{1}, 80.0}};
  TvwsBaseline tvws{cfg, towers, tv_model};
  PlainWatch watch{cfg, {{0, BlockId{0}}}, su_model};  // receiver exists but is off

  auto area = cfg.make_area();
  auto block = area.block_at({1500.0, 1000.0});
  EXPECT_FALSE(tvws.channel_available(ChannelId{1}, block));
  std::vector<double> eirp(cfg.channels, 0.0);
  eirp[1] = 100.0;
  EXPECT_TRUE(watch.process_request({100, block, eirp}).granted)
      << "no active receiver ⇒ WATCH allows the transmission TVWS forbids";
}

}  // namespace
}  // namespace pisa::watch

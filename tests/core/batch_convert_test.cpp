// Cross-request conversion batching (DESIGN.md §3.5): the SDC's
// ConvertBatcher must be a pure round-trip optimisation — outcomes
// byte-identical to the per-request conversion path for every batch
// composition, at every pack_slots, in threshold-STP mode, whatever the
// STP's randomizer cache holds — while collapsing N SDC↔STP round-trips
// into one.
#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/stp_server.hpp"
#include "crypto/chacha_rng.hpp"
#include "radio/pathloss.hpp"
#include "watch/plain_watch.hpp"

namespace pisa::core {
namespace {

using radio::BlockId;
using radio::ChannelId;

// 1×4 grid, C = 2 → 8 blinded entries per full-privacy request (at
// pack_slots = 1); 512-bit Paillier keeps the multi-system sweeps cheap.
PisaConfig batch_config() {
  PisaConfig cfg;
  cfg.watch.grid_rows = 1;
  cfg.watch.grid_cols = 4;
  cfg.watch.block_size_m = 500.0;
  cfg.watch.channels = 2;
  cfg.paillier_bits = 512;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  return cfg;
}

constexpr std::size_t kSus = 8;

std::vector<watch::PuSite> one_site() { return {{0, BlockId{0}}}; }

std::vector<watch::SuRequest> burst_requests(const PisaConfig& cfg) {
  std::vector<watch::SuRequest> reqs;
  for (std::uint32_t i = 0; i < kSus; ++i) {
    // Alternate loud (denied near the PU) and quiet (granted) across the
    // grid so the burst exercises both decisions.
    double mw = (i % 2 == 0) ? 100.0 : 0.0001;
    reqs.push_back({i + 1, BlockId{i % 4},
                    std::vector<double>(cfg.watch.channels, mw)});
  }
  return reqs;
}

struct BurstResult {
  // (completed, granted, serial, decrypted signature value) per request.
  // The signature value is the byte-identity witness: it is the SU's
  // decryption of G̃, so it matches across two runs only if every blinding
  // draw (α, β, ε, η), every STP factor and every conversion bit lined up.
  std::vector<std::tuple<bool, bool, std::uint64_t, bn::BigUint>> outcomes;
  PisaSystem::MultiRequestStats stats;
  std::uint64_t stp_batches = 0;      // ConvertBatchMsgs the STP served
  std::uint64_t stp_conversions = 0;  // items across those batches
};

BurstResult run_burst(const PisaConfig& cfg, std::uint64_t seed = 0xBA7C4) {
  crypto::ChaChaRng rng{seed};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  auto sites = one_site();
  PisaSystem system{cfg, sites, model, rng};
  for (std::uint32_t su = 1; su <= kSus; ++su) {
    auto& client = system.add_su(su);
    // Pre-register at the SDC so key-lookup traffic does not interleave
    // with the conversion round (keeps both modes on the same event path).
    system.sdc().register_su_key(su, client.public_key());
  }
  system.pu_update(0, watch::PuTuning{ChannelId{0}, 1e-6});

  BurstResult result;
  auto outs = system.su_request_many(burst_requests(cfg), &result.stats);
  for (const auto& out : outs)
    result.outcomes.emplace_back(out.completed(), out.granted,
                                 out.license.serial, out.signature);
  result.stp_batches = system.stp().batches_served();
  result.stp_conversions = system.stp().conversions_served();
  return result;
}

TEST(BatchConvert, BatchedBurstIsByteIdenticalToUnbatched) {
  auto unbatched_cfg = batch_config();  // convert_batch_max = 0
  auto batched_cfg = batch_config();
  batched_cfg.convert_batch_max = 10'000;  // whole burst in one batch

  auto unbatched = run_burst(unbatched_cfg);
  auto batched = run_burst(batched_cfg);

  ASSERT_EQ(unbatched.outcomes.size(), kSus);
  EXPECT_EQ(unbatched.outcomes, batched.outcomes)
      << "same seed, same burst: batching must not change a single output bit";
  // The whole point: one conversion message instead of one per request.
  EXPECT_EQ(unbatched.stats.convert_msgs, kSus);
  EXPECT_EQ(batched.stats.convert_msgs, 1u);
  // Unbatched, each request leaves as its own single-item kMsgConvertBatch:
  // as many batches as requests, each carrying exactly one item.
  EXPECT_EQ(unbatched.stp_batches, kSus);
  EXPECT_EQ(unbatched.stp_conversions, kSus);
  // Coalescing trades per-message headers for one batch header plus
  // per-item ids — a few bytes either way. The win is round-trips, not
  // bytes; assert the overhead stays negligible next to the payload.
  EXPECT_LE(batched.stats.convert_bytes, unbatched.stats.convert_bytes + 64)
      << "batch framing must stay a rounding error";
}

TEST(BatchConvert, OutcomesAreIndependentOfBatchComposition) {
  const std::size_t per_request = 8;  // channel_groups * blocks at pack 1
  auto one_batch = batch_config();
  one_batch.convert_batch_max = 10'000;
  auto pairs = batch_config();
  pairs.convert_batch_max = 2 * per_request;  // two requests per batch
  auto triples = batch_config();
  triples.convert_batch_max = 3 * per_request;  // 3 + 3 + 2 split

  auto a = run_burst(one_batch);
  auto b = run_burst(pairs);
  auto c = run_burst(triples);

  EXPECT_EQ(a.outcomes, b.outcomes)
      << "per-request outputs must not depend on batch boundaries";
  EXPECT_EQ(a.outcomes, c.outcomes);
  EXPECT_EQ(a.stats.convert_msgs, 1u);
  EXPECT_EQ(b.stats.convert_msgs, 4u);
  EXPECT_EQ(c.stats.convert_msgs, 3u);
}

TEST(BatchConvert, WarmPoolsPreserveByteIdentityAndStayWarm) {
  auto unbatched_cfg = batch_config();
  auto batched_cfg = unbatched_cfg;
  batched_cfg.convert_batch_max = 10'000;

  // PisaSystem refills the STP's randomizer sources after every drain, so
  // the second burst of each run converts from a warm cache while the
  // first computed every factor inline — and the bytes cannot tell.
  auto run_twice = [](const PisaConfig& cfg) {
    crypto::ChaChaRng rng{std::uint64_t{0xBA7C4}};
    radio::ExtendedHataModel model{600.0, 30.0, 10.0};
    PisaSystem system{cfg, one_site(), model, rng};
    for (std::uint32_t su = 1; su <= kSus; ++su) {
      auto& client = system.add_su(su);
      system.sdc().register_su_key(su, client.public_key());
    }
    for (std::uint32_t su = 1; su <= kSus; ++su)
      EXPECT_EQ(system.stp().pool_available(su), 0u)
          << "no conversion yet, nothing precomputed";
    system.pu_update(0, watch::PuTuning{ChannelId{0}, 1e-6});
    std::vector<bn::BigUint> signatures;
    for (int round = 0; round < 2; ++round) {
      for (const auto& out : system.su_request_many(burst_requests(cfg))) {
        EXPECT_TRUE(out.completed());
        signatures.push_back(out.signature);
      }
      for (std::uint32_t su = 1; su <= kSus; ++su)
        EXPECT_EQ(system.stp().pool_available(su), 8u)
            << "refilled to one request's worth after the burst";
    }
    EXPECT_EQ(system.stp().factors_inline(), kSus * 8);
    EXPECT_EQ(system.stp().factors_precomputed(), kSus * 8);
    return signatures;
  };
  auto unbatched = run_twice(unbatched_cfg);
  auto batched = run_twice(batched_cfg);
  EXPECT_EQ(unbatched, batched)
      << "each SU takes its own source's indices in both modes";
}

TEST(BatchConvert, BatchedDecisionsMatchPlainOracle) {
  auto cfg = batch_config();
  cfg.convert_batch_max = 10'000;

  crypto::ChaChaRng rng{std::uint64_t{0xBA7C4}};
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  auto sites = one_site();
  PisaSystem system{cfg, sites, model, rng};
  watch::PlainWatch oracle{cfg.watch, sites, model};
  for (std::uint32_t su = 1; su <= kSus; ++su) {
    auto& client = system.add_su(su);
    system.sdc().register_su_key(su, client.public_key());
  }
  auto tuning = watch::PuTuning{ChannelId{0}, 1e-6};
  system.pu_update(0, tuning);
  oracle.pu_update(0, tuning);

  auto reqs = burst_requests(cfg);
  auto outs = system.su_request_many(reqs);
  ASSERT_EQ(outs.size(), reqs.size());
  int grants = 0, denies = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(outs[i].completed());
    bool expected = oracle.process_request(reqs[i]).granted;
    EXPECT_EQ(outs[i].granted, expected) << "request " << i;
    (expected ? grants : denies) += 1;
  }
  EXPECT_GT(grants, 0);
  EXPECT_GT(denies, 0);
}

TEST(BatchConvert, ThresholdStpBatchedIsByteIdenticalToUnbatched) {
  auto unbatched_cfg = batch_config();
  unbatched_cfg.threshold_stp = true;
  auto batched_cfg = unbatched_cfg;
  batched_cfg.convert_batch_max = 10'000;

  auto unbatched = run_burst(unbatched_cfg);
  auto batched = run_burst(batched_cfg);
  EXPECT_EQ(unbatched.outcomes, batched.outcomes)
      << "per-entry SDC partials ride the batch unchanged";
  EXPECT_EQ(batched.stats.convert_msgs, 1u);
  for (const auto& outcome : batched.outcomes)
    EXPECT_TRUE(std::get<0>(outcome)) << "every threshold request completes";
}

TEST(BatchConvert, EveryPackSlotsSettingIsByteIdenticalToUnbatched) {
  for (std::size_t k : {2u, 4u}) {
    SCOPED_TRACE("pack_slots=" + std::to_string(k));
    auto unbatched_cfg = batch_config();
    unbatched_cfg.pack_slots = k;
    auto batched_cfg = unbatched_cfg;
    batched_cfg.convert_batch_max = 10'000;

    auto unbatched = run_burst(unbatched_cfg);
    auto batched = run_burst(batched_cfg);
    EXPECT_EQ(unbatched.outcomes, batched.outcomes);
    EXPECT_EQ(batched.stats.convert_msgs, 1u);
  }
}

// The sharpest byte-level check, below the SDC entirely: two STP servers
// built from identical seeds receive the same conversion work — one item
// by item, the other as a single batch — and must emit bit-identical X̃
// ciphertexts whatever either cache holds. Parameters: whether the itemwise
// server refills its cache between items (full from the second item on),
// and how many factors per SU the batch server precomputes (2 < item size
// gives a cached + inline mix).
class StpBatchBytes : public ::testing::TestWithParam<std::tuple<bool, std::size_t>> {};

TEST_P(StpBatchBytes, ConvertBatchMatchesItemwiseConvert) {
  auto [refill_itemwise, precompute] = GetParam();
  auto cfg = batch_config();

  crypto::ChaChaRng rng_a{std::uint64_t{0x51D}};
  crypto::ChaChaRng rng_b{std::uint64_t{0x51D}};
  StpServer a{cfg, rng_a};
  StpServer b{cfg, rng_b};
  ASSERT_EQ(a.group_key().n(), b.group_key().n()) << "same seed, same keys";

  crypto::ChaChaRng key_rng{std::uint64_t{0x6EA}};
  auto su_keys = crypto::paillier_generate(cfg.paillier_bits, key_rng, cfg.mr_rounds);
  for (std::uint32_t su : {1u, 2u, 3u}) {
    a.register_su_key(su, su_keys.pk);
    b.register_su_key(su, su_keys.pk);
    b.precompute_su_randomizers(su, precompute);
  }

  crypto::ChaChaRng v_rng{std::uint64_t{0x7EE}};
  ConvertBatchMsg batch;
  batch.batch_id = 9;
  const std::int64_t values[] = {5, -3, 1, -1, 40, -40, 7, 0, 2};
  for (std::uint32_t i = 0; i < 3; ++i) {
    ConvertRequestMsg item;
    item.request_id = 100 + i;
    item.su_id = i + 1;
    for (std::uint32_t j = 0; j < 3; ++j)
      item.v.push_back(a.group_key().encrypt_signed(
          bn::BigInt{values[i * 3 + j]}, v_rng));
    batch.items.push_back(std::move(item));
  }

  // Server A: item-by-item, in batch order.
  std::vector<ConvertResponseMsg> itemwise;
  for (const auto& item : batch.items) {
    ConvertRequestMsg req;
    req.request_id = item.request_id;
    req.su_id = item.su_id;
    req.v = item.v;
    itemwise.push_back(a.convert(req));
    if (refill_itemwise) a.refill_randomizers();
  }
  // Server B: one batch.
  auto batched = b.convert_batch(batch);

  ASSERT_EQ(batched.batch_id, 9u);
  ASSERT_EQ(batched.items.size(), itemwise.size());
  for (std::size_t i = 0; i < itemwise.size(); ++i) {
    EXPECT_EQ(batched.items[i].request_id, itemwise[i].request_id);
    ASSERT_EQ(batched.items[i].x.size(), itemwise[i].x.size());
    for (std::size_t j = 0; j < itemwise[i].x.size(); ++j)
      EXPECT_EQ(batched.items[i].x[j].value, itemwise[i].x[j].value)
          << "item " << i << " entry " << j << " diverged";
  }
  EXPECT_EQ(b.batches_served(), 1u);
  EXPECT_EQ(a.entries_converted(), b.entries_converted());
}

INSTANTIATE_TEST_SUITE_P(RandomnessModes, StpBatchBytes,
                         ::testing::Values(std::tuple{false, std::size_t{0}},
                                           std::tuple{false, std::size_t{2}},
                                           std::tuple{true, std::size_t{2}}));

}  // namespace
}  // namespace pisa::core

// The client side of the one-randomizer-source invariant (DESIGN.md §3.5):
// an SU request's and a PU frame's ciphertexts depend only on the client's
// seed, the source index and the plaintext — the same bytes whether the
// r^n factors were precomputed (none, some or all of them) or computed
// inline, at one lane or four. The STP side is SdcStpRandomizerSource.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pu_client.hpp"
#include "core/su_client.hpp"
#include "crypto/chacha_rng.hpp"
#include "exec/thread_pool.hpp"
#include "watch/matrices.hpp"

namespace pisa::core {
namespace {

using radio::BlockId;
using radio::ChannelId;

PisaConfig tiny_config() {
  PisaConfig cfg;
  cfg.watch.grid_rows = 1;
  cfg.watch.grid_cols = 4;
  cfg.watch.channels = 3;
  cfg.pack_slots = 2;  // two channel groups, the second with a tail slot
  cfg.paillier_bits = 768;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  return cfg;
}

const crypto::PaillierPublicKey& group_key() {
  static const crypto::PaillierKeyPair kp = [] {
    crypto::ChaChaRng rng{std::uint64_t{0x6A0}};
    return crypto::paillier_generate(768, rng, 8);
  }();
  return kp.pk;
}

/// The warm-up each run applies before a given step: none, some, or enough
/// for every ciphertext the run produces.
enum class Warmth { kCold, kPartial, kFull };

std::string label(Warmth w, std::size_t threads) {
  const char* names[] = {"cold", "partial", "full"};
  return std::string(names[static_cast<int>(w)]) + " at " +
         std::to_string(threads) + " lane(s)";
}

TEST(SuRandomizerSource, RequestBytesDoNotDependOnCacheState) {
  const auto cfg = tiny_config();
  watch::QMatrix f{cfg.watch.channels, 4, 0};
  f.at(ChannelId{0}, BlockId{1}) = 42;
  f.at(ChannelId{2}, BlockId{3}) = 7;
  const std::size_t entries = cfg.channel_groups() * 4;  // 8 packs

  std::vector<std::vector<crypto::PaillierCiphertext>> runs;
  for (std::size_t threads : {1u, 4u}) {
    for (Warmth w : {Warmth::kCold, Warmth::kPartial, Warmth::kFull}) {
      SCOPED_TRACE(label(w, threads));
      crypto::ChaChaRng rng{std::uint64_t{0x50}};
      SuClient su{1, cfg, group_key(), rng};
      su.set_thread_pool(std::make_shared<exec::ThreadPool>(threads));
      std::vector<crypto::PaillierCiphertext> bytes;
      auto request = [&](std::uint64_t rid, std::uint32_t lo, std::uint32_t hi) {
        auto msg = su.prepare_request(f, rid, lo, hi);
        bytes.insert(bytes.end(), msg.f.begin(), msg.f.end());
      };
      if (w == Warmth::kPartial) su.precompute_randomizers(3);
      if (w == Warmth::kFull) su.precompute_randomizers(2 * entries + 8);
      request(1, 0, 4);
      // A narrower second request takes the next indices; a partial warm-up
      // tops up mid-run.
      if (w == Warmth::kPartial) su.precompute_randomizers(5);
      request(2, 1, 4);
      request(3, 0, 4);
      EXPECT_EQ(su.randomizers_available(), w == Warmth::kFull ? 2u : 0u);
      runs.push_back(std::move(bytes));
    }
  }
  ASSERT_EQ(runs[0].size(), 2 * entries + 6);
  for (std::size_t i = 1; i < runs.size(); ++i) EXPECT_EQ(runs[i], runs[0]) << i;
}

TEST(PuRandomizerSource, UpdateAndDeltaBytesDoNotDependOnCacheState) {
  const auto cfg = tiny_config();
  const auto e = watch::make_e_matrix(cfg.watch);
  constexpr std::size_t kCiphertexts = 9;

  std::vector<std::vector<crypto::PaillierCiphertext>> runs;
  for (std::size_t threads : {1u, 4u}) {
    for (Warmth w : {Warmth::kCold, Warmth::kPartial, Warmth::kFull}) {
      SCOPED_TRACE(label(w, threads));
      crypto::ChaChaRng rng{std::uint64_t{0x70}};
      PuClient pu{watch::PuSite{0, BlockId{1}}, cfg, group_key(), e, rng};
      pu.set_thread_pool(std::make_shared<exec::ThreadPool>(threads));
      std::vector<crypto::PaillierCiphertext> bytes;
      auto delta = [&](const watch::PuTuning& tuning) {
        auto msg = pu.make_delta(tuning);
        ASSERT_TRUE(msg.has_value());
        for (const auto& cell : msg->cells) bytes.push_back(cell.delta);
      };
      auto update = [&](const watch::PuTuning& tuning) {
        auto msg = pu.make_update(tuning);
        bytes.insert(bytes.end(), msg.w_column.begin(), msg.w_column.end());
      };
      if (w == Warmth::kPartial) pu.precompute_randomizers(3);
      if (w == Warmth::kFull) pu.precompute_randomizers(kCiphertexts);
      update({ChannelId{0}, 1e-6});  // 2 packed groups
      delta({ChannelId{2}, 2e-6});   // leave group 0, enter group 1
      pu.move_to(2);
      if (w == Warmth::kPartial) pu.precompute_randomizers(1);
      delta({ChannelId{2}, 2e-6});   // retract block 1, enter block 2
      delta({std::nullopt, 0});      // receiver off: retract block 2
      update({ChannelId{1}, 3e-6});  // 2 packed groups
      EXPECT_EQ(pu.randomizers_available(), 0u);
      runs.push_back(std::move(bytes));
    }
  }
  ASSERT_EQ(runs[0].size(), kCiphertexts);
  for (std::size_t i = 1; i < runs.size(); ++i) EXPECT_EQ(runs[i], runs[0]) << i;
}

}  // namespace
}  // namespace pisa::core

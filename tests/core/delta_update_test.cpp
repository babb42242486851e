// §3.9 incremental delta-fold contracts at the state-engine level: a delta
// stream lands on the same decrypted budget as the equivalent full-column
// replacements (the ciphertext bytes legitimately differ — fresh randomness
// per message — so equivalence is judged after decryption), across both
// pack layouts and packs with a partial tail. Plus the durability story:
// delta WAL records replay to the same state after a crash, with the
// sequence guard keeping replays and re-deliveries exactly-once, and a
// snapshot of mixed column + delta state restores every PU's cell map.
// Malformed and stale deltas are rejected or ignored without perturbing a
// single budget byte.
#include "core/sdc_state.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <tuple>
#include <vector>

#include "crypto/chacha_rng.hpp"
#include "crypto/packing.hpp"
#include "watch/matrices.hpp"

namespace pisa::core {
namespace {

namespace fs = std::filesystem;
using radio::BlockId;
using radio::ChannelId;

PisaConfig delta_config(std::size_t pack_slots = 1, std::size_t channels = 4) {
  PisaConfig cfg;
  cfg.watch.grid_rows = 1;
  cfg.watch.grid_cols = 4;
  cfg.watch.channels = channels;
  cfg.paillier_bits = 768;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  cfg.pack_slots = pack_slots;
  return cfg;
}

/// Full packed column, like shard_engine_test's make_update.
PuUpdateMsg make_update(std::uint32_t pu, std::uint32_t block,
                        const std::vector<std::int64_t>& w,
                        const PisaConfig& cfg,
                        const crypto::PaillierPublicKey& pk,
                        crypto::ChaChaRng& rng) {
  crypto::SlotCodec codec{cfg.slot_bits(), cfg.pack_slots};
  PuUpdateMsg msg;
  msg.pu_id = pu;
  msg.block = block;
  for (std::size_t g = 0; g < cfg.channel_groups(); ++g) {
    std::vector<bn::BigInt> slots;
    for (std::size_t j = 0; j < codec.slots(); ++j) {
      std::size_t c = g * codec.slots() + j;
      slots.emplace_back(c < w.size() ? w[c] : 0);
    }
    msg.w_column.push_back(pk.encrypt_signed(codec.pack(slots), rng));
  }
  return msg;
}

/// One delta cell: (group, block, per-slot plaintext diffs). Tail slots
/// beyond the supplied values pack 0 (no contribution change).
struct CellDiff {
  std::uint32_t group = 0;
  std::uint32_t block = 0;
  std::vector<std::int64_t> slot_diffs;
};

PuDeltaMsg make_delta(std::uint32_t pu, std::uint64_t seq,
                      const std::vector<CellDiff>& cells,
                      const PisaConfig& cfg,
                      const crypto::PaillierPublicKey& pk,
                      crypto::ChaChaRng& rng) {
  crypto::SlotCodec codec{cfg.slot_bits(), cfg.pack_slots};
  PuDeltaMsg msg;
  msg.pu_id = pu;
  msg.delta_seq = seq;
  for (const auto& cell : cells) {
    std::vector<bn::BigInt> slots;
    for (std::size_t j = 0; j < codec.slots(); ++j)
      slots.emplace_back(j < cell.slot_diffs.size() ? cell.slot_diffs[j] : 0);
    msg.cells.push_back(
        {cell.group, cell.block, pk.encrypt_signed(codec.pack(slots), rng)});
  }
  return msg;
}

/// Decrypt + unpack the whole budget into its plaintext slot values — the
/// cross-path equality domain (ciphertext bytes differ between delta and
/// column messages by construction).
std::vector<bn::BigInt> decrypt_budget(const SdcStateEngine& engine,
                                       const crypto::PaillierPrivateKey& sk,
                                       const PisaConfig& cfg) {
  crypto::SlotCodec codec{cfg.slot_bits(), cfg.pack_slots};
  std::vector<bn::BigInt> out;
  const auto& b = engine.budget();
  for (std::uint32_t g = 0; g < b.channels(); ++g)
    for (std::uint32_t blk = 0; blk < b.blocks(); ++blk)
      for (auto& v :
           codec.unpack(sk.decrypt_signed(b.at(ChannelId{g}, BlockId{blk}))))
        out.push_back(v);
  return out;
}

struct DeltaWorld {
  explicit DeltaWorld(PisaConfig c)
      : cfg(std::move(c)),
        kp(crypto::paillier_generate(cfg.paillier_bits, key_rng,
                                     cfg.mr_rounds)),
        e(watch::make_e_matrix(cfg.watch)) {}

  PisaConfig cfg;
  crypto::ChaChaRng key_rng{std::uint64_t{0xD311A}};
  crypto::PaillierKeyPair kp;
  watch::QMatrix e;
  crypto::ChaChaRng rng{std::uint64_t{0x5EED}};
};

// A PU retune plus a relocation expressed once as full-column replacements
// and once as cell diffs must land on the same plaintext budget, in both
// pack layouts.
TEST(DeltaFold, MatchesColumnFoldAcrossPackLayouts) {
  for (std::size_t pack : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("pack_slots=" + std::to_string(pack));
    DeltaWorld w{delta_config(pack)};

    SdcStateEngine by_column{w.cfg, w.kp.pk, w.e};
    SdcStateEngine by_delta{w.cfg, w.kp.pk, w.e};

    auto u1 = make_update(0, 1, {5, -3, 0, 7}, w.cfg, w.kp.pk, w.rng);
    by_column.apply_pu_update(u1);
    by_delta.apply_pu_update(u1);

    // Retune in place: channel 2 goes 0 → 9 at block 1.
    auto u2 = make_update(0, 1, {5, -3, 9, 7}, w.cfg, w.kp.pk, w.rng);
    by_column.apply_pu_update(u2);
    const std::uint32_t k = static_cast<std::uint32_t>(pack);
    CellDiff retune{2 / k, 1, {}};
    retune.slot_diffs.assign(2 % k, 0);
    retune.slot_diffs.push_back(9);
    by_delta.apply_pu_delta(make_delta(0, 1, {retune}, w.cfg, w.kp.pk, w.rng));

    EXPECT_EQ(decrypt_budget(by_delta, w.kp.sk, w.cfg),
              decrypt_budget(by_column, w.kp.sk, w.cfg))
        << "retune diff must fold to the column result";

    // Relocate block 1 → 3: the column path re-sends at the new block (the
    // engine retracts the stored column); the delta path retracts and adds
    // cell by cell.
    auto u3 = make_update(0, 3, {5, -3, 9, 7}, w.cfg, w.kp.pk, w.rng);
    by_column.apply_pu_update(u3);
    std::vector<CellDiff> move_cells;
    const std::vector<std::int64_t> ws{5, -3, 9, 7};
    for (std::uint32_t g = 0; g < w.cfg.channel_groups(); ++g) {
      CellDiff leave{g, 1, {}}, enter{g, 3, {}};
      bool nonzero = false;
      for (std::uint32_t j = 0; j < k && g * k + j < ws.size(); ++j) {
        leave.slot_diffs.push_back(-ws[g * k + j]);
        enter.slot_diffs.push_back(ws[g * k + j]);
        nonzero |= ws[g * k + j] != 0;
      }
      if (!nonzero) continue;  // zero cells need no retraction
      move_cells.push_back(leave);
      move_cells.push_back(enter);
    }
    by_delta.apply_pu_delta(
        make_delta(0, 2, move_cells, w.cfg, w.kp.pk, w.rng));

    EXPECT_EQ(decrypt_budget(by_delta, w.kp.sk, w.cfg),
              decrypt_budget(by_column, w.kp.sk, w.cfg))
        << "relocation diffs must fold to the column result";
    EXPECT_EQ(by_delta.delta_cells_folded(),
              1 + move_cells.size());
  }
}

// Partial-tail pack: 6 channels packed 4 per slot leave group 1 with two
// real slots and two tail slots. A delta touching only that last partial
// pack must fold cleanly and leave the tail-fill constants alone.
TEST(DeltaFold, DeltaTouchingOnlyLastPartialPack) {
  DeltaWorld w{delta_config(/*pack_slots=*/4, /*channels=*/6)};
  SdcStateEngine by_column{w.cfg, w.kp.pk, w.e};
  SdcStateEngine by_delta{w.cfg, w.kp.pk, w.e};

  auto u1 = make_update(3, 2, {0, 0, 0, 0, 11, -4}, w.cfg, w.kp.pk, w.rng);
  by_column.apply_pu_update(u1);
  by_delta.apply_pu_update(u1);

  auto u2 = make_update(3, 2, {0, 0, 0, 0, 5, -4}, w.cfg, w.kp.pk, w.rng);
  by_column.apply_pu_update(u2);
  // Channel 4 is slot 0 of group 1: diff 5 − 11 = −6, channel 5 unchanged.
  by_delta.apply_pu_delta(
      make_delta(3, 1, {{1, 2, {-6, 0}}}, w.cfg, w.kp.pk, w.rng));

  EXPECT_EQ(decrypt_budget(by_delta, w.kp.sk, w.cfg),
            decrypt_budget(by_column, w.kp.sk, w.cfg));

  // The initial column fold dirtied both groups at block 2; the delta must
  // add nothing beyond the partial-pack cell it touched.
  auto dirty = by_delta.dirty_keys();
  ASSERT_EQ(by_delta.dirty_cells(), dirty.size());
  EXPECT_EQ(dirty, (std::vector<std::uint64_t>{
                       SdcStateEngine::cell_key(0, 2),
                       SdcStateEngine::cell_key(1, 2)}));
  EXPECT_EQ(by_delta.delta_cells_folded(), 1u);
}

// A full column replacing an accumulated delta stream must retract both the
// stored column and the deltas — the "resync" path the scenario engine
// leans on after an SDC restart. It must also report every cell it moved,
// a delta cell away from both columns' blocks included, so that exhaustion
// recorded there is dropped.
TEST(DeltaFold, FullColumnRetractsAccumulatedDeltas) {
  auto cfg = delta_config();
  cfg.denial_filter.enabled = true;
  DeltaWorld w{cfg};
  SdcStateEngine by_column{w.cfg, w.kp.pk, w.e};
  SdcStateEngine by_delta{w.cfg, w.kp.pk, w.e};

  auto u1 = make_update(0, 1, {5, -3, 0, 7}, w.cfg, w.kp.pk, w.rng);
  by_delta.apply_pu_update(u1);
  // Group 1 at block 3 lies off both columns. The delta drives its budget
  // to 0, and the engine records it exhausted, as a probe reply would.
  const std::int64_t e = w.e.at(ChannelId{1}, BlockId{3});
  by_delta.apply_pu_delta(make_delta(
      0, 1, {{0, 1, {2}}, {3, 1, {-1}}, {1, 3, {-e}}}, w.cfg, w.kp.pk, w.rng));
  by_delta.update_block_exhaustion(3, {1}, {1});
  ASSERT_TRUE(by_delta.probe_exhausted(1, 3));
  const auto before = decrypt_budget(by_delta, w.kp.sk, w.cfg);

  // Both engines now receive the same authoritative full column.
  auto u2 = make_update(0, 2, {1, 1, 1, 1}, w.cfg, w.kp.pk, w.rng);
  by_column.apply_pu_update(u2);
  const auto touched = by_delta.apply_pu_update(u2);
  const auto after = decrypt_budget(by_delta, w.kp.sk, w.cfg);

  EXPECT_EQ(after, decrypt_budget(by_column, w.kp.sk, w.cfg))
      << "column replacement must retract column + delta contributions";
  EXPECT_EQ(after[1 * 4 + 3], bn::BigInt{e}) << "N(1, 3) is back to E";

  // The new column's cells, then every retracted cell it did not re-add,
  // group-major — a superset of the cells whose budget moved.
  using Cell = SdcStateEngine::Cell;
  EXPECT_EQ(touched, (std::vector<Cell>{{0, 2}, {1, 2}, {2, 2}, {3, 2},
                                        {0, 1}, {1, 1}, {1, 3}, {2, 1},
                                        {3, 1}}));
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (after[i] == before[i]) continue;
    const Cell cell{static_cast<std::uint32_t>(i / 4),
                    static_cast<std::uint32_t>(i % 4)};
    EXPECT_NE(std::find(touched.begin(), touched.end(), cell), touched.end())
        << "unreported move at group " << cell.first << ", block "
        << cell.second;
  }

  // Invalidating exactly the reported cells (the SDC's re-probe) clears
  // the stale exhaustion.
  for (const auto& [g, b] : touched) by_delta.update_block_exhaustion(b, {g}, {});
  EXPECT_FALSE(by_delta.probe_exhausted(1, 3));
  EXPECT_EQ(by_delta.exhausted_entries(), 0u);
}

// Stale sequence numbers (replays of already-folded deltas) are silent
// no-ops — budget bytes untouched — while malformed deltas throw before any
// mutation.
TEST(DeltaFold, StaleAndMalformedDeltas) {
  DeltaWorld w{delta_config()};
  SdcStateEngine engine{w.cfg, w.kp.pk, w.e};
  engine.apply_pu_update(make_update(0, 1, {5, -3, 0, 7}, w.cfg, w.kp.pk,
                                     w.rng));
  auto d1 = make_delta(0, 1, {{0, 1, {2}}}, w.cfg, w.kp.pk, w.rng);
  engine.apply_pu_delta(d1);
  const auto before = engine.budget();

  engine.apply_pu_delta(d1);  // exact re-delivery: seq guard drops it
  EXPECT_EQ(engine.budget(), before) << "re-delivered delta must be a no-op";

  auto stale = make_delta(0, 1, {{1, 1, {9}}}, w.cfg, w.kp.pk, w.rng);
  engine.apply_pu_delta(stale);  // different cells, stale seq
  EXPECT_EQ(engine.budget(), before) << "stale seq must be dropped";

  PuDeltaMsg empty;
  empty.pu_id = 0;
  empty.delta_seq = 2;
  EXPECT_THROW(engine.apply_pu_delta(empty), std::invalid_argument);

  auto zero_seq = make_delta(0, 0, {{0, 1, {1}}}, w.cfg, w.kp.pk, w.rng);
  EXPECT_THROW(engine.apply_pu_delta(zero_seq), std::invalid_argument);

  auto bad_group = make_delta(0, 2, {{99, 1, {1}}}, w.cfg, w.kp.pk, w.rng);
  EXPECT_THROW(engine.apply_pu_delta(bad_group), std::invalid_argument);

  auto bad_block = make_delta(0, 2, {{0, 99, {1}}}, w.cfg, w.kp.pk, w.rng);
  EXPECT_THROW(engine.apply_pu_delta(bad_block), std::out_of_range);

  auto dup = make_delta(0, 2, {{0, 1, {1}}, {0, 1, {2}}}, w.cfg, w.kp.pk,
                        w.rng);
  EXPECT_THROW(engine.apply_pu_delta(dup), std::invalid_argument);

  EXPECT_EQ(engine.budget(), before) << "rejected deltas must not mutate";
}

// --- durability: delta WAL records across a crash ---------------------------

class DeltaDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pisa_delta_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// Delta-then-crash: journaled kRecDelta records replay to the same decrypted
// budget a surviving engine holds, the dirty set resets with compaction, and
// the recovered sequence guard still rejects a replayed delivery.
TEST_F(DeltaDurabilityTest, WalReplayMatchesSurvivor) {
  auto cfg = delta_config();
  cfg.durability.enabled = true;
  cfg.durability.dir = dir_.string();
  cfg.durability.snapshot_every = 1000;  // explicit checkpoints only
  DeltaWorld w{cfg};

  auto u1 = make_update(0, 1, {5, -3, 0, 7}, cfg, w.kp.pk, w.rng);
  auto d1 = make_delta(0, 1, {{0, 1, {2}}, {2, 1, {4}}}, cfg, w.kp.pk, w.rng);
  auto d2 = make_delta(0, 2, {{0, 3, {6}}}, cfg, w.kp.pk, w.rng);

  SdcStateEngine survivor{delta_config(), w.kp.pk, w.e};
  survivor.apply_pu_update(u1);
  survivor.apply_pu_delta(d1);
  survivor.apply_pu_delta(d2);

  {
    SdcStateEngine durable{cfg, w.kp.pk, w.e};
    durable.apply_pu_update(u1);
    durable.apply_pu_delta(d1);
    // Mid-stream checkpoint: d1 lands in the snapshot, d2 in the fresh WAL —
    // the dirty set must reset at the compaction boundary.
    EXPECT_GT(durable.dirty_cells(), 0u);
    durable.checkpoint();
    EXPECT_EQ(durable.dirty_cells(), 0u) << "compaction clears dirty cells";
    durable.apply_pu_delta(d2);
    EXPECT_EQ(durable.dirty_cells(), 1u) << "dirty set is delta-proportional";
    EXPECT_GT(durable.wal_bytes(), 0u);
  }  // crash: destructor without checkpoint

  SdcStateEngine recovered{cfg, w.kp.pk, w.e};
  EXPECT_TRUE(recovered.recovery_stats().ran);
  EXPECT_EQ(decrypt_budget(recovered, w.kp.sk, cfg),
            decrypt_budget(survivor, w.kp.sk, cfg))
      << "snapshot + delta WAL replay must rebuild the survivor's state";

  // Exactly-once across the crash: the recovered seq guard drops replays of
  // both already-folded deltas.
  const auto before = recovered.budget();
  recovered.apply_pu_delta(d1);
  recovered.apply_pu_delta(d2);
  EXPECT_EQ(recovered.budget(), before)
      << "recovered engine must reject re-delivered deltas";

  // And the stream continues: the next live delta folds normally.
  auto d3 = make_delta(0, 3, {{1, 0, {-2}}}, cfg, w.kp.pk, w.rng);
  recovered.apply_pu_delta(d3);
  survivor.apply_pu_delta(d3);
  EXPECT_EQ(decrypt_budget(recovered, w.kp.sk, cfg),
            decrypt_budget(survivor, w.kp.sk, cfg));
}

// Snapshot round-trip of a mixed state: one PU with a column and deltas on
// and off its block, one column-only PU and one delta-only PU. The restored
// cell maps are byte-identical — a later full column retracts them and
// lands both engines on the same bytes and the same reported cells — and
// the seq guards survive.
TEST_F(DeltaDurabilityTest, MixedColumnDeltaSnapshotRoundTrip) {
  auto cfg = delta_config(/*pack_slots=*/2);
  cfg.durability.enabled = true;
  cfg.durability.dir = dir_.string();
  cfg.durability.snapshot_every = 1000;  // explicit checkpoints only
  DeltaWorld w{cfg};

  auto u0 = make_update(0, 1, {5, -3, 0, 7}, cfg, w.kp.pk, w.rng);
  auto d0 = make_delta(0, 1, {{0, 1, {2, 0}}, {1, 3, {4, -1}}}, cfg, w.kp.pk,
                       w.rng);
  auto u1 = make_update(1, 2, {1, 2, 3, 4}, cfg, w.kp.pk, w.rng);
  auto d2 = make_delta(2, 1, {{1, 0, {-6}}}, cfg, w.kp.pk, w.rng);
  auto apply_all = [&](SdcStateEngine& engine) {
    engine.apply_pu_update(u0);
    engine.apply_pu_delta(d0);
    engine.apply_pu_update(u1);
    engine.apply_pu_delta(d2);
  };

  SdcStateEngine oracle{delta_config(2), w.kp.pk, w.e};
  apply_all(oracle);
  {
    SdcStateEngine durable{cfg, w.kp.pk, w.e};
    apply_all(durable);
    durable.checkpoint();
  }  // crash right after the checkpoint: the snapshot holds everything

  SdcStateEngine recovered{cfg, w.kp.pk, w.e};
  EXPECT_TRUE(recovered.recovery_stats().from_snapshot);
  EXPECT_EQ(recovered.recovery_stats().wal_records_replayed, 0u);
  EXPECT_EQ(recovered.budget(), oracle.budget());
  EXPECT_EQ(recovered.pu_count(), 3u);

  const auto before = recovered.budget();
  EXPECT_TRUE(recovered.apply_pu_delta(d0).empty());
  EXPECT_TRUE(recovered.apply_pu_delta(d2).empty());
  EXPECT_EQ(recovered.budget(), before) << "seq guards must survive";

  for (const auto& resync : {make_update(0, 2, {1, 1, 1, 1}, cfg, w.kp.pk, w.rng),
                             make_update(2, 3, {0, 9, 0, 0}, cfg, w.kp.pk, w.rng)}) {
    EXPECT_EQ(recovered.apply_pu_update(resync), oracle.apply_pu_update(resync));
    EXPECT_EQ(recovered.budget(), oracle.budget())
        << "restored cell maps must be byte-identical to the originals";
  }
}

}  // namespace
}  // namespace pisa::core

// SdcStateEngine contracts (DESIGN.md §3.6): recompute() landing on the
// incrementally folded bytes, snapshot round-trips across pack_slots ×
// {plain, threshold} group keys × fold lanes, WAL-only recovery,
// exactly-once folding under re-delivery, serial monotonicity across
// restarts and the configuration fingerprint that rejects durable state
// written under a different shape or key.
#include "core/sdc_state.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "core/stp_server.hpp"
#include "crypto/chacha_rng.hpp"
#include "crypto/key_codec.hpp"
#include "crypto/packing.hpp"
#include "exec/thread_pool.hpp"
#include "net/codec.hpp"
#include "store/shard_store.hpp"
#include "store/snapshot.hpp"
#include "watch/matrices.hpp"

namespace pisa::core {
namespace {

namespace fs = std::filesystem;
using radio::BlockId;
using radio::ChannelId;

PisaConfig engine_config(std::size_t pack_slots = 1, bool threshold = false) {
  PisaConfig cfg;
  cfg.watch.grid_rows = 1;
  cfg.watch.grid_cols = 4;
  cfg.watch.channels = 4;  // pack 1 → 4 groups, 2 → 2 groups, 4 → 1 group
  cfg.paillier_bits = 768;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  cfg.pack_slots = pack_slots;
  cfg.threshold_stp = threshold;
  return cfg;
}

/// One encrypted PU column in the engine's packed group layout (slot j of
/// group g carries channel g·k + j; tail slots pack 0 so the budget's
/// tail-fill constant 1 is preserved).
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

/// A deterministic batch of updates (three PUs, one retune) shared by every
/// engine under comparison — identical ciphertexts in, so identical budget
/// bytes out is a meaningful assertion.
std::vector<PuUpdateMsg> sample_updates(const PisaConfig& cfg,
                                        const crypto::PaillierPublicKey& pk) {
  crypto::ChaChaRng rng{std::uint64_t{0xABCD}};
  std::vector<PuUpdateMsg> out;
  out.push_back(make_update(0, 1, {5, -3, 0, 7}, cfg, pk, rng));
  out.push_back(make_update(1, 3, {-2, 9, 4, -1}, cfg, pk, rng));
  out.push_back(make_update(2, 0, {1, 1, -6, 2}, cfg, pk, rng));
  out.push_back(make_update(0, 2, {-5, 3, 8, 0}, cfg, pk, rng));  // PU 0 retunes
  return out;
}

// recompute() is the paper's literal eq. (9)/(10) aggregation; it must land
// on exactly the Ñ bytes the incremental folds produced.
TEST(ShardEngine, RecomputeMatchesIncrementalBytes) {
  auto cfg = engine_config();
  crypto::ChaChaRng key_rng{std::uint64_t{11}};
  auto kp = crypto::paillier_generate(cfg.paillier_bits, key_rng, cfg.mr_rounds);
  auto e = watch::make_e_matrix(cfg.watch);

  SdcStateEngine engine{cfg, kp.pk, e};
  for (const auto& u : sample_updates(cfg, kp.pk)) engine.apply_pu_update(u);
  const CipherMatrix incremental = engine.budget();
  engine.recompute();
  EXPECT_EQ(engine.budget(), incremental)
      << "recompute must land on the same bytes";
}

TEST(ShardEngine, RedeliveredUpdateIsAModularNoop) {
  // Exactly-once application: re-folding an already-applied column retracts
  // and re-adds the identical ciphertexts, leaving every budget byte alone.
  auto cfg = engine_config();
  crypto::ChaChaRng key_rng{std::uint64_t{12}};
  auto kp = crypto::paillier_generate(cfg.paillier_bits, key_rng, cfg.mr_rounds);
  auto e = watch::make_e_matrix(cfg.watch);
  auto updates = sample_updates(cfg, kp.pk);

  SdcStateEngine once{cfg, kp.pk, e};
  SdcStateEngine twice{cfg, kp.pk, e};
  for (const auto& u : updates) {
    once.apply_pu_update(u);
    twice.apply_pu_update(u);
    twice.apply_pu_update(u);  // duplicate delivery
  }
  EXPECT_EQ(twice.budget(), once.budget());
  EXPECT_EQ(twice.pu_count(), once.pu_count());
}

TEST(ShardEngine, RejectsMalformedColumns) {
  auto cfg = engine_config();
  crypto::ChaChaRng key_rng{std::uint64_t{13}};
  auto kp = crypto::paillier_generate(cfg.paillier_bits, key_rng, cfg.mr_rounds);
  SdcStateEngine engine{cfg, kp.pk, watch::make_e_matrix(cfg.watch)};

  crypto::ChaChaRng rng{std::uint64_t{1}};
  auto good = make_update(0, 1, {1, 2, 3, 4}, cfg, kp.pk, rng);
  auto short_column = good;
  short_column.w_column.pop_back();
  EXPECT_THROW(engine.apply_pu_update(short_column), std::invalid_argument);
  auto bad_block = good;
  bad_block.block = 99;
  EXPECT_THROW(engine.apply_pu_update(bad_block), std::out_of_range);
}

// --- durability: snapshot + WAL recovery ------------------------------------

class DurableEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pisa_engine_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  PisaConfig durable_config(std::size_t pack_slots = 1, bool threshold = false) {
    auto cfg = engine_config(pack_slots, threshold);
    cfg.durability.enabled = true;
    cfg.durability.dir = dir_.string();
    cfg.durability.snapshot_every = 1000;  // explicit checkpoints only
    cfg.durability.serial_reserve = 8;
    return cfg;
  }

  fs::path dir_;
};

// Snapshot round-trip across pack_slots ∈ {1, 2, 4}, both group-key
// flavours and one or four fold lanes. recover() must rebuild
// byte-identical Ñ, and the restored W̃ columns must be byte-identical too —
// proven by folding one more retune (which retracts the stored column) into
// both engines and still landing on equal bytes.
class SnapshotRoundTrip : public DurableEngineTest,
                          public ::testing::WithParamInterface<
                              std::tuple<std::size_t, bool, std::size_t>> {};

TEST_P(SnapshotRoundTrip, RecoverRebuildsByteIdenticalState) {
  const auto [pack_slots, threshold, num_threads] = GetParam();
  auto cfg = durable_config(pack_slots, threshold);
  cfg.num_threads = num_threads;
  auto pool = std::make_shared<exec::ThreadPool>(num_threads);
  crypto::ChaChaRng rng{std::uint64_t{2025}};
  StpServer stp{cfg, rng};  // plain or threshold group keygen
  auto pk = stp.group_key();
  auto e = watch::make_e_matrix(cfg.watch);
  auto updates = sample_updates(cfg, pk);

  std::uint64_t last_serial = 0;
  {
    SdcStateEngine engine{cfg, pk, e};
    engine.set_thread_pool(pool);
    ASSERT_TRUE(engine.durable());
    engine.apply_pu_update(updates[0]);
    engine.apply_pu_update(updates[1]);
    for (int i = 0; i < 5; ++i) last_serial = engine.next_serial();
    engine.checkpoint();  // sealed snapshot, fresh WAL
    engine.apply_pu_update(updates[2]);  // lands in the post-snapshot WAL
    engine.apply_pu_update(updates[3]);

    // In-memory reference for the recovered engine to match.
    SdcStateEngine oracle{engine_config(pack_slots, threshold), pk, e};
    for (const auto& u : updates) oracle.apply_pu_update(u);
    ASSERT_EQ(engine.budget(), oracle.budget()) << "journaling must not perturb";
  }

  SdcStateEngine recovered{cfg, pk, e};
  recovered.set_thread_pool(pool);
  SdcStateEngine oracle{engine_config(pack_slots, threshold), pk, e};
  for (const auto& u : updates) oracle.apply_pu_update(u);

  EXPECT_EQ(recovered.budget(), oracle.budget()) << "Ñ byte-identical";
  EXPECT_EQ(recovered.pu_count(), oracle.pu_count());
  const auto& stats = recovered.recovery_stats();
  EXPECT_TRUE(stats.ran);
  EXPECT_TRUE(stats.from_snapshot);
  EXPECT_GT(stats.wal_records_replayed, 0u) << "post-snapshot WAL replayed";
  EXPECT_GE(stats.recover_ms, 0.0);

  // Serial chunk reservation: strictly monotonic across the restart.
  auto next = recovered.next_serial();
  EXPECT_GT(next, last_serial);
  EXPECT_LE(next, last_serial + cfg.durability.serial_reserve);

  // W̃ byte-identity: a retune retracts the stored column; identical stored
  // bytes ⇒ identical result bytes.
  crypto::ChaChaRng retune_rng{std::uint64_t{77}};
  auto retune = make_update(1, 2, {4, -4, 4, -4}, cfg, pk, retune_rng);
  recovered.apply_pu_update(retune);
  oracle.apply_pu_update(retune);
  EXPECT_EQ(recovered.budget(), oracle.budget())
      << "restored W̃ columns must be byte-identical to the originals";
}

INSTANTIATE_TEST_SUITE_P(
    PackAndKeyFlavours, SnapshotRoundTrip,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}),
                       ::testing::Bool(),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    [](const auto& info) {
      const std::size_t lanes = std::get<2>(info.param);
      return "pack" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_threshold" : "_plain") +
             (lanes == 1 ? "" : "_" + std::to_string(lanes) + "lanes");
    });

TEST_F(DurableEngineTest, WalOnlyRecoveryWithoutAnySnapshot) {
  auto cfg = durable_config();
  crypto::ChaChaRng key_rng{std::uint64_t{21}};
  auto kp = crypto::paillier_generate(cfg.paillier_bits, key_rng, cfg.mr_rounds);
  auto e = watch::make_e_matrix(cfg.watch);
  auto updates = sample_updates(cfg, kp.pk);
  {
    SdcStateEngine engine{cfg, kp.pk, e};
    for (const auto& u : updates) engine.apply_pu_update(u);
    EXPECT_GT(engine.wal_records(), 0u);
    EXPECT_EQ(engine.snapshots_written(), 0u);
  }
  SdcStateEngine recovered{cfg, kp.pk, e};
  SdcStateEngine oracle{engine_config(), kp.pk, e};
  for (const auto& u : updates) oracle.apply_pu_update(u);
  EXPECT_EQ(recovered.budget(), oracle.budget());
  EXPECT_FALSE(recovered.recovery_stats().from_snapshot);
  EXPECT_EQ(recovered.recovery_stats().wal_records_replayed, updates.size())
      << "every journaled column replays exactly once";
}

TEST_F(DurableEngineTest, AutoCompactionKeepsRecoveryEquivalent) {
  auto cfg = durable_config();
  cfg.durability.snapshot_every = 3;  // compacts mid-run
  crypto::ChaChaRng key_rng{std::uint64_t{22}};
  auto kp = crypto::paillier_generate(cfg.paillier_bits, key_rng, cfg.mr_rounds);
  auto e = watch::make_e_matrix(cfg.watch);
  auto updates = sample_updates(cfg, kp.pk);
  {
    SdcStateEngine engine{cfg, kp.pk, e};
    for (const auto& u : updates) engine.apply_pu_update(u);
    for (const auto& u : updates) engine.apply_pu_update(u);  // more churn
    EXPECT_GT(engine.snapshots_written(), 0u) << "threshold must trigger";
  }
  SdcStateEngine recovered{cfg, kp.pk, e};
  SdcStateEngine oracle{engine_config(), kp.pk, e};
  for (const auto& u : updates) oracle.apply_pu_update(u);
  for (const auto& u : updates) oracle.apply_pu_update(u);
  EXPECT_EQ(recovered.budget(), oracle.budget());
}

TEST_F(DurableEngineTest, ConfigFingerprintMismatchThrows) {
  auto cfg = durable_config(/*pack_slots=*/2);
  crypto::ChaChaRng key_rng{std::uint64_t{23}};
  auto kp = crypto::paillier_generate(cfg.paillier_bits, key_rng, cfg.mr_rounds);
  {
    SdcStateEngine engine{cfg, kp.pk, watch::make_e_matrix(cfg.watch)};
    crypto::ChaChaRng rng{std::uint64_t{1}};
    engine.apply_pu_update(make_update(0, 1, {1, 2, 3, 4}, cfg, kp.pk, rng));
    engine.checkpoint();
  }
  // Same directory, different packing: ⌈C/k⌉ changes, so the durable state
  // cannot mean the same thing — recovery must refuse, not misinterpret.
  auto repacked = durable_config(/*pack_slots=*/1);
  EXPECT_THROW(
      SdcStateEngine(repacked, kp.pk, watch::make_e_matrix(repacked.watch)),
      std::runtime_error);

  // A snapshot whose header names another payload layout is refused, not
  // read as this one.
  {
    const auto snap = dir_ / "shard_0.snap";
    auto sealed = store::read_sealed_file(snap);
    ASSERT_TRUE(sealed.has_value());
    auto payload = sealed->payload;
    ASSERT_EQ(payload[4], 3u);  // second little-endian u32: the layout
    payload[4] = 4;
    store::write_sealed_file(snap, sealed->epoch, payload);
    EXPECT_THROW(SdcStateEngine(cfg, kp.pk, watch::make_e_matrix(cfg.watch)),
                 std::runtime_error);
    payload[4] = 3;
    store::write_sealed_file(snap, sealed->epoch, payload);
  }

  // Different group key: the fingerprint catches a key rotation.
  crypto::ChaChaRng other_rng{std::uint64_t{24}};
  auto other =
      crypto::paillier_generate(cfg.paillier_bits, other_rng, cfg.mr_rounds);
  EXPECT_THROW(SdcStateEngine(cfg, other.pk, watch::make_e_matrix(cfg.watch)),
               std::runtime_error);

  // The matching configuration still recovers fine afterwards.
  EXPECT_NO_THROW(SdcStateEngine(cfg, kp.pk, watch::make_e_matrix(cfg.watch)));
}

// Hand-built snapshots the engine must refuse. Layout 1 (a column section,
// then a delta section, as the engine wrote it before one cell map per PU)
// and layout 2 (one cell map per PU, then the exhausted map and a cuckoo
// table, as the engine wrote it before the exhausted map became the
// filter) are refused with the configuration error, never parsed as layout
// 3. A layout-3 snapshot whose exhausted map names a cell outside the grid
// is refused too, as an out-of-range PU cell is.
TEST_F(DurableEngineTest, LayoutOneSnapshotIsRefused) {
  auto cfg = durable_config();
  cfg.denial_filter.enabled = true;
  crypto::ChaChaRng key_rng{std::uint64_t{26}};
  auto kp = crypto::paillier_generate(cfg.paillier_bits, key_rng, cfg.mr_rounds);
  auto e = watch::make_e_matrix(cfg.watch);
  crypto::ChaChaRng rng{std::uint64_t{1}};
  auto update = make_update(0, 1, {1, 2, 3, 4}, cfg, kp.pk, rng);
  const std::size_t width = kp.pk.ciphertext_bytes();
  const auto groups = static_cast<std::uint32_t>(cfg.channel_groups());
  std::uint64_t epoch = 0;
  std::vector<std::uint8_t> budget;
  {
    SdcStateEngine engine{cfg, kp.pk, e};
    engine.apply_pu_update(update);
    engine.checkpoint();
    epoch = store::read_sealed_file(dir_ / "shard_0.snap")->epoch;
    net::Encoder enc;
    put_ciphertexts(enc, {engine.budget().begin(), engine.budget().end()}, width);
    budget = enc.take();
  }
  // Every fingerprint field but the layout matches this engine; then the
  // serial floor and Ñ.
  auto header = [&](std::uint32_t layout) {
    net::Encoder enc;
    for (std::size_t v : {std::size_t{0}, std::size_t{layout},
                          cfg.channel_groups(), std::size_t{4}, cfg.pack_slots,
                          std::size_t{cfg.slot_bits()}, width})
      enc.put_u32(static_cast<std::uint32_t>(v));
    enc.put_u64(crypto::key_fingerprint(kp.pk));
    enc.put_u64(0);  // serial floor
    enc.put_raw(budget);
    return enc;
  };
  // Layouts 2 and 3: one PU section (PU 0's column at block 1), then the
  // filter-on flag and an exhausted map of one cell.
  auto cell_map = [&](std::uint32_t layout, std::uint32_t block,
                      std::uint32_t group) {
    auto enc = header(layout);
    enc.put_u32(1);
    enc.put_u32(0);  // PU 0
    enc.put_u64(0);  // delta_seq
    enc.put_u32(groups);
    for (std::uint32_t g = 0; g < groups; ++g) {
      enc.put_u64(SdcStateEngine::cell_key(g, 1));
      enc.put_raw(update.w_column[g].value.to_bytes_be(width));
    }
    enc.put_u8(1);
    enc.put_u32(1);
    enc.put_u32(block);
    enc.put_u32(1);
    enc.put_u32(group);
    return enc;
  };

  struct Input {
    const char* name;
    std::vector<std::uint8_t> payload;
    const char* error;
  };
  std::vector<Input> inputs;
  {
    auto enc = header(1);
    enc.put_u32(1);  // columns: PU 0 at block 1
    enc.put_u32(0);
    enc.put_u32(1);
    put_ciphertexts(enc, update.w_column, width);
    enc.put_u32(0);  // delta section: no PU
    enc.put_u8(1);   // denial filter on, nothing exhausted
    enc.put_u32(0);
    inputs.push_back({"layout 1", enc.take(), "different configuration"});
  }
  {
    auto enc = cell_map(2, 0, 0);
    enc.put_bytes(std::vector<std::uint8_t>(64, 0));  // the cuckoo table
    inputs.push_back({"layout 2", enc.take(), "different configuration"});
  }
  inputs.push_back({"exhausted group = channel_groups()",
                    cell_map(3, 0, groups).take(), "out of range"});
  inputs.push_back(
      {"exhausted block = blocks", cell_map(3, 4, 0).take(), "out of range"});
  {
    // The layout-3 control: the same map with the cell in range recovers.
    store::write_sealed_file(dir_ / "shard_0.snap", epoch,
                             cell_map(3, 0, groups - 1).take());
    SdcStateEngine recovered{cfg, kp.pk, e};
    EXPECT_TRUE(recovered.probe_exhausted(groups - 1, 0));
    EXPECT_EQ(recovered.pu_count(), 1u);
  }

  for (const auto& in : inputs) {
    store::write_sealed_file(dir_ / "shard_0.snap", epoch, in.payload);
    try {
      SdcStateEngine recovered{cfg, kp.pk, e};
      ADD_FAILURE() << in.name << ": the snapshot must be refused";
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find(in.error), std::string::npos)
          << in.name << ": " << err.what();
    }
  }
}

// A kRecExhaust WAL record naming a group outside the grid is refused on
// replay, like a record with an out-of-range block.
TEST_F(DurableEngineTest, OutOfRangeExhaustionRecordIsRefused) {
  auto cfg = durable_config();
  cfg.denial_filter.enabled = true;
  crypto::ChaChaRng key_rng{std::uint64_t{27}};
  auto kp = crypto::paillier_generate(cfg.paillier_bits, key_rng, cfg.mr_rounds);
  auto e = watch::make_e_matrix(cfg.watch);
  { SdcStateEngine engine{cfg, kp.pk, e}; }
  {
    store::ShardStore store{dir_, 0};
    store.open();
    net::Encoder enc;
    enc.put_u32(0);  // block
    enc.put_u32(1);
    enc.put_u32(static_cast<std::uint32_t>(cfg.channel_groups()));
    store.append(SdcStateEngine::kRecExhaust, enc.take());
  }
  try {
    SdcStateEngine recovered{cfg, kp.pk, e};
    ADD_FAILURE() << "the WAL record must be refused";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("WAL exhaustion group"),
              std::string::npos)
        << err.what();
  }
}

TEST_F(DurableEngineTest, SerialReservationSurvivesRestartWithoutUpdates) {
  auto cfg = durable_config();
  crypto::ChaChaRng key_rng{std::uint64_t{25}};
  auto kp = crypto::paillier_generate(cfg.paillier_bits, key_rng, cfg.mr_rounds);
  auto e = watch::make_e_matrix(cfg.watch);

  std::uint64_t issued = 0;
  {
    SdcStateEngine engine{cfg, kp.pk, e};
    // Cross a chunk boundary: reserve = 8, issue 11.
    for (int i = 0; i < 11; ++i) issued = engine.next_serial();
    EXPECT_EQ(issued, 11u);
  }
  SdcStateEngine recovered{cfg, kp.pk, e};
  auto next = recovered.next_serial();
  EXPECT_GT(next, issued) << "serials must never repeat across restarts";
  EXPECT_LE(next, issued + cfg.durability.serial_reserve)
      << "a crash skips at most one chunk tail";
  // And the reservation machinery keeps journaling after recovery.
  for (int i = 0; i < 20; ++i) {
    auto s = recovered.next_serial();
    EXPECT_GT(s, next - 1);
  }
}

}  // namespace
}  // namespace pisa::core

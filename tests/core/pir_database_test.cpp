// §3.10 PIR substrate units: database row layout and XOR scan kernel,
// client share splitting/reconstruction, replica diff-proportional refresh,
// durability round trips, and the local decision evaluator against the
// plaintext SDC oracle.
#include <gtest/gtest.h>

#include <filesystem>

#include "bigint/random_source.hpp"
#include "crypto/chacha_rng.hpp"
#include "exec/thread_pool.hpp"
#include "pir/pir_client.hpp"
#include "pir/pir_database.hpp"
#include "pir/pir_replica.hpp"
#include "watch/plain_sdc.hpp"

namespace pisa::pir {
namespace {

/// The reference oracle for the scan kernel: one full sweep per share,
/// folding every selected row, the definition of a PIR answer.
std::vector<std::vector<std::uint8_t>> reference_scan(
    const PirDatabase& db,
    const std::vector<std::vector<std::uint8_t>>& shares) {
  const auto& data = db.bytes();
  std::vector<std::vector<std::uint8_t>> out;
  for (const auto& bits : shares) {
    std::vector<std::uint8_t> acc(db.row_bytes(), 0);
    for (std::size_t b = 0; b < db.rows(); ++b) {
      if ((bits[b >> 3] & (1u << (b & 7))) == 0) continue;
      for (std::size_t k = 0; k < db.row_bytes(); ++k)
        acc[k] ^= data[b * db.row_bytes() + k];
    }
    out.push_back(std::move(acc));
  }
  return out;
}

PirDatabase random_database(std::size_t channels, std::size_t rows,
                            bn::SplitMix64Random& r) {
  PirDatabase db{channels, rows};
  for (std::size_t b = 0; b < rows; ++b)
    for (std::size_t c = 0; c < channels; ++c)
      db.set_cell(c, b, static_cast<std::int64_t>(r.next_u64()));
  return db;
}

/// Uniform shares with clean tail bits, as PirClient draws them.
std::vector<std::vector<std::uint8_t>> random_shares(std::size_t count,
                                                     std::size_t rows,
                                                     bn::SplitMix64Random& r) {
  std::vector<std::vector<std::uint8_t>> shares;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::uint8_t> s((rows + 7) / 8);
    r.fill(s);
    if (rows % 8 != 0)
      s.back() &= static_cast<std::uint8_t>((1u << (rows % 8)) - 1);
    shares.push_back(std::move(s));
  }
  return shares;
}

TEST(PirDatabase, RowLayoutIsCacheLinePadded) {
  PirDatabase db{3, 5};
  EXPECT_EQ(db.rows(), 5u);
  EXPECT_EQ(db.row_bytes(), 64u);  // 3·8 = 24 → one 64-byte line
  PirDatabase wide{9, 2};
  EXPECT_EQ(wide.row_bytes(), 128u);  // 9·8 = 72 → two lines
  EXPECT_THROW(PirDatabase(0, 4), std::invalid_argument);
}

TEST(PirDatabase, CellRoundTripAndByteDeterminism) {
  PirDatabase a{4, 3}, b{4, 3};
  // Write the same values in different orders: bytes must be identical (pad
  // bytes never change), which is what replica bit-identity rests on.
  a.set_cell(0, 0, -17);
  a.set_cell(3, 2, 1'000'000'000'000LL);
  a.set_cell(1, 1, 42);
  b.set_cell(1, 1, 42);
  b.set_cell(3, 2, 1'000'000'000'000LL);
  b.set_cell(0, 0, -17);
  EXPECT_EQ(a.bytes(), b.bytes());
  EXPECT_EQ(a.cell(0, 0), -17);
  EXPECT_EQ(a.cell(3, 2), 1'000'000'000'000LL);
  EXPECT_EQ(a.cell(2, 1), 0);
  EXPECT_THROW(a.cell(4, 0), std::out_of_range);
  EXPECT_THROW(a.set_cell(0, 3, 1), std::out_of_range);
}

TEST(PirDatabase, ScanXorFoldsExactlyTheSelectedRows) {
  PirDatabase db{2, 10};
  for (std::size_t b = 0; b < 10; ++b)
    for (std::size_t c = 0; c < 2; ++c)
      db.set_cell(c, b, static_cast<std::int64_t>(100 * b + c) - 50);

  // Select rows 1, 4, 9.
  std::vector<std::uint8_t> bits(2, 0);
  bits[0] = (1u << 1) | (1u << 4);
  bits[1] = (1u << 1);  // row 9
  auto answer = db.scan_many({bits}, nullptr);
  ASSERT_EQ(answer.size(), 1u);
  const auto& out = answer[0];
  ASSERT_EQ(out.size(), db.row_bytes());
  const auto& raw = db.bytes();
  for (std::size_t k = 0; k < out.size(); ++k) {
    std::uint8_t expect = raw[1 * db.row_bytes() + k] ^
                          raw[4 * db.row_bytes() + k] ^
                          raw[9 * db.row_bytes() + k];
    ASSERT_EQ(out[k], expect) << "byte " << k;
  }
  // One short share fails the whole call, wherever it sits.
  EXPECT_THROW((void)db.scan_many({std::vector<std::uint8_t>(1, 0)}, nullptr),
               std::invalid_argument);
  EXPECT_THROW((void)db.scan_many({bits, std::vector<std::uint8_t>(1, 0)},
                                  nullptr),
               std::invalid_argument);
  EXPECT_TRUE(db.scan_many({}, nullptr).empty());
}

TEST(PirDatabase, ScanManyMatchesSequentialAtEveryThreadCount) {
  PirDatabase db{5, 33};
  bn::SplitMix64Random r{7};
  for (std::size_t b = 0; b < 33; ++b)
    for (std::size_t c = 0; c < 5; ++c)
      db.set_cell(c, b, static_cast<std::int64_t>(r.next_u64() >> 8));
  std::vector<std::vector<std::uint8_t>> shares;
  for (int i = 0; i < 9; ++i) {
    std::vector<std::uint8_t> s((33 + 7) / 8);
    r.fill(s);
    s.back() &= 0x01;  // 33 rows → 1 valid bit in byte 4
    shares.push_back(std::move(s));
  }
  auto seq = db.scan_many(shares, nullptr);
  exec::ThreadPool pool{4};
  auto par = db.scan_many(shares, &pool);
  EXPECT_EQ(seq, par);
  EXPECT_EQ(seq, reference_scan(db, shares));
}

TEST(PirDatabase, ScanManyMatchesReferenceSweepOverShapes) {
  // Row counts cover full and partial last row groups and chunks (the
  // kernel folds 4-row groups, 16 groups = 64 rows to a chunk: one group
  // ± 1, one chunk ± 1, two chunks plus a partial group), channel counts
  // one- and multi-slice rows with odd slice counts, share counts one share
  // up to more than a paper-scale request.
  bn::SplitMix64Random r{29};
  exec::ThreadPool pool{3};
  for (std::size_t rows :
       {1, 3, 4, 5, 6, 7, 63, 64, 65, 129, 130, 131, 600, 601}) {
    for (std::size_t channels : {1, 4, 8, 100, 101}) {
      auto db = random_database(channels, rows, r);
      for (std::size_t count : {1, 2, 6, 162, 300}) {
        auto shares = random_shares(count, rows, r);
        auto expect = reference_scan(db, shares);
        auto seq = db.scan_many(shares, nullptr);
        ASSERT_EQ(seq, expect)
            << "rows " << rows << " channels " << channels << " shares "
            << count;
        ASSERT_EQ(db.scan_many(shares, &pool), expect)
            << "pooled: rows " << rows << " channels " << channels
            << " shares " << count;
      }
    }
  }
}

TEST(PirDatabase, ScanIgnoresShareBitsPastTheLastRow) {
  // The codec rejects set tail bits, but the kernel must not read them
  // either: a row-by-row sweep stops at rows(), and so must every group.
  bn::SplitMix64Random r{31};
  for (std::size_t rows : {5, 7, 61, 62}) {
    auto db = random_database(9, rows, r);
    auto shares = random_shares(4, rows, r);
    auto dirty = shares;
    for (auto& s : dirty) {
      s.back() |= static_cast<std::uint8_t>(0xFF << (rows % 8));
      s.push_back(0xFF);  // a longer share than needed is accepted
    }
    EXPECT_EQ(db.scan_many(dirty, nullptr), reference_scan(db, shares))
        << "rows " << rows;
  }
}

TEST(PirClient, SharesXorToUnitVectorsAndSurviveTheCodec) {
  crypto::ChaChaRng rng{std::uint64_t{99}};
  PirClient client{7, 3, 20, rng};
  auto queries = client.make_queries(555, 4, 9);
  ASSERT_EQ(queries.size(), 3u);
  const std::size_t sb = PirQueryMsg::share_bytes(20);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(queries[i].su_id, 7u);
    EXPECT_EQ(queries[i].request_id, 555u);
    EXPECT_EQ(queries[i].db_rows, 20u);
    ASSERT_EQ(queries[i].share_count(), 5u);
    // Every share must round-trip the codec (tail bits provably zero).
    auto round = PirQueryMsg::decode(queries[i].encode());
    EXPECT_EQ(round.share_data, queries[i].share_data);
  }
  for (std::size_t k = 0; k < 5; ++k) {
    std::vector<std::uint8_t> acc(sb, 0);
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t b = 0; b < sb; ++b) acc[b] ^= queries[i].share(k)[b];
    std::vector<std::uint8_t> unit(sb, 0);
    std::size_t row = 4 + k;
    unit[row >> 3] = static_cast<std::uint8_t>(1u << (row & 7));
    EXPECT_EQ(acc, unit) << "sub-query " << k;
  }
  EXPECT_THROW(client.make_queries(1, 9, 4), std::invalid_argument);
  EXPECT_THROW(client.make_queries(1, 0, 21), std::invalid_argument);
  EXPECT_THROW((PirClient{1, 1, 20, rng}), std::invalid_argument);
}

TEST(PirClient, EndToEndReconstructionRecoversExactRows) {
  // ℓ identical replicas answer a split query; XOR of replies must equal
  // the database rows bit for bit.
  watch::QMatrix e{3, 16};
  bn::SplitMix64Random r{11};
  for (std::size_t i = 0; i < e.size(); ++i)
    e[i] = static_cast<std::int64_t>(r.next_u64() % 100000);
  PirReplica r0{e, 1}, r1{e, 1};

  PirUpdateMsg up;
  up.pu_id = 5;
  up.block = 9;
  up.w_column = {-5000, 0, 123};
  r0.apply_update(up);
  r1.apply_update(up);

  crypto::ChaChaRng rng{std::uint64_t{3}};
  PirClient client{1, 2, 16, rng};
  auto queries = client.make_queries(77, 8, 12);
  auto rows = client.reconstruct({r0.answer(queries[0], nullptr),
                                  r1.answer(queries[1], nullptr)});
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    auto values = decode_budget_row(rows[k], 3);
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(values[c], r0.database().cell(c, 8 + k))
          << "row " << 8 + k << " channel " << c;
  }
}

TEST(PirClient, ReconstructionRefusesDivergedReplies) {
  watch::QMatrix e{2, 4};
  PirReplica r0{e, 1}, r1{e, 1};
  PirUpdateMsg up;
  up.pu_id = 1;
  up.block = 0;
  up.w_column = {7, 0};
  r1.apply_update(up);  // r1 is one update ahead

  crypto::ChaChaRng rng{std::uint64_t{4}};
  PirClient client{1, 2, 4, rng};
  auto queries = client.make_queries(1, 0, 2);
  auto a = r0.answer(queries[0], nullptr);
  auto b = r1.answer(queries[1], nullptr);
  EXPECT_THROW((void)client.reconstruct({a, b}), std::runtime_error);
  EXPECT_THROW((void)client.reconstruct({a}), std::runtime_error);
}

TEST(PirReplica, DiffRefreshTouchesOnlyChangedCells) {
  watch::QMatrix e{4, 9};
  PirReplica rep{e, 1};
  EXPECT_EQ(rep.version(), 0u);

  PirUpdateMsg up;
  up.pu_id = 1;
  up.block = 2;
  up.w_column = {0, -9, 0, 0};  // one nonzero cell
  rep.apply_update(up);
  EXPECT_EQ(rep.version(), 1u);
  EXPECT_EQ(rep.cells_refreshed(), 1u);
  EXPECT_EQ(rep.database().cell(1, 2), e.at(radio::ChannelId{1}, radio::BlockId{2}) - 9);

  // Same column again: idempotent on bytes, delta-sized on refresh work
  // (retract + re-add the single nonzero cell).
  auto before = rep.database().bytes();
  rep.apply_update(up);
  EXPECT_EQ(rep.database().bytes(), before);
  EXPECT_EQ(rep.version(), 2u);
  EXPECT_EQ(rep.cells_refreshed(), 3u);

  // Moving the PU retracts the old block and folds the new one: 2 cells.
  up.block = 7;
  rep.apply_update(up);
  EXPECT_EQ(rep.cells_refreshed(), 5u);
  EXPECT_EQ(rep.database().cell(1, 2), e.at(radio::ChannelId{1}, radio::BlockId{2}));
  EXPECT_EQ(rep.database().cell(1, 7), e.at(radio::ChannelId{1}, radio::BlockId{7}) - 9);

  PirUpdateMsg bad = up;
  bad.w_column = {1, 2};  // wrong shape
  EXPECT_THROW(rep.apply_update(bad), std::invalid_argument);
  bad = up;
  bad.block = 9;
  EXPECT_THROW(rep.apply_update(bad), std::invalid_argument);
}

TEST(PirReplica, AnswerRejectsWrongWorldQueries) {
  watch::QMatrix e{2, 6};
  PirReplica rep{e, 1};
  crypto::ChaChaRng rng{std::uint64_t{6}};
  PirClient client{1, 2, 8, rng};  // 8 rows, replica has 6
  auto queries = client.make_queries(1, 0, 1);
  EXPECT_THROW((void)rep.answer(queries[0], nullptr), std::invalid_argument);
}

TEST(PirReplica, RecoversByteIdenticalDatabaseFromWalAndSnapshot) {
  auto dir = std::filesystem::temp_directory_path() /
             "pisa_pir_replica_test";
  std::filesystem::remove_all(dir);
  PirDurability dur{true, dir.string(), /*snapshot_every=*/4};

  watch::QMatrix e{3, 12};
  bn::SplitMix64Random r{21};
  for (std::size_t i = 0; i < e.size(); ++i)
    e[i] = static_cast<std::int64_t>(r.next_u64() % 5000);

  std::vector<std::uint8_t> expected;
  std::uint64_t expected_version = 0;
  {
    PirReplica rep{e, 2, dur};
    for (std::uint32_t i = 0; i < 11; ++i) {
      PirUpdateMsg up;
      up.pu_id = i % 3;
      up.block = i % 12;
      up.w_column = {static_cast<std::int64_t>(i) * 7 - 30, 0,
                     static_cast<std::int64_t>(i % 2)};
      rep.apply_update(up);
    }
    expected = rep.database().bytes();
    expected_version = rep.version();
    EXPECT_GT(rep.wal_records(), 0u);  // crash with a non-empty tail
  }
  {
    PirReplica recovered{e, 2, dur};
    EXPECT_EQ(recovered.database().bytes(), expected);
    EXPECT_EQ(recovered.version(), expected_version);
    EXPECT_EQ(recovered.pu_count(), 3u);
  }
  // A replica restarted under a different grid must refuse the store.
  watch::QMatrix other{2, 12};
  EXPECT_THROW((PirReplica{other, 2, dur}), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(PirEvaluate, MatchesPlainSdcOnTheFullGrid) {
  watch::WatchConfig wcfg;
  wcfg.grid_rows = 2;
  wcfg.grid_cols = 3;
  wcfg.channels = 3;
  auto e = watch::make_e_matrix(wcfg);
  watch::PlainSdc oracle{wcfg, e};
  PirReplica rep{e, 1};

  watch::QMatrix w{3, 6};
  w.at(radio::ChannelId{1}, radio::BlockId{4}) = -e.at(radio::ChannelId{1}, radio::BlockId{4}) - 5;
  oracle.pu_update(9, w);
  PirUpdateMsg up;
  up.pu_id = 9;
  up.block = 4;
  up.w_column = {0, w.at(radio::ChannelId{1}, radio::BlockId{4}), 0};
  rep.apply_update(up);

  bn::SplitMix64Random r{5};
  for (int round = 0; round < 20; ++round) {
    watch::QMatrix f{3, 6};
    for (std::size_t i = 0; i < f.size(); ++i)
      f[i] = static_cast<std::int64_t>(r.next_u64() % 1000);
    std::vector<std::vector<std::int64_t>> rows;
    for (std::size_t b = 0; b < 6; ++b) {
      std::vector<std::int64_t> row(3);
      for (std::size_t c = 0; c < 3; ++c) row[c] = rep.database().cell(c, b);
      rows.push_back(std::move(row));
    }
    auto expect = oracle.evaluate(f);
    auto got = evaluate_rows(wcfg, f, 0, rows);
    EXPECT_EQ(got.granted, expect.granted) << "round " << round;
    EXPECT_EQ(got.violations, expect.violations) << "round " << round;
    EXPECT_EQ(got.worst_margin, expect.worst_margin) << "round " << round;
  }

  // Non-zero F outside the fetched interval must be refused, not ignored.
  watch::QMatrix f{3, 6};
  f.at(radio::ChannelId{0}, radio::BlockId{0}) = 1;
  std::vector<std::vector<std::int64_t>> tail_rows(2, std::vector<std::int64_t>(3, 1));
  EXPECT_THROW((void)evaluate_rows(wcfg, f, 4, tail_rows), std::invalid_argument);
}

}  // namespace
}  // namespace pisa::pir

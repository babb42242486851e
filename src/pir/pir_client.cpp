#include "pir/pir_client.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>

#include "pir/pir_database.hpp"

namespace pisa::pir {

namespace {

/// dst ^= src over n bytes, a 64-bit word at a time.
void xor_into(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t b = 0;
  for (; b + 8 <= n; b += 8) {
    std::uint64_t x, y;
    std::memcpy(&x, dst + b, 8);
    std::memcpy(&y, src + b, 8);
    x ^= y;
    std::memcpy(dst + b, &x, 8);
  }
  for (; b < n; ++b) dst[b] ^= src[b];
}

/// The one evaluator behind evaluate_rows() and PirClient::decide():
/// PlainSdc::evaluate restricted to blocks [block_lo, block_lo + count),
/// with budget(k, c) the budget of channel c in fetched row k. F is walked
/// in its channel-major storage (entry (c, b) at c·blocks + b): one pass
/// checks that F is zero outside the interval and finds the extremes of F
/// inside it, which bound every F·X, so the margin pass needs no check.
template <class Budget>
watch::Decision evaluate(const watch::WatchConfig& cfg,
                         const watch::QMatrix& f_matrix,
                         std::uint32_t block_lo, std::size_t count,
                         Budget budget) {
  const std::size_t blocks = f_matrix.blocks();
  if (f_matrix.channels() != cfg.channels ||
      blocks != cfg.grid_rows * cfg.grid_cols)
    throw std::invalid_argument("evaluate_rows: F matrix shape mismatch");
  const std::size_t lo = block_lo, hi = lo + count;
  if (count == 0 || hi > blocks)
    throw std::invalid_argument("evaluate_rows: bad fetched interval");
  const std::int64_t* f = std::to_address(f_matrix.begin());
  std::int64_t outside = 0, f_min = 0, f_max = 0;  // 0·X never overflows
  for (std::size_t c = 0; c < cfg.channels; ++c) {
    const std::int64_t* col = f + c * blocks;
    for (std::size_t b = 0; b < lo; ++b) outside |= col[b];
    for (std::size_t b = lo; b < hi; ++b) {
      f_min = std::min(f_min, col[b]);
      f_max = std::max(f_max, col[b]);
    }
    for (std::size_t b = hi; b < blocks; ++b) outside |= col[b];
  }
  if (outside != 0)
    throw std::invalid_argument(
        "evaluate_rows: non-zero F entry outside the fetched interval");
  // F·X is linear in F, so its largest value over the interval sits at an
  // extreme of F.
  const std::int64_t x = cfg.protection_scalar();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  if (static_cast<__int128>(f_min) * x > kMax ||
      static_cast<__int128>(f_max) * x > kMax)
    throw std::overflow_error(
        "evaluate_rows: F*X exceeds the integer representation; reduce "
        "the quantizer scale or the protection scalar");

  watch::Decision d;
  d.worst_margin = kMax;
  for (std::size_t c = 0; c < cfg.channels; ++c) {
    const std::int64_t* col = f + c * blocks + lo;
    for (std::size_t k = 0; k < count; ++k) {
      const std::int64_t margin =
          budget(k, c) -
          static_cast<std::int64_t>(static_cast<__int128>(col[k]) * x);
      d.violations += margin <= 0;
      d.worst_margin = std::min(d.worst_margin, margin);
    }
  }
  d.granted = d.violations == 0;
  return d;
}

}  // namespace

PirClient::PirClient(std::uint32_t su_id, std::size_t replicas,
                     std::size_t db_rows, bn::RandomSource& rng)
    : su_id_(su_id), replicas_(replicas), db_rows_(db_rows), rng_(rng) {
  if (replicas_ < 2)
    throw std::invalid_argument(
        "PirClient: at least two replicas are required (a single server "
        "would see the query in the clear)");
  if (db_rows_ == 0 || db_rows_ > PirQueryMsg::kMaxRows)
    throw std::invalid_argument("PirClient: bad database row count");
}

std::vector<PirQueryMsg> PirClient::make_queries(std::uint64_t request_id,
                                                 std::uint32_t row_lo,
                                                 std::uint32_t row_hi) {
  if (row_lo >= row_hi || row_hi > db_rows_)
    throw std::invalid_argument("PirClient: bad row interval");
  const std::size_t sb = PirQueryMsg::share_bytes(db_rows_);
  const std::size_t tail_bits = sb * 8 - db_rows_;
  const std::uint8_t tail_mask =
      tail_bits > 0 ? static_cast<std::uint8_t>(0xFFu >> tail_bits) : 0xFFu;

  std::vector<PirQueryMsg> queries(replicas_);
  for (std::size_t i = 0; i < replicas_; ++i) {
    queries[i].su_id = su_id_;
    queries[i].request_id = request_id;
    queries[i].db_rows = static_cast<std::uint32_t>(db_rows_);
    queries[i].share_data.assign((row_hi - row_lo) * sb, 0);
  }

  for (std::uint32_t row = row_lo; row < row_hi; ++row) {
    // Last share = XOR of the ℓ−1 random ones ⊕ unit(row): any proper
    // subset of shares is uniform, the full XOR selects exactly `row`.
    const std::size_t at = (row - row_lo) * sb;
    std::uint8_t* last = queries[replicas_ - 1].share_data.data() + at;
    for (std::size_t i = 0; i + 1 < replicas_; ++i) {
      std::span<std::uint8_t> share{queries[i].share_data.data() + at, sb};
      rng_.fill(share);
      share.back() &= tail_mask;  // codec rejects nonzero pad bits
      xor_into(last, share.data(), sb);
    }
    last[row >> 3] ^= static_cast<std::uint8_t>(1u << (row & 7));
  }
  return queries;
}

std::vector<std::uint8_t> PirClient::reconstruct_flat(
    const std::vector<PirReplyMsg>& replies) const {
  if (replies.size() != replicas_)
    throw std::runtime_error("PirClient: reply count != replica count");
  const PirReplyMsg& first = replies.front();
  for (const auto& r : replies) {
    if (r.request_id != first.request_id)
      throw std::runtime_error("PirClient: replies span different requests");
    if (r.db_version != first.db_version)
      throw std::runtime_error(
          "PirClient: replica databases diverged mid-query (versions "
          "differ); retry once the update settles");
    if (r.row_bytes != first.row_bytes ||
        r.row_data.size() != first.row_data.size())
      throw std::runtime_error("PirClient: reply shape mismatch");
  }
  if (first.row_count() * first.row_bytes != first.row_data.size())
    throw std::runtime_error("PirClient: ragged reply row");
  std::vector<std::uint8_t> rows = first.row_data;
  for (std::size_t i = 1; i < replies.size(); ++i)
    xor_into(rows.data(), replies[i].row_data.data(), rows.size());
  return rows;
}

std::vector<std::vector<std::uint8_t>> PirClient::reconstruct(
    const std::vector<PirReplyMsg>& replies) const {
  const auto flat = reconstruct_flat(replies);
  const std::size_t width = replies.front().row_bytes;
  std::vector<std::vector<std::uint8_t>> rows(replies.front().row_count());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const auto* row = flat.data() + k * width;
    rows[k].assign(row, row + width);
  }
  return rows;
}

watch::Decision PirClient::decide(const std::vector<PirReplyMsg>& replies,
                                  const watch::WatchConfig& cfg,
                                  const watch::QMatrix& f,
                                  std::uint32_t block_lo) const {
  const auto rows = reconstruct_flat(replies);
  const std::size_t width = replies.front().row_bytes;
  if (width < cfg.channels * 8)
    throw std::invalid_argument("PirClient::decide: row too short");
  return evaluate(cfg, f, block_lo, replies.front().row_count(),
                  [&](std::size_t k, std::size_t c) {
                    return row_budget(rows.data() + k * width, c);
                  });
}

watch::Decision evaluate_rows(
    const watch::WatchConfig& cfg, const watch::QMatrix& f_matrix,
    std::uint32_t block_lo,
    const std::vector<std::vector<std::int64_t>>& rows) {
  for (const auto& r : rows)
    if (r.size() != cfg.channels)
      throw std::invalid_argument("evaluate_rows: row width mismatch");
  return evaluate(cfg, f_matrix, block_lo, rows.size(),
                  [&](std::size_t k, std::size_t c) { return rows[k][c]; });
}

}  // namespace pisa::pir

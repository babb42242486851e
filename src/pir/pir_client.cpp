#include "pir/pir_client.hpp"

#include <limits>
#include <span>
#include <stdexcept>

#include "pir/pir_database.hpp"

namespace pisa::pir {

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
    queries[i].shares.reserve(row_hi - row_lo);
  }

  for (std::uint32_t row = row_lo; row < row_hi; ++row) {
    // Last share = XOR of the ℓ−1 random ones ⊕ unit(row): any proper
    // subset of shares is uniform, the full XOR selects exactly `row`.
    std::vector<std::uint8_t> last(sb, 0);
    for (std::size_t i = 0; i + 1 < replicas_; ++i) {
      std::vector<std::uint8_t> share(sb);
      rng_.fill(share);
      share.back() &= tail_mask;  // codec rejects nonzero pad bits
      for (std::size_t k = 0; k < sb; ++k) last[k] ^= share[k];
      queries[i].shares.push_back(std::move(share));
    }
    last[row >> 3] ^= static_cast<std::uint8_t>(1u << (row & 7));
    queries[replicas_ - 1].shares.push_back(std::move(last));
  }
  return queries;
}

std::vector<std::vector<std::uint8_t>> PirClient::reconstruct(
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
    if (r.row_bytes != first.row_bytes || r.rows.size() != first.rows.size())
      throw std::runtime_error("PirClient: reply shape mismatch");
  }
  std::vector<std::vector<std::uint8_t>> rows(first.rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    rows[k] = first.rows[k];
    for (std::size_t i = 1; i < replies.size(); ++i) {
      const auto& other = replies[i].rows[k];
      if (other.size() != rows[k].size())
        throw std::runtime_error("PirClient: ragged reply row");
      for (std::size_t b = 0; b < rows[k].size(); ++b) rows[k][b] ^= other[b];
    }
  }
  return rows;
}

watch::Decision PirClient::decide(const std::vector<PirReplyMsg>& replies,
                                  const watch::WatchConfig& cfg,
                                  const watch::QMatrix& f,
                                  std::uint32_t block_lo) const {
  const auto raw = reconstruct(replies);
  std::vector<std::vector<std::int64_t>> rows;
  rows.reserve(raw.size());
  for (const auto& r : raw) rows.push_back(decode_budget_row(r, cfg.channels));
  return evaluate_rows(cfg, f, block_lo, rows);
}

watch::Decision evaluate_rows(
    const watch::WatchConfig& cfg, const watch::QMatrix& f_matrix,
    std::uint32_t block_lo,
    const std::vector<std::vector<std::int64_t>>& rows) {
  if (f_matrix.channels() != cfg.channels ||
      f_matrix.blocks() != cfg.grid_rows * cfg.grid_cols)
    throw std::invalid_argument("evaluate_rows: F matrix shape mismatch");
  const std::uint32_t block_hi =
      block_lo + static_cast<std::uint32_t>(rows.size());
  if (rows.empty() || block_hi > f_matrix.blocks())
    throw std::invalid_argument("evaluate_rows: bad fetched interval");
  for (std::size_t c = 0; c < f_matrix.channels(); ++c)
    for (std::size_t b = 0; b < f_matrix.blocks(); ++b) {
      if (b >= block_lo && b < block_hi) continue;
      if (f_matrix.at(radio::ChannelId{static_cast<std::uint32_t>(c)},
                      radio::BlockId{static_cast<std::uint32_t>(b)}) != 0)
        throw std::invalid_argument(
            "evaluate_rows: non-zero F entry outside the fetched interval");
    }

  const std::int64_t x = cfg.protection_scalar();
  watch::Decision d;
  d.worst_margin = std::numeric_limits<std::int64_t>::max();
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (rows[k].size() != cfg.channels)
      throw std::invalid_argument("evaluate_rows: row width mismatch");
    const auto b = radio::BlockId{block_lo + static_cast<std::uint32_t>(k)};
    for (std::size_t c = 0; c < cfg.channels; ++c) {
      auto wide = static_cast<__int128>(
                      f_matrix.at(
                          radio::ChannelId{static_cast<std::uint32_t>(c)}, b)) *
                  x;
      if (wide > std::numeric_limits<std::int64_t>::max())
        throw std::overflow_error(
            "evaluate_rows: F*X exceeds the integer representation; reduce "
            "the quantizer scale or the protection scalar");
      std::int64_t margin = rows[k][c] - static_cast<std::int64_t>(wide);
      if (margin <= 0) ++d.violations;
      d.worst_margin = std::min(d.worst_margin, margin);
    }
  }
  d.granted = d.violations == 0;
  return d;
}

}  // namespace pisa::pir

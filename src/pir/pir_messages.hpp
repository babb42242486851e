// Wire messages of the XOR multi-server PIR query path (DESIGN.md §3.10).
//
// Three messages, none of which carries a ciphertext:
//   * PirUpdateMsg — a PU's plaintext W column for one block, shipped to
//     every replica. In PIR mode the database operators legitimately see
//     spectrum occupancy (the Grissa/Yavuz/Hamdaoui trust model); what the
//     protocol protects is the SU's query.
//   * PirQueryMsg — one batch of XOR query shares. Each share is a bit
//     vector over the *whole* block-row database, so a replica learns only
//     how many rows the SU fetched (the §VI-A range width), never which —
//     nor even where the disclosed interval sits in the grid.
//   * PirReplyMsg — the XOR-folded row per share, plus the replica's
//     database version so the client can refuse to reconstruct across
//     diverged replicas.
//
// All three serialize through net::Encoder/Decoder with the same
// allocation-bounding discipline as core/messages.cpp: every count is
// checked against the bytes actually present before anything is reserved,
// so a mutated length field can never become a giant allocation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/codec.hpp"

namespace pisa::pir {

/// Message-type strings (same namespace convention as core's kMsg*).
inline constexpr const char* kMsgPirUpdate = "pir_update";
inline constexpr const char* kMsgPirQuery = "pir_query";
inline constexpr const char* kMsgPirReply = "pir_reply";

/// Endpoint name of replica `i` ("pir_0" is the SDC-hosted replica).
std::string replica_name(std::size_t index);

/// Plaintext PU update: the full C-entry W column (w = T − E at the tuned
/// channel, 0 elsewhere) for the PU's current block. Replicas replace the
/// PU's previous column wholesale, so re-delivery is idempotent and the
/// §3.9 delta path needs no separate plaintext message — the replica diffs
/// against its stored column and refreshes only the touched rows.
struct PirUpdateMsg {
  std::uint32_t pu_id = 0;
  std::uint32_t block = 0;
  std::vector<std::int64_t> w_column;  // C entries, channel order

  std::vector<std::uint8_t> encode() const;
  static PirUpdateMsg decode(const std::vector<std::uint8_t>& bytes);
};

/// One batch of XOR sub-query shares for one replica. Share `i` selects the
/// rows this replica must XOR-fold for the client's i-th fetched row; every
/// share is ⌈db_rows/8⌉ bytes with the unused tail bits zero. The shares sit
/// back to back in one buffer, the layout the wire and the scan kernel use.
struct PirQueryMsg {
  /// Upper bound on db_rows / share count a decode will accept; real grids
  /// are thousands of blocks, a mutated count must not allocate gigabytes.
  static constexpr std::uint32_t kMaxRows = 1u << 20;
  static constexpr std::uint32_t kMaxShares = 1u << 16;

  std::uint32_t su_id = 0;
  std::uint64_t request_id = 0;
  std::uint32_t db_rows = 0;  ///< the client's view of the row count
  std::vector<std::uint8_t> share_data;  ///< share_count() shares, in order

  static std::size_t share_bytes(std::uint32_t rows) { return (rows + 7) / 8; }
  std::size_t share_count() const {
    return db_rows == 0 ? 0 : share_data.size() / share_bytes(db_rows);
  }
  std::span<const std::uint8_t> share(std::size_t i) const {
    const std::size_t sb = share_bytes(db_rows);
    return std::span<const std::uint8_t>(share_data).subspan(i * sb, sb);
  }

  std::vector<std::uint8_t> encode() const;
  static PirQueryMsg decode(const std::vector<std::uint8_t>& bytes);
};

/// A replica's answer: one XOR-folded row per share, in share order, back to
/// back in one buffer. All rows are exactly `row_bytes` (the database's
/// 64-byte-padded row stride), so the reply's size depends only on the share
/// count and the public grid shape — nothing about which rows were selected.
struct PirReplyMsg {
  static constexpr std::uint32_t kMaxRowBytes = 1u << 20;
  static constexpr std::uint32_t kMaxRowsPerReply = 1u << 16;

  std::uint64_t request_id = 0;
  std::uint64_t db_version = 0;  ///< updates applied; reconstruction guard
  std::uint32_t row_bytes = 0;
  std::vector<std::uint8_t> row_data;  ///< row_count() rows, in share order

  std::size_t row_count() const {
    return row_bytes == 0 ? 0 : row_data.size() / row_bytes;
  }
  std::span<const std::uint8_t> row(std::size_t k) const {
    return std::span<const std::uint8_t>(row_data).subspan(k * row_bytes,
                                                           row_bytes);
  }

  std::vector<std::uint8_t> encode() const;
  static PirReplyMsg decode(const std::vector<std::uint8_t>& bytes);
};

}  // namespace pisa::pir

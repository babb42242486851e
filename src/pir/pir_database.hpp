// The PIR decision database and its XOR scan kernel (DESIGN.md §3.10).
//
// One row per block; row b holds the C per-channel interference budgets
// N(c, b) as little-endian int64, zero-padded to a 64-byte multiple so every
// row starts a cache line and the scan kernel works in whole 64-byte lines
// with no tail cases. The whole database is one contiguous byte array, and
// answering a query costs XORs over it, not modexps.
//
// Determinism contract: the stored bytes are a pure function of the cell
// values (pad bytes are never written after construction), so two replicas
// fed the same update stream hold bit-identical arrays — which is exactly
// what XOR reconstruction needs, and what the recovery chaos test pins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pisa::exec {
class ThreadPool;
}

namespace pisa::pir {

class PirDatabase {
 public:
  /// channels × blocks grid; all cells start at 0.
  PirDatabase(std::size_t channels, std::size_t blocks);

  /// Row stride of a `channels`-wide database: channels·8 rounded up to a
  /// 64-byte multiple. Clients check reply rows against it.
  static std::size_t stride(std::size_t channels) {
    return (channels * 8 + 63) / 64 * 64;
  }

  std::size_t channels() const { return channels_; }
  std::size_t rows() const { return blocks_; }
  /// Row stride: stride(channels()).
  std::size_t row_bytes() const { return row_bytes_; }
  /// Bytes per query share: one bit per row.
  std::size_t share_bytes() const { return (blocks_ + 7) / 8; }

  void set_cell(std::size_t channel, std::size_t block, std::int64_t value);
  std::int64_t cell(std::size_t channel, std::size_t block) const;

  /// The raw row storage — the byte-identity oracle for recovery tests.
  const std::vector<std::uint8_t>& bytes() const { return data_; }

  /// Answer a query: `shares` holds S shares of share_bytes() each, back to
  /// back (bit i of byte i>>3 selects row i; a size that is not a multiple
  /// of share_bytes() is std::invalid_argument). Returns the S output rows
  /// back to back, S·row_bytes() bytes; row s is the XOR of every row share s
  /// selects. All shares are served by one cache-blocked GF(2) product,
  /// shares × database, by the method of Four Russians: the database is
  /// read once per call, not once per share. The product is split into
  /// independent 64-byte column slices (slice j writes only bytes of slice j
  /// of every output), which spread over `pool` under the exec determinism
  /// contract; nullptr runs them sequentially. The output bytes do not
  /// depend on the pool or on the host CPU.
  std::vector<std::uint8_t> scan(std::span<const std::uint8_t> shares,
                                 exec::ThreadPool* pool) const;

  /// scan() over one vector per share, one vector per output row. Every
  /// share must cover rows() (longer ones are cut to share_bytes()), else
  /// std::invalid_argument.
  std::vector<std::vector<std::uint8_t>> scan_many(
      const std::vector<std::vector<std::uint8_t>>& shares,
      exec::ThreadPool* pool) const;

  /// Decode one scan/reconstruction output back into per-channel values.
  std::vector<std::int64_t> decode_row(
      const std::vector<std::uint8_t>& row) const;

 private:
  std::size_t channels_ = 0;
  std::size_t blocks_ = 0;
  std::size_t row_bytes_ = 0;
  std::vector<std::uint8_t> data_;
};

/// The budget of `channel` in one row of the database layout: the
/// little-endian int64 at byte channel·8 of `row`.
inline std::int64_t row_budget(const std::uint8_t* row, std::size_t channel) {
  std::uint64_t le = 0;
  for (int i = 0; i < 8; ++i)
    le |= static_cast<std::uint64_t>(row[channel * 8 + i]) << (8 * i);
  return static_cast<std::int64_t>(le);
}

/// Client-side row decoding: same layout as PirDatabase::decode_row without
/// needing a database instance (the SU only ever sees reconstructed rows).
std::vector<std::int64_t> decode_budget_row(const std::vector<std::uint8_t>& row,
                                            std::size_t channels);

}  // namespace pisa::pir

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
#include <vector>

namespace pisa::exec {
class ThreadPool;
}

namespace pisa::pir {

class PirDatabase {
 public:
  /// channels × blocks grid; all cells start at 0.
  PirDatabase(std::size_t channels, std::size_t blocks);

  std::size_t channels() const { return channels_; }
  std::size_t rows() const { return blocks_; }
  /// Row stride: channels·8 rounded up to a 64-byte multiple.
  std::size_t row_bytes() const { return row_bytes_; }

  void set_cell(std::size_t channel, std::size_t block, std::int64_t value);
  std::int64_t cell(std::size_t channel, std::size_t block) const;

  /// The raw row storage — the byte-identity oracle for recovery tests.
  const std::vector<std::uint8_t>& bytes() const { return data_; }

  /// Answer a query: output s is the XOR of every row whose bit is set in
  /// shares[s] (bit i of byte i>>3 selects row i; every share must cover
  /// rows(), else std::invalid_argument). All shares are served by one
  /// cache-blocked GF(2) product, shares × database, by the method of Four
  /// Russians: the database is read once per call, not once per share. The
  /// product is split into independent 64-byte column slices (slice j writes
  /// only bytes of slice j of every output), which spread over `pool` under
  /// the exec determinism contract; nullptr runs them sequentially. The
  /// output bytes do not depend on the pool or on the host CPU.
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

/// Client-side row decoding: same layout as PirDatabase::decode_row without
/// needing a database instance (the SU only ever sees reconstructed rows).
std::vector<std::int64_t> decode_budget_row(const std::vector<std::uint8_t>& row,
                                            std::size_t channels);

}  // namespace pisa::pir

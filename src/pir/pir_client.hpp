// SU-side XOR-PIR client (DESIGN.md §3.10).
//
// To fetch row r of a B-row database from ℓ non-colluding replicas, the
// client draws ℓ−1 uniformly random B-bit share vectors and sets the last
// share to their XOR ⊕ unit(r). Each replica folds the rows its share
// selects; XOR-ing the ℓ reply rows cancels every row except r. Any ℓ−1
// replicas see only uniform random bits — the fetched position is hidden
// information-theoretically, which is strictly stronger than the Paillier
// path, where the disclosed [block_lo, block_hi) interval itself leaks the
// SU's whereabouts to the SDC. A replica learns only *how many* rows a
// request fetched (the share count), never which ones.
//
// Decision parity: the reconstructed rows are the plaintext budget columns
// N(·, b); evaluate_rows() replicates PlainSdc::evaluate (same __int128
// widening, same overflow fail-loud) restricted to the fetched interval, so
// a PIR grant is bit-identical to the Paillier oracle's.
#pragma once

#include <cstdint>
#include <vector>

#include "bigint/random_source.hpp"
#include "pir/pir_messages.hpp"
#include "watch/plain_sdc.hpp"

namespace pisa::pir {

class PirClient {
 public:
  /// `replicas` ≥ 2 (one share per replica); `db_rows` must match the
  /// replicas' grid (blocks). Randomness for the shares comes from the SU's
  /// own stream — the same non-determinism boundary as Paillier blinding.
  PirClient(std::uint32_t su_id, std::size_t replicas, std::size_t db_rows,
            bn::RandomSource& rng);

  std::uint32_t su_id() const { return su_id_; }
  std::size_t replicas() const { return replicas_; }
  std::size_t db_rows() const { return db_rows_; }

  /// Split the fetch of rows [row_lo, row_hi) into one PirQueryMsg per
  /// replica (queries[i] goes to replica i; each carries row_hi−row_lo
  /// shares, sub-query k targeting row_lo+k). Throws std::invalid_argument
  /// on an empty or out-of-range interval.
  std::vector<PirQueryMsg> make_queries(std::uint64_t request_id,
                                        std::uint32_t row_lo,
                                        std::uint32_t row_hi);

  /// XOR the per-replica replies back into plaintext rows, back to back in
  /// one buffer: row k (row row_lo+k of the database) is bytes
  /// [k·row_bytes, (k+1)·row_bytes). Throws std::runtime_error when the
  /// replies disagree on version, shape or request id — replicas that
  /// diverged must not be silently mixed into one reconstruction.
  std::vector<std::uint8_t> reconstruct_flat(
      const std::vector<PirReplyMsg>& replies) const;

  /// reconstruct_flat() cut into one vector per row (rows[k] is row
  /// row_lo+k of the database).
  std::vector<std::vector<std::uint8_t>> reconstruct(
      const std::vector<PirReplyMsg>& replies) const;

  /// The SU's whole local decision for one reply set: reconstruct the rows
  /// [block_lo, …) and evaluate `f` against their budgets, read in place,
  /// exactly as evaluate_rows(). Throws like reconstruct_flat() and
  /// evaluate_rows(), and std::invalid_argument when the rows are narrower
  /// than cfg.channels budgets.
  watch::Decision decide(const std::vector<PirReplyMsg>& replies,
                         const watch::WatchConfig& cfg,
                         const watch::QMatrix& f, std::uint32_t block_lo) const;

 private:
  std::uint32_t su_id_;
  std::size_t replicas_;
  std::size_t db_rows_;
  bn::RandomSource& rng_;
};

/// Evaluate F against fetched budget rows exactly as PlainSdc::evaluate,
/// restricted to blocks [block_lo, block_lo + rows.size()): grant iff every
/// margin N − F·X in the interval is positive. `rows[k]` holds the C
/// per-channel budgets of block block_lo+k (PirDatabase::decode_row output).
/// Throws std::invalid_argument when a non-zero F entry falls outside the
/// fetched interval — interference the decision would silently ignore — and
/// std::overflow_error on F·X headroom exhaustion, like the plaintext oracle.
watch::Decision evaluate_rows(const watch::WatchConfig& cfg,
                              const watch::QMatrix& f_matrix,
                              std::uint32_t block_lo,
                              const std::vector<std::vector<std::int64_t>>& rows);

}  // namespace pisa::pir

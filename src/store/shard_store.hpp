// Durable backing for one state store — the SDC state engine, or a PIR
// replica (DESIGN.md §3.6):
// a sealed snapshot plus the write-ahead log of mutations since it.
//
// Crash-consistency protocol:
//   * append() journals a mutation before the in-memory apply; a torn final
//     record (crash mid-append) is truncated away on the next open().
//   * compact() bumps the epoch, atomically replaces the snapshot, starts a
//     fresh WAL named for the new epoch, then deletes the old log. A crash
//     anywhere inside that sequence is safe: recovery only replays the log
//     whose epoch matches the surviving snapshot, so a stale log left by a
//     half-finished compaction is discarded instead of double-applied.
//
// On-disk layout inside the store directory:
//   shard_<i>.snap          sealed snapshot, carries its epoch
//   shard_<i>.<epoch>.wal   mutations since the epoch's snapshot
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "store/wal.hpp"

namespace pisa::store {

class ShardStore {
 public:
  /// What open() salvaged from disk: the latest snapshot payload (if any)
  /// and every WAL record that survives the seal checks, in append order.
  struct Recovered {
    std::optional<std::vector<std::uint8_t>> snapshot;
    std::vector<WalRecord> wal;
    std::uint64_t epoch = 0;
    bool torn_tail_dropped = false;
    std::uint64_t stale_logs_removed = 0;
  };

  /// Creates `dir` if needed. Call open() before append()/compact().
  ShardStore(std::filesystem::path dir, std::size_t shard_index);

  /// Recover: load + verify the snapshot, replay-scan its epoch's WAL
  /// (truncating any torn tail), delete stale-epoch logs, and leave the log
  /// open for appending. Throws std::runtime_error on a corrupt snapshot.
  Recovered open();

  /// Journal one mutation record (flushed before returning).
  void append(std::uint8_t type, std::span<const std::uint8_t> payload);

  /// Persist `payload` as the next-epoch snapshot and reset the WAL.
  void compact(std::span<const std::uint8_t> payload);

  std::uint64_t epoch() const { return epoch_; }
  /// Records appended since the last open()/compact() — the engine's
  /// auto-compaction trigger counts these.
  std::uint64_t wal_records() const { return wal_ ? wal_->records_appended() : 0; }
  std::uint64_t wal_bytes() const { return wal_ ? wal_->bytes() : 0; }
  std::uint64_t snapshots_written() const { return snapshots_written_; }
  const std::filesystem::path& dir() const { return dir_; }
  std::filesystem::path snapshot_path() const;
  std::filesystem::path wal_path(std::uint64_t epoch) const;

 private:
  std::uint64_t remove_stale_logs(std::uint64_t keep_epoch) const;

  std::filesystem::path dir_;
  std::size_t index_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t snapshots_written_ = 0;
  std::unique_ptr<WalWriter> wal_;
};

}  // namespace pisa::store

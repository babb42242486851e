// Append-only write-ahead log of encrypted state mutations (DESIGN.md §3.6).
//
// The SDC state engine journals its mutations here *before* applying them
// in memory, so a crash between the append and the in-memory fold loses
// nothing: recovery replays the log over the last snapshot and
// reconstructs byte-identical state. Records reuse the net/codec CRC-32
// seal: a torn final record — the only corruption an interrupted append can
// produce — fails its length or CRC check and is truncated away cleanly
// instead of being parsed as garbage. Mid-log damage (disk corruption) is
// handled the same conservative way: the log is valid exactly up to the
// first record that does not verify.
//
// File layout (little-endian):
//   header   u32 magic "LAWP" | u8 version | u64 epoch
//   record   u32 len | u8 type | payload[len-1] | u32 crc32(type ‖ payload)
//
// The epoch ties a log to the snapshot generation it extends; ShardStore
// uses it to discard stale logs after a crash mid-compaction.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

namespace pisa::store {

inline constexpr std::uint32_t kWalMagic = 0x5057'414Cu;  // "LAWP" on disk
inline constexpr std::uint8_t kWalVersion = 1;
/// Upper bound on a single record's (type + payload) size; a garbage length
/// field beyond it is classified as a torn tail before any allocation.
inline constexpr std::uint32_t kWalMaxRecordBytes = 1u << 30;

struct WalRecord {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;

  bool operator==(const WalRecord&) const = default;
};

struct WalReadResult {
  /// False when the file is missing or its header is truncated/mismatched
  /// (the log then contributes nothing and is rewritten from scratch).
  bool header_valid = false;
  std::uint64_t epoch = 0;
  std::vector<WalRecord> records;
  /// True when trailing bytes after the last verified record failed a
  /// length or CRC check — a crash mid-append.
  bool torn_tail = false;
  /// Length of the file prefix that verified cleanly; WalWriter truncates
  /// the file to this before appending again.
  std::uint64_t valid_bytes = 0;
  std::uint64_t dropped_bytes = 0;
};

/// Scan a log, verifying every record seal. Never throws on torn or
/// corrupt input — the result reports exactly how much survived.
WalReadResult read_wal(const std::filesystem::path& file);

class WalWriter {
 public:
  /// Open `file` for appending with `keep_bytes` of verified prefix (from
  /// read_wal::valid_bytes): anything after it is truncated away. A missing
  /// file — or keep_bytes too short to hold a header — starts a fresh log
  /// whose header carries `epoch`.
  WalWriter(std::filesystem::path file, std::uint64_t epoch,
            std::uint64_t keep_bytes = 0);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Append one sealed record and flush it to the OS. The record is
  /// readable by read_wal as soon as this returns.
  void append(std::uint8_t type, std::span<const std::uint8_t> payload);

  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t records_appended() const { return appended_; }
  /// Current log size (header + every surviving record).
  std::uint64_t bytes() const { return bytes_; }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
  std::ofstream out_;
  std::uint64_t epoch_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace pisa::store

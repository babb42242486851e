// Sealed snapshot files (DESIGN.md §3.6).
//
// A snapshot is the periodic full serialization of one store's state (the
// SDC's Ñ budget, W̃ columns and counters); the WAL only has to carry
// mutations since the last one. Files are written atomically — payload to a
// temporary sibling, fsynced stream, then std::filesystem::rename — so a
// crash during compaction leaves either the old snapshot or the new one,
// never a torn hybrid. The CRC-32 trailer (net/codec's seal) catches disk
// damage: unlike a torn WAL tail, a snapshot that fails its seal is
// unrecoverable state, so reading one THROWS instead of silently degrading.
//
// File layout (little-endian):
//   u32 magic "PANS" | u8 version | u64 epoch | u64 payload_len |
//   payload | u32 crc32(header ‖ payload)
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <vector>

namespace pisa::store {

inline constexpr std::uint32_t kSnapshotMagic = 0x534E'4150u;  // "PANS" on disk
inline constexpr std::uint8_t kSnapshotVersion = 1;

struct SealedFile {
  std::uint64_t epoch = 0;
  std::vector<std::uint8_t> payload;
};

/// Atomically persist `payload` under `file` (tmp sibling + rename).
void write_sealed_file(const std::filesystem::path& file, std::uint64_t epoch,
                       std::span<const std::uint8_t> payload);

/// Load and verify a sealed file. nullopt when the file does not exist;
/// std::runtime_error when it exists but fails the magic/length/CRC checks
/// (corrupt durable state must abort recovery, not fake an empty store).
std::optional<SealedFile> read_sealed_file(const std::filesystem::path& file);

}  // namespace pisa::store

// ChaCha20-based cryptographically strong pseudo-random generator.
//
// Implements bn::RandomSource so it can drive prime generation, Paillier
// nonce selection and the protocol's blinding factors. Seedable explicitly
// (reproducible simulations) or from the operating system.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "bigint/random_source.hpp"

namespace pisa::crypto {

class ChaChaRng final : public bn::RandomSource {
 public:
  static constexpr std::size_t kSeedSize = 32;

  /// Deterministic stream from a 32-byte seed.
  explicit ChaChaRng(const std::array<std::uint8_t, kSeedSize>& seed);

  /// Deterministic sub-stream: the same 32-byte key, but ChaCha20 nonce
  /// words set to `stream_id`. Streams with distinct ids produce
  /// independent keystreams (the cipher's standard multi-stream use), so a
  /// batch job can hand stream i to task i and get results that do not
  /// depend on which thread runs the task. stream_id 0 is the plain
  /// single-stream ChaChaRng(seed).
  ChaChaRng(const std::array<std::uint8_t, kSeedSize>& seed,
            std::uint64_t stream_id);

  /// Convenience: expand a 64-bit seed through SHA-256. Deterministic.
  explicit ChaChaRng(std::uint64_t seed);

  /// Seed from the operating system entropy pool.
  static ChaChaRng from_os_entropy();

  void fill(std::span<std::uint8_t> out) override;

 private:
  void refill();

  std::array<std::uint32_t, 16> state_;  // ChaCha20 input block
  std::array<std::uint8_t, 64> block_;   // current keystream block
  std::size_t block_pos_ = 64;           // consumed bytes in block_
};

}  // namespace pisa::crypto

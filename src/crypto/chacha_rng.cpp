#include "crypto/chacha_rng.hpp"

#include <cstring>
#include <random>
#include <stdexcept>

#include "crypto/sha256.hpp"

namespace pisa::crypto {

namespace {

constexpr std::array<std::uint32_t, 4> kSigma = {
    0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};  // "expand 32-byte k"

std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                   std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

void chacha20_block(const std::array<std::uint32_t, 16>& in,
                    std::array<std::uint8_t, 64>& out) {
  std::array<std::uint32_t, 16> x = in;
  for (int round = 0; round < 10; ++round) {  // 20 rounds = 10 double rounds
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    std::uint32_t v = x[i] + in[i];
    out[4 * i] = static_cast<std::uint8_t>(v);
    out[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
}

}  // namespace

ChaChaRng::ChaChaRng(const std::array<std::uint8_t, kSeedSize>& seed) {
  state_[0] = kSigma[0];
  state_[1] = kSigma[1];
  state_[2] = kSigma[2];
  state_[3] = kSigma[3];
  for (int i = 0; i < 8; ++i) {
    std::uint32_t k;
    std::memcpy(&k, seed.data() + 4 * i, 4);
    state_[4 + i] = k;
  }
  state_[12] = 0;  // block counter
  state_[13] = 0;
  state_[14] = 0;  // nonce
  state_[15] = 0;
}

ChaChaRng::ChaChaRng(const std::array<std::uint8_t, kSeedSize>& seed,
                     std::uint64_t stream_id)
    : ChaChaRng(seed) {
  state_[14] = static_cast<std::uint32_t>(stream_id);
  state_[15] = static_cast<std::uint32_t>(stream_id >> 32);
}

ChaChaRng::ChaChaRng(std::uint64_t seed)
    : ChaChaRng([&] {
        std::uint8_t bytes[8];
        for (int i = 0; i < 8; ++i)
          bytes[i] = static_cast<std::uint8_t>(seed >> (8 * i));
        auto digest = Sha256::hash(std::span<const std::uint8_t>(bytes, 8));
        std::array<std::uint8_t, kSeedSize> out;
        std::copy(digest.begin(), digest.end(), out.begin());
        return out;
      }()) {}

ChaChaRng ChaChaRng::from_os_entropy() {
  std::random_device rd;
  std::array<std::uint8_t, kSeedSize> seed;
  for (std::size_t i = 0; i < kSeedSize; i += 4) {
    std::uint32_t v = rd();
    std::memcpy(seed.data() + i, &v, 4);
  }
  return ChaChaRng{seed};
}

void ChaChaRng::refill() {
  chacha20_block(state_, block_);
  block_pos_ = 0;
  if (++state_[12] == 0 && ++state_[13] == 0) {
    // 2^64 blocks exhausted; practically unreachable.
    throw std::runtime_error("ChaChaRng: keystream exhausted");
  }
}

void ChaChaRng::fill(std::span<std::uint8_t> out) {
  std::size_t i = 0;
  while (i < out.size()) {
    if (block_pos_ == 64) refill();
    std::size_t take = std::min(out.size() - i, 64 - block_pos_);
    std::memcpy(out.data() + i, block_.data() + block_pos_, take);
    block_pos_ += take;
    i += take;
  }
}

}  // namespace pisa::crypto

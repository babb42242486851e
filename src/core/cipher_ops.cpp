#include "core/cipher_ops.hpp"

#include <stdexcept>

#include "exec/thread_pool.hpp"

namespace pisa::core {

namespace {

std::size_t check_column(const CipherMatrix& m, std::uint32_t block,
                         std::size_t column_size) {
  if (block >= m.blocks())
    throw std::out_of_range("cipher_ops: block outside the matrix");
  if (column_size != m.channels())
    throw std::invalid_argument(
        "cipher_ops: column must have one entry per channel(-group) row");
  return m.channels();
}

}  // namespace

void add_column(CipherMatrix& m, std::uint32_t block,
                std::span<const crypto::PaillierCiphertext> column,
                const crypto::PaillierPublicKey& pk, exec::ThreadPool* pool) {
  std::size_t channels = check_column(m, block, column.size());
  exec::parallel_for(pool, 0, channels, [&](std::size_t c) {
    auto& cell = m.at(radio::ChannelId{static_cast<std::uint32_t>(c)},
                      radio::BlockId{block});
    cell = pk.add(cell, column[c]);
  });
}

void sub_column(CipherMatrix& m, std::uint32_t block,
                std::span<const crypto::PaillierCiphertext> column,
                const crypto::PaillierPublicKey& pk, exec::ThreadPool* pool) {
  std::size_t channels = check_column(m, block, column.size());
  exec::parallel_for(pool, 0, channels, [&](std::size_t c) {
    auto& cell = m.at(radio::ChannelId{static_cast<std::uint32_t>(c)},
                      radio::BlockId{block});
    cell = pk.sub(cell, column[c]);
  });
}

CipherMatrix encrypt_matrix_packed_deterministic(
    const watch::QMatrix& values, const crypto::PaillierPublicKey& pk,
    const crypto::SlotCodec& codec, std::int64_t tail_fill,
    exec::ThreadPool* pool) {
  const std::size_t k = codec.slots();
  const std::size_t channels = values.channels();
  const std::size_t blocks = values.blocks();
  const std::size_t groups = crypto::packed_count(channels, k);
  CipherMatrix out{groups, blocks};
  exec::parallel_for(pool, 0, out.size(), [&](std::size_t i) {
    const std::size_t g = i / blocks;
    const std::uint32_t b = static_cast<std::uint32_t>(i % blocks);
    std::vector<std::int64_t> slots(k, tail_fill);
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t c = g * k + j;
      if (c >= channels) break;
      slots[j] =
          values.at(radio::ChannelId{static_cast<std::uint32_t>(c)}, radio::BlockId{b});
      if (slots[j] < 0)
        throw std::invalid_argument(
            "cipher_ops: deterministic encryption needs entries >= 0");
    }
    auto packed = codec.pack_i64(slots);
    out[i] = pk.encrypt_deterministic(packed.magnitude());
  });
  return out;
}

}  // namespace pisa::core

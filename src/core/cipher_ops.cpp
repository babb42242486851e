#include "core/cipher_ops.hpp"

#include <stdexcept>

#include "exec/thread_pool.hpp"

namespace pisa::core {

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

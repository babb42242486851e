#include "core/su_client.hpp"

#include <stdexcept>

#include "crypto/packing.hpp"
#include "exec/thread_pool.hpp"

namespace pisa::core {

SuClient::SuClient(std::uint32_t su_id, const PisaConfig& cfg,
                   crypto::PaillierPublicKey group_pk, bn::RandomSource& rng)
    : su_id_(su_id), cfg_(cfg),
      keys_(crypto::paillier_generate(cfg.paillier_bits, rng, cfg.mr_rounds)),
      source_(std::move(group_pk), rng) {
  cfg_.validate();
}

void SuClient::set_thread_pool(std::shared_ptr<exec::ThreadPool> pool) {
  exec_ = std::move(pool);
}

void SuClient::precompute_randomizers(std::size_t count) {
  source_.precompute(count, exec_.get());
}

SuRequestMsg SuClient::prepare_request(const watch::QMatrix& f,
                                       std::uint64_t request_id,
                                       std::uint32_t block_lo,
                                       std::uint32_t block_hi) {
  if (f.channels() != cfg_.watch.channels ||
      f.blocks() != cfg_.watch.grid_rows * cfg_.watch.grid_cols)
    throw std::invalid_argument("SuClient: F matrix shape mismatch");
  if (block_lo >= block_hi || block_hi > f.blocks())
    throw std::invalid_argument("SuClient: bad block range");

  // Safety: anything non-zero outside the disclosed range would evade the
  // SDC's interference check.
  for (std::uint32_t c = 0; c < f.channels(); ++c) {
    for (std::uint32_t b = 0; b < f.blocks(); ++b) {
      if ((b < block_lo || b >= block_hi) &&
          f.at(radio::ChannelId{c}, radio::BlockId{b}) != 0)
        throw std::invalid_argument(
            "SuClient: non-zero F entry outside the disclosed block range");
    }
  }

  SuRequestMsg msg;
  msg.su_id = su_id_;
  msg.request_id = request_id;
  msg.block_lo = block_lo;
  msg.block_hi = block_hi;
  const std::size_t range = block_hi - block_lo;
  // Packed layout (crypto::SlotCodec): slot j of channel group g carries
  // channel g·k + j, packs are group-major — f[g·range + (b − block_lo)].
  // Tail slots of the last group pack 0 (no requested interference there).
  const crypto::SlotCodec codec{cfg_.slot_bits(), cfg_.pack_slots};
  const std::size_t k = codec.slots();
  const std::size_t groups = cfg_.channel_groups();
  const std::size_t count = groups * range;
  std::vector<bn::BigUint> ms(count);
  std::vector<std::int64_t> slot_vals(k, 0);
  for (std::size_t idx = 0; idx < count; ++idx) {
    std::size_t g = idx / range;
    std::uint32_t b = block_lo + static_cast<std::uint32_t>(idx % range);
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t c = g * k + j;
      std::int64_t v =
          c < f.channels()
              ? f.at(radio::ChannelId{static_cast<std::uint32_t>(c)},
                     radio::BlockId{b})
              : 0;
      if (v < 0) throw std::domain_error("SuClient: F entries must be >= 0");
      slot_vals[j] = v;
    }
    ms[idx] = codec.pack_i64(slot_vals).magnitude();
  }
  msg.f = source_.encrypt(ms, exec_.get());
  return msg;
}

SuRequestMsg SuClient::prepare_request(const watch::QMatrix& f,
                                       std::uint64_t request_id) {
  return prepare_request(f, request_id, 0,
                         static_cast<std::uint32_t>(f.blocks()));
}

SuClient::Outcome SuClient::process_response(
    const SuResponseMsg& response, const crypto::RsaPublicKey& issuer_key) const {
  Outcome out;
  out.license = response.license;
  out.signature = keys_.sk.decrypt(response.g);
  out.granted = issuer_key.verify(out.license.signing_bytes(), out.signature);
  return out;
}

SuClient::Outcome SuClient::process_fast_deny(const FastDenyMsg&) const {
  return Outcome{};  // granted = false, empty license, no signature
}

}  // namespace pisa::core

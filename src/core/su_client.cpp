#include "core/su_client.hpp"

#include <stdexcept>

#include "bigint/prime.hpp"
#include "crypto/packing.hpp"
#include "exec/thread_pool.hpp"

namespace pisa::core {

SuClient::SuClient(std::uint32_t su_id, const PisaConfig& cfg,
                   crypto::PaillierPublicKey group_pk, bn::RandomSource& rng)
    : su_id_(su_id), cfg_(cfg), group_pk_(std::move(group_pk)), rng_(rng),
      keys_(crypto::paillier_generate(cfg.paillier_bits, rng, cfg.mr_rounds)),
      pool_(group_pk_, 0) {
  cfg_.validate();
}

void SuClient::set_thread_pool(std::shared_ptr<exec::ThreadPool> pool) {
  exec_ = std::move(pool);
}

void SuClient::precompute_randomizers(std::size_t count) {
  pool_ = crypto::RandomizerPool{group_pk_, count};
  pool_.refill(rng_, exec_.get());
}

SuRequestMsg SuClient::prepare_request(const watch::QMatrix& f,
                                       std::uint64_t request_id,
                                       std::uint32_t block_lo,
                                       std::uint32_t block_hi, PrepMode mode) {
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
  msg.f.resize(count);

  // Randomness pre-pass in entry order: pooled entries pop their r^n factor
  // now, fresh entries sample r — exactly the interleaving the sequential
  // loop produced, so requests are bit-identical at every thread count. In
  // hybrid mode a pack is "zero" (pool-eligible) only when all of its slots
  // are zero — with pack_slots = 1 that degenerates to the per-entry rule.
  std::vector<bn::BigUint> ms(count);
  std::vector<bn::BigUint> factors(count);
  std::vector<std::uint8_t> is_fresh(count, 0);
  std::vector<std::int64_t> slot_vals(k, 0);
  for (std::size_t idx = 0; idx < count; ++idx) {
    std::size_t g = idx / range;
    std::uint32_t b = block_lo + static_cast<std::uint32_t>(idx % range);
    bool all_zero = true;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t c = g * k + j;
      std::int64_t v =
          c < f.channels()
              ? f.at(radio::ChannelId{static_cast<std::uint32_t>(c)},
                     radio::BlockId{b})
              : 0;
      if (v < 0) throw std::domain_error("SuClient: F entries must be >= 0");
      if (v != 0) all_zero = false;
      slot_vals[j] = v;
    }
    ms[idx] = codec.pack_i64(slot_vals).magnitude();
    bool pooled = mode == PrepMode::kPooled ||
                  (mode == PrepMode::kHybrid && all_zero);
    if (pooled) {
      factors[idx] = pool_.pop();
    } else {
      factors[idx] = bn::random_coprime(rng_, group_pk_.n());
      is_fresh[idx] = 1;
    }
  }

  // Modexp section: fresh entries pay the r^n exponentiation, pooled ones
  // just multiply by their precomputed factor.
  exec::parallel_for(exec_.get(), 0, count, [&](std::size_t idx) {
    if (is_fresh[idx])
      factors[idx] = group_pk_.mont_n2().pow(factors[idx], group_pk_.n());
    msg.f[idx] = group_pk_.rerandomize_with(
        group_pk_.encrypt_deterministic(ms[idx]), factors[idx]);
  });
  return msg;
}

SuRequestMsg SuClient::prepare_request(const watch::QMatrix& f,
                                       std::uint64_t request_id, PrepMode mode) {
  return prepare_request(f, request_id, 0,
                         static_cast<std::uint32_t>(f.blocks()), mode);
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

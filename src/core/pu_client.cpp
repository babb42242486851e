#include "core/pu_client.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "crypto/packing.hpp"

namespace pisa::core {

PuClient::PuClient(watch::PuSite site, const PisaConfig& cfg,
                   crypto::PaillierPublicKey group_pk, watch::QMatrix e_matrix,
                   bn::RandomSource& rng)
    : pu_id_(site.pu_id), cfg_(cfg), e_matrix_(std::move(e_matrix)),
      block_(site.block.index), source_(std::move(group_pk), rng) {
  if (e_matrix_.channels() != cfg_.watch.channels ||
      e_matrix_.blocks() != cfg_.watch.make_area().num_blocks())
    throw std::invalid_argument("PuClient: E matrix must be C x B");
}

void PuClient::set_thread_pool(std::shared_ptr<exec::ThreadPool> pool) {
  exec_ = std::move(pool);
}

void PuClient::move_to(std::uint32_t block) {
  if (block >= e_matrix_.blocks())
    throw std::out_of_range("PuClient: bad block");
  block_ = block;
}

bn::BigInt PuClient::packed_cell_value(std::uint32_t channel,
                                       std::uint32_t block,
                                       std::int64_t t) const {
  const crypto::SlotCodec codec{cfg_.slot_bits(), cfg_.pack_slots};
  const std::size_t k = codec.slots();
  const std::size_t g = channel / k;
  const std::size_t lo = g * k;
  const std::size_t n = std::min(k, cfg_.watch.channels - lo);
  std::vector<bn::BigInt> slots(n, bn::BigInt{0});
  slots[channel % k] =
      bn::BigInt{t} - bn::BigInt{e_matrix_.at(radio::ChannelId{channel},
                                              radio::BlockId{block})};
  return codec.pack(std::span<const bn::BigInt>{slots});
}

std::map<std::uint64_t, bn::BigInt> PuClient::desired_footprint(
    const watch::PuTuning& tuning) const {
  std::map<std::uint64_t, bn::BigInt> next;
  if (!tuning.channel) return next;
  const std::uint32_t tuned = tuning.channel->index;
  if (tuned >= cfg_.watch.channels)
    throw std::out_of_range("PuClient: bad channel");
  std::int64_t t = cfg_.watch.quantizer.quantize_mw(tuning.signal_mw);
  if (t <= 0)
    throw std::domain_error("PuClient: active PU needs positive signal");
  const std::uint32_t g =
      tuned / static_cast<std::uint32_t>(cfg_.pack_slots);
  bn::BigInt packed = packed_cell_value(tuned, block_, t);
  // w = T − E can legitimately be 0 (budget exactly at threshold); that is
  // still a nonzero *cell occupancy* only if the packed value is nonzero —
  // a zero contribution folds as the identity, so it needn't be tracked.
  if (!(packed == bn::BigInt{0})) next.emplace(cell_key(g, block_), packed);
  return next;
}

PuUpdateMsg PuClient::make_update(const watch::PuTuning& tuning) {
  // The full column also refreshes the footprint: after the SDC re-folds
  // this column, the previous contribution at block_ is replaced and any
  // accumulated deltas for this PU are retracted engine-side, so the cache
  // restarts from exactly what this message carries.
  auto next = desired_footprint(tuning);  // validates tuning

  PuUpdateMsg msg;
  msg.pu_id = pu_id_;
  msg.block = block_;

  std::uint32_t tuned = tuning.channel ? tuning.channel->index : UINT32_MAX;
  std::vector<bn::BigInt> ws(cfg_.watch.channels, bn::BigInt{0});
  if (tuning.channel) {
    std::int64_t t = cfg_.watch.quantizer.quantize_mw(tuning.signal_mw);
    ws[tuned] = bn::BigInt{t} -
                bn::BigInt{e_matrix_.at(radio::ChannelId{tuned},
                                        radio::BlockId{block_})};
  }
  // Fold the C-entry column into ⌈C/k⌉ packed plaintexts (slot j of group g
  // holds channel g·k + j; tail slots stay 0 = "no contribution"). With
  // pack_slots = 1 this is the identity and the update is byte-identical to
  // the per-entry layout.
  const crypto::SlotCodec codec{cfg_.slot_bits(), cfg_.pack_slots};
  const std::size_t k = codec.slots();
  // Signed values encrypt as their centered lift mod n.
  const auto& n = source_.public_key().n();
  std::vector<bn::BigUint> packed(cfg_.channel_groups());
  for (std::size_t g = 0; g < packed.size(); ++g) {
    const std::size_t lo = g * k;
    const std::size_t len = std::min(k, ws.size() - lo);
    packed[g] = codec.pack(std::span<const bn::BigInt>{ws}.subspan(lo, len))
                    .mod_euclid(n);
  }
  msg.w_column = source_.encrypt(packed, exec_.get());

  footprint_ = std::move(next);
  return msg;
}

pir::PirUpdateMsg PuClient::make_pir_update(
    const watch::PuTuning& tuning) const {
  pir::PirUpdateMsg msg;
  msg.pu_id = pu_id_;
  msg.block = block_;
  msg.w_column.assign(cfg_.watch.channels, 0);
  if (tuning.channel) {
    const std::uint32_t tuned = tuning.channel->index;
    if (tuned >= cfg_.watch.channels)
      throw std::out_of_range("PuClient: bad channel");
    std::int64_t t = cfg_.watch.quantizer.quantize_mw(tuning.signal_mw);
    if (t <= 0)
      throw std::domain_error("PuClient: active PU needs positive signal");
    msg.w_column[tuned] =
        t - e_matrix_.at(radio::ChannelId{tuned}, radio::BlockId{block_});
  }
  return msg;
}

std::optional<PuDeltaMsg> PuClient::make_delta(const watch::PuTuning& tuning) {
  auto next = desired_footprint(tuning);

  // Diff against the cached footprint: cells entered or modified carry
  // (new − old); cells left carry (0 − old). Packed values add as plain
  // integers (slot headroom prevents carries), so BigInt subtraction of
  // whole packed cells is the exact fold operand.
  std::vector<std::pair<std::uint64_t, bn::BigInt>> diff;
  for (const auto& [key, val] : next) {
    auto old = footprint_.find(key);
    if (old == footprint_.end())
      diff.emplace_back(key, val);
    else if (!(old->second == val))
      diff.emplace_back(key, val - old->second);
  }
  for (const auto& [key, old] : footprint_)
    if (!next.contains(key)) diff.emplace_back(key, bn::BigInt{0} - old);

  if (diff.empty()) {
    footprint_ = std::move(next);
    return std::nullopt;
  }

  // Cells for the current block first, then ascending (block, group) — the
  // same {new block, previous block} order the full path probes in, so the
  // SDC's per-cell re-probe traffic is path-independent.
  std::sort(diff.begin(), diff.end(), [&](const auto& a, const auto& b) {
    const std::uint32_t ba = static_cast<std::uint32_t>(a.first);
    const std::uint32_t bb = static_cast<std::uint32_t>(b.first);
    const bool ca = ba == block_, cb = bb == block_;
    if (ca != cb) return ca;
    if (ba != bb) return ba < bb;
    return (a.first >> 32) < (b.first >> 32);
  });

  // A negative retraction lifts to its n − m residue, whose E_det is the
  // closed-form inverse of E_det(m).
  std::vector<bn::BigUint> lifted;
  lifted.reserve(diff.size());
  for (const auto& [key, d] : diff)
    lifted.push_back(d.mod_euclid(source_.public_key().n()));
  auto cts = source_.encrypt(lifted, exec_.get());

  PuDeltaMsg msg;
  msg.pu_id = pu_id_;
  msg.delta_seq = ++delta_seq_;
  msg.cells.reserve(diff.size());
  for (std::size_t i = 0; i < diff.size(); ++i)
    msg.cells.push_back({static_cast<std::uint32_t>(diff[i].first >> 32),
                         static_cast<std::uint32_t>(diff[i].first),
                         std::move(cts[i])});

  footprint_ = std::move(next);
  return msg;
}

void PuClient::precompute_randomizers(std::size_t count) {
  source_.precompute(count, exec_.get());
}

std::size_t PuClient::update_bytes() const {
  // PuUpdateMsg wire layout: pu_id u32 + block u32 + count u32 + width u32
  // + ⌈C/k⌉ ciphertexts at the fixed |n²| width.
  return 16 + cfg_.channel_groups() * source_.public_key().ciphertext_bytes();
}

}  // namespace pisa::core

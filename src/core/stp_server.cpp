#include "core/stp_server.hpp"

#include <stdexcept>

#include "bigint/prime.hpp"
#include "crypto/key_codec.hpp"
#include "crypto/packing.hpp"
#include "exec/thread_pool.hpp"

namespace pisa::core {

StpServer::StpServer(const PisaConfig& cfg, bn::RandomSource& rng)
    : cfg_(cfg), rng_(rng),
      group_(crypto::paillier_generate(cfg.paillier_bits, rng, cfg.mr_rounds)),
      stream_(rng.next_u64()) {
  cfg_.validate();
  if (cfg_.threshold_stp) deal_ = crypto::threshold_split(group_.sk, rng_);
}

const crypto::ThresholdKeyShare& StpServer::sdc_share() const {
  if (!deal_) throw std::logic_error("StpServer: not in threshold mode");
  return deal_->share1;
}

void StpServer::register_su_key(std::uint32_t su_id, crypto::PaillierPublicKey pk) {
  su_keys_.insert_or_assign(su_id, std::move(pk));
  if (cfg_.stp_pool_target == 0) return;
  // Always-warm mode: provision the fast base (optional), a private refill
  // stream and a full pool right at registration, so the first conversion
  // already hits precomputed factors. Re-registration (last-writer-wins)
  // rebuilds everything — old factors belong to the old modulus.
  const auto& pk_j = su_keys_.at(su_id);
  if (cfg_.fast_randomizers)
    su_fast_bases_.insert_or_assign(su_id,
                                    crypto::FastRandomizerBase{pk_j, stream_});
  su_streams_.erase(su_id);
  auto stream_it =
      su_streams_.try_emplace(su_id, crypto::ChaChaRng{stream_.next_u64()}).first;
  auto fast_it = su_fast_bases_.find(su_id);
  crypto::RandomizerPool pool{pk_j, cfg_.stp_pool_target};
  pool.refill(stream_it->second, exec_.get(),
              fast_it != su_fast_bases_.end() ? &fast_it->second : nullptr);
  su_pools_.insert_or_assign(su_id, std::move(pool));
}

void StpServer::maintain_pools() {
  for (auto& [su_id, stream] : su_streams_) {
    auto pool_it = su_pools_.find(su_id);
    if (pool_it == su_pools_.end()) continue;
    auto fast_it = su_fast_bases_.find(su_id);
    pool_it->second.refill(
        stream, exec_.get(),
        fast_it != su_fast_bases_.end() ? &fast_it->second : nullptr);
  }
}

std::size_t StpServer::pool_available(std::uint32_t su_id) const {
  auto it = su_pools_.find(su_id);
  return it == su_pools_.end() ? 0 : it->second.available();
}

const crypto::PaillierPublicKey& StpServer::su_key(std::uint32_t su_id) const {
  auto it = su_keys_.find(su_id);
  if (it == su_keys_.end())
    throw std::out_of_range("StpServer: unknown SU key " + std::to_string(su_id));
  return it->second;
}

void StpServer::set_thread_pool(std::shared_ptr<exec::ThreadPool> pool) {
  exec_ = std::move(pool);
}

void StpServer::precompute_su_randomizers(std::uint32_t su_id, std::size_t count) {
  const auto& pk_j = su_key(su_id);
  const crypto::FastRandomizerBase* fast = nullptr;
  if (cfg_.fast_randomizers) {
    auto it = su_fast_bases_.find(su_id);
    if (it == su_fast_bases_.end())
      it = su_fast_bases_.emplace(su_id, crypto::FastRandomizerBase{pk_j, stream_})
               .first;
    fast = &it->second;
  }
  crypto::RandomizerPool pool{pk_j, count};
  pool.refill(stream_, exec_.get(), fast);
  su_pools_.insert_or_assign(su_id, std::move(pool));
}

struct StpServer::ConvertEntry {
  enum class Mode { kPooled, kFastExp, kFreshR };

  const crypto::PaillierCiphertext* v = nullptr;
  const crypto::PaillierCiphertext* partial = nullptr;  // threshold mode only
  const crypto::PaillierPublicKey* pk = nullptr;
  const crypto::FastRandomizerBase* fast = nullptr;  // set iff kFastExp
  bn::BigUint rand;  // ready factor / short exponent / fresh r, by mode
  Mode mode = Mode::kFreshR;
  crypto::PaillierCiphertext* out = nullptr;
};

void StpServer::stage_randomness(std::uint32_t su_id, std::size_t count,
                                 std::vector<ConvertEntry>& entries,
                                 std::size_t base) {
  const auto& pk_j = su_key(su_id);
  auto pool_it = su_pools_.find(su_id);
  crypto::RandomizerPool* pool =
      pool_it != su_pools_.end() ? &pool_it->second : nullptr;
  auto fast_it = su_fast_bases_.find(su_id);
  const crypto::FastRandomizerBase* fast =
      fast_it != su_fast_bases_.end() ? &fast_it->second : nullptr;
  // Drain the pool for as many entries as it covers; the remainder falls
  // back to the cached fast base (one short-exponent table power each) or,
  // without one, a fresh r plus a full modexp in the parallel section.
  // Drawing everything here, in entry order, keeps the private stream_ —
  // and therefore every output byte — independent of thread count and of
  // how entries were grouped into batches.
  for (std::size_t i = 0; i < count; ++i) {
    auto& e = entries[base + i];
    e.pk = &pk_j;
    if (pool != nullptr && pool->available() > 0) {
      e.mode = ConvertEntry::Mode::kPooled;
      e.rand = pool->pop();
    } else if (fast != nullptr) {
      e.mode = ConvertEntry::Mode::kFastExp;
      e.fast = fast;
      e.rand = bn::random_bits(stream_, crypto::FastRandomizerBase::kExponentBits);
    } else {
      e.mode = ConvertEntry::Mode::kFreshR;
      e.rand = bn::random_coprime(stream_, pk_j.n());
    }
  }
}

void StpServer::convert_entries(std::vector<ConvertEntry>& entries) {
  const crypto::SlotCodec codec{cfg_.slot_bits(), cfg_.pack_slots};
  exec::parallel_for(exec_.get(), 0, entries.size(), [&](std::size_t i) {
    auto& e = entries[i];
    // Eq. (15): X = +1 if V > 0, −1 otherwise. In threshold mode the STP
    // cannot decrypt alone: it completes the SDC's partial decryption.
    // One CRT decryption opens all pack_slots blinded slots at once; the
    // sign map runs per slot on the balanced digits and the verdicts are
    // re-packed into a single ciphertext under pk_j.
    bn::BigInt v;
    if (deal_) {
      auto p2 = crypto::threshold_partial_decrypt(group_.pk, deal_->share2, *e.v);
      v = crypto::threshold_combine_signed(group_.pk, e.partial->value, p2);
    } else {
      v = group_.sk.decrypt_signed(*e.v);
    }
    auto slots = codec.unpack(v);
    for (auto& s : slots) s = (s.sign() > 0) ? bn::BigInt{1} : bn::BigInt{-1};
    bn::BigInt x = codec.pack(slots);
    bn::BigUint factor;
    switch (e.mode) {
      case ConvertEntry::Mode::kPooled:
        factor = std::move(e.rand);
        break;
      case ConvertEntry::Mode::kFastExp:
        factor = e.fast->from_exponent(e.rand);
        break;
      case ConvertEntry::Mode::kFreshR:
        factor = e.pk->mont_n2().pow(e.rand, e.pk->n());
        break;
    }
    *e.out = e.pk->rerandomize_with(
        e.pk->encrypt_deterministic(x.mod_euclid(e.pk->n())), factor);
  });
}

ConvertResponseMsg StpServer::convert(const ConvertRequestMsg& request) {
  if (deal_ && request.partials.size() != request.v.size())
    throw std::invalid_argument(
        "StpServer: threshold mode requires one SDC partial per entry");

  const std::size_t count = request.v.size();
  ConvertResponseMsg resp;
  resp.request_id = request.request_id;
  resp.x.resize(count);
  std::vector<ConvertEntry> entries(count);
  for (std::size_t i = 0; i < count; ++i) {
    entries[i].v = &request.v[i];
    if (deal_) entries[i].partial = &request.partials[i];
    entries[i].out = &resp.x[i];
  }
  stage_randomness(request.su_id, count, entries, 0);
  convert_entries(entries);
  ++conversions_;
  entries_ += count * cfg_.pack_slots;
  return resp;
}

BudgetProbeResponseMsg StpServer::probe_signs(const BudgetProbeMsg& probe) {
  if (deal_ && probe.partials.size() != probe.v.size())
    throw std::invalid_argument(
        "StpServer: threshold mode requires one SDC partial per probe entry");

  const std::size_t k = cfg_.pack_slots;
  const crypto::SlotCodec codec{cfg_.slot_bits(), k};
  BudgetProbeResponseMsg resp;
  resp.probe_id = probe.probe_id;
  resp.signs.resize(probe.v.size() * k);
  // Decrypt-and-sign only — no sign-to-±1 re-encryption, no SU key, no
  // randomizer draws, so probes never perturb the conversion stream and
  // batched/sequential conversion bytes stay identical with probes mixed in.
  exec::parallel_for(exec_.get(), 0, probe.v.size(), [&](std::size_t i) {
    bn::BigInt v;
    if (deal_) {
      auto p2 = crypto::threshold_partial_decrypt(group_.pk, deal_->share2,
                                                  probe.v[i]);
      v = crypto::threshold_combine_signed(group_.pk,
                                           probe.partials[i].value, p2);
    } else {
      v = group_.sk.decrypt_signed(probe.v[i]);
    }
    auto slots = codec.unpack(v);
    for (std::size_t j = 0; j < k; ++j)
      resp.signs[i * k + j] = slots[j].sign() > 0 ? 1 : 0;
  });
  ++probes_;
  probe_slots_ += probe.v.size() * k;
  return resp;
}

ConvertBatchResponseMsg StpServer::convert_batch(const ConvertBatchMsg& batch) {
  ConvertBatchResponseMsg resp;
  resp.batch_id = batch.batch_id;
  resp.items.resize(batch.items.size());
  std::vector<ConvertEntry> entries(batch.total_entries());
  std::size_t base = 0;
  for (std::size_t j = 0; j < batch.items.size(); ++j) {
    const auto& item = batch.items[j];
    if (deal_ && item.partials.size() != item.v.size())
      throw std::invalid_argument(
          "StpServer: threshold mode requires one SDC partial per entry");
    resp.items[j].request_id = item.request_id;
    resp.items[j].x.resize(item.v.size());
    for (std::size_t i = 0; i < item.v.size(); ++i) {
      entries[base + i].v = &item.v[i];
      if (deal_) entries[base + i].partial = &item.partials[i];
      entries[base + i].out = &resp.items[j].x[i];
    }
    // Randomness staged item by item in arrival order: the exact draws an
    // item-by-item convert() sequence would make, so batch composition
    // never changes a request's output bytes.
    stage_randomness(item.su_id, item.v.size(), entries, base);
    base += item.v.size();
  }
  convert_entries(entries);
  ++batches_;
  conversions_ += batch.items.size();
  entries_ += base * cfg_.pack_slots;
  return resp;
}

void StpServer::attach(net::Transport& net, const std::string& name) {
  net.register_endpoint(name, [this, &net, name](const net::Message& msg) {
    if (!seen_frames_.first_time(msg.from, msg.net_seq)) return;
    if (msg.type == kMsgConvertRequest) {
      auto request = ConvertRequestMsg::decode(msg.payload);
      auto response = convert(request);
      // X̃ is under pk_j, whose modulus may differ from pk_G's.
      std::size_t width = su_key(request.su_id).ciphertext_bytes();
      net.send({name, msg.from, kMsgConvertResponse, response.encode(width)});
    } else if (msg.type == kMsgConvertBatch) {
      auto batch = ConvertBatchMsg::decode(msg.payload);
      auto response = convert_batch(batch);
      std::vector<std::size_t> widths;
      widths.reserve(batch.items.size());
      for (const auto& item : batch.items)
        widths.push_back(su_key(item.su_id).ciphertext_bytes());
      net.send(
          {name, msg.from, kMsgConvertBatchResponse, response.encode(widths)});
    } else if (msg.type == kMsgBudgetProbe) {
      auto probe = BudgetProbeMsg::decode(msg.payload);
      auto response = probe_signs(probe);
      net.send({name, msg.from, kMsgBudgetProbeResponse, response.encode()});
    } else if (msg.type == kMsgKeyRegister) {
      auto reg = KeyRegisterMsg::decode(msg.payload);
      register_su_key(reg.su_id,
                      crypto::parse_paillier_public_key(reg.public_key));
    } else if (msg.type == kMsgKeyLookup) {
      auto lookup = KeyLookupMsg::decode(msg.payload);
      KeyLookupResponseMsg resp;
      resp.su_id = lookup.su_id;
      auto it = su_keys_.find(lookup.su_id);
      if (it != su_keys_.end()) {
        resp.found = true;
        resp.public_key = crypto::serialize(it->second);
      }
      net.send({name, msg.from, kMsgKeyLookupResponse, resp.encode()});
    } else {
      throw std::runtime_error("StpServer: unexpected message type " + msg.type);
    }
  });
}

}  // namespace pisa::core

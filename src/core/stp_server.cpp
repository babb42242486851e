#include "core/stp_server.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/chacha_rng.hpp"
#include "crypto/key_codec.hpp"
#include "crypto/packing.hpp"
#include "crypto/sha256.hpp"
#include "exec/thread_pool.hpp"

namespace pisa::core {

namespace {

std::array<std::uint8_t, 32> draw_seed(bn::RandomSource& rng) {
  std::array<std::uint8_t, 32> seed{};
  rng.fill(seed);
  return seed;
}

void put_u64(crypto::Sha256& h, std::uint64_t v) {
  std::array<std::uint8_t, 8> b{};
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  h.update(b);
}

}  // namespace

StpServer::StpServer(const PisaConfig& cfg, bn::RandomSource& rng)
    : cfg_(cfg), rng_(rng),
      group_(crypto::paillier_generate(cfg.paillier_bits, rng, cfg.mr_rounds)),
      master_(draw_seed(rng)) {
  cfg_.validate();
  if (cfg_.threshold_stp) deal_ = crypto::threshold_split(group_.sk, rng_);
}

const crypto::ThresholdKeyShare& StpServer::sdc_share() const {
  if (!deal_) throw std::logic_error("StpServer: not in threshold mode");
  return deal_->share1;
}

void StpServer::register_su_key(std::uint32_t su_id, crypto::PaillierPublicKey pk) {
  const auto pk_digest = crypto::Sha256::hash(crypto::serialize(pk));
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sources_.find(su_id);
  // Same key again (a replayed upload): its indices must never rewind.
  if (it != sources_.end() && *it->second.pk == pk) return;
  Source src;
  src.key_number = it == sources_.end() ? 0 : it->second.key_number + 1;
  crypto::Sha256 h;
  h.update(master_);
  put_u64(h, su_id);
  put_u64(h, src.key_number);
  h.update(pk_digest);
  src.seed = h.finalize();
  src.pk = std::make_shared<const crypto::PaillierPublicKey>(std::move(pk));
  sources_.insert_or_assign(su_id, std::move(src));
}

const crypto::PaillierPublicKey& StpServer::su_key(std::uint32_t su_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sources_.find(su_id);
  if (it == sources_.end())
    throw std::out_of_range("StpServer: unknown SU key " + std::to_string(su_id));
  return *it->second.pk;
}

void StpServer::set_thread_pool(std::shared_ptr<exec::ThreadPool> pool) {
  exec_ = std::move(pool);
}

bn::BigUint StpServer::make_factor(const crypto::PaillierPublicKey& pk,
                                   const Seed& seed, std::uint64_t index) {
  crypto::ChaChaRng r_stream{seed, index};
  return pk.make_randomizer(r_stream);
}

void StpServer::compute_and_store(std::vector<FactorTask>& tasks) {
  if (tasks.empty()) return;
  auto compute = [&](std::size_t i) {
    tasks[i].factor = make_factor(*tasks[i].pk, tasks[i].seed, tasks[i].index);
  };
  if (tasks.size() == 1)
    compute(0);
  else
    exec::parallel_for(exec_.get(), 0, tasks.size(), compute);
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& t : tasks) {
    // A conversion may have taken this index inline meanwhile, or the SU
    // may have registered a new key: then the factor is no longer wanted.
    auto it = sources_.find(t.su_id);
    if (it == sources_.end() || it->second.pk != t.pk) continue;
    auto& src = it->second;
    if (t.index == src.next + src.ready.size())
      src.ready.push_back(std::move(t.factor));
  }
}

void StpServer::precompute_su_randomizers(std::uint32_t su_id, std::size_t count) {
  std::vector<FactorTask> tasks;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sources_.find(su_id);
    if (it == sources_.end())
      throw std::out_of_range("StpServer: unknown SU key " + std::to_string(su_id));
    const auto& src = it->second;
    for (std::size_t have = src.ready.size(); have < count; ++have)
      tasks.push_back({su_id, src.next + have, src.pk, src.seed, {}});
  }
  compute_and_store(tasks);
}

std::size_t StpServer::refill_randomizers(std::size_t max_factors) {
  std::vector<FactorTask> tasks;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [su_id, src] : sources_) {
      for (std::size_t have = src.ready.size();
           have < depth_ && tasks.size() < max_factors; ++have)
        tasks.push_back({su_id, src.next + have, src.pk, src.seed, {}});
      if (tasks.size() >= max_factors) break;
    }
  }
  compute_and_store(tasks);
  return tasks.size();
}

std::size_t StpServer::randomizer_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return depth_;
}

std::size_t StpServer::pool_available(std::uint32_t su_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sources_.find(su_id);
  return it == sources_.end() ? 0 : it->second.ready.size();
}

struct StpServer::ConvertEntry {
  const crypto::PaillierCiphertext* v = nullptr;
  const crypto::PaillierCiphertext* partial = nullptr;  // threshold mode only
  std::shared_ptr<const crypto::PaillierPublicKey> pk;
  Seed seed{};
  std::uint64_t index = 0;
  bool cached = false;  // factor already holds r^n for `index`
  bn::BigUint factor;
  crypto::PaillierCiphertext* out = nullptr;
};

void StpServer::stage_randomness(std::uint32_t su_id, std::size_t count,
                                 std::vector<ConvertEntry>& entries,
                                 std::size_t base) {
  std::size_t cached = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sources_.find(su_id);
    if (it == sources_.end())
      throw std::out_of_range("StpServer: unknown SU key " + std::to_string(su_id));
    auto& src = it->second;
    depth_ = std::max(depth_, count);
    for (std::size_t i = 0; i < count; ++i, ++src.next) {
      auto& e = entries[base + i];
      e.pk = src.pk;
      e.seed = src.seed;
      e.index = src.next;
      if (!src.ready.empty()) {
        e.factor = std::move(src.ready.front());
        src.ready.pop_front();
        e.cached = true;
        ++cached;
      }
    }
  }
  factors_precomputed_ += cached;
  factors_inline_ += count - cached;
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
    if (!e.cached) e.factor = make_factor(*e.pk, e.seed, e.index);
    *e.out = e.pk->rerandomize_with(
        e.pk->encrypt_deterministic(x.mod_euclid(e.pk->n())), e.factor);
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
  after_conversion();
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
  // randomizer factors, so probes never touch an SU's randomizer source.
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
    // Each item takes its own SU's next indices — the factors an
    // item-by-item convert() would use — so batch composition never changes
    // a request's output bytes.
    stage_randomness(item.su_id, item.v.size(), entries, base);
    base += item.v.size();
  }
  convert_entries(entries);
  ++batches_;
  conversions_ += batch.items.size();
  entries_ += base * cfg_.pack_slots;
  after_conversion();
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
      std::optional<crypto::PaillierPublicKey> pk;
      {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = sources_.find(lookup.su_id);
        if (it != sources_.end()) pk = *it->second.pk;
      }
      if (pk) {
        resp.found = true;
        resp.public_key = crypto::serialize(*pk);
      }
      net.send({name, msg.from, kMsgKeyLookupResponse, resp.encode()});
    } else {
      throw std::runtime_error("StpServer: unexpected message type " + msg.type);
    }
  });
}

}  // namespace pisa::core

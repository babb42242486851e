#include "core/stp_server.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/key_codec.hpp"
#include "crypto/sha256.hpp"
#include "exec/thread_pool.hpp"

namespace pisa::core {

namespace {

crypto::RandomizerSource::Seed draw_seed(bn::RandomSource& rng) {
  crypto::RandomizerSource::Seed seed{};
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
    : cfg_(cfg), codec_(cfg.slot_bits(), cfg.pack_slots), rng_(rng),
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
  if (it != sources_.end() && it->second.src->public_key() == pk) return;
  const std::uint64_t key_number =
      it == sources_.end() ? 0 : it->second.key_number + 1;
  crypto::Sha256 h;
  h.update(master_);
  put_u64(h, su_id);
  put_u64(h, key_number);
  h.update(pk_digest);
  sources_.insert_or_assign(
      su_id, Source{std::make_shared<crypto::RandomizerSource>(std::move(pk),
                                                               h.finalize()),
                    key_number});
}

const crypto::PaillierPublicKey& StpServer::su_key(std::uint32_t su_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sources_.find(su_id);
  if (it == sources_.end())
    throw std::out_of_range("StpServer: unknown SU key " + std::to_string(su_id));
  return it->second.src->public_key();
}

void StpServer::set_thread_pool(std::shared_ptr<exec::ThreadPool> pool) {
  exec_ = std::move(pool);
}

void StpServer::add_tasks(const std::shared_ptr<crypto::RandomizerSource>& src,
                          std::size_t count, std::size_t max_tasks,
                          std::vector<FactorTask>& tasks) {
  std::uint64_t index = src->next_missing();
  for (std::size_t have = src->cached(); have < count && tasks.size() < max_tasks;
       ++have)
    tasks.push_back({src, index++, {}});
}

void StpServer::compute_and_store(std::vector<FactorTask>& tasks) {
  exec::parallel_for(exec_.get(), 0, tasks.size(), [&](std::size_t i) {
    tasks[i].factor = tasks[i].src->factor(tasks[i].index);
  });
  std::lock_guard<std::mutex> lk(mu_);
  // A conversion may have taken an index inline meanwhile (the offer is
  // dropped), or the SU may have registered a new key (the offer lands in
  // the replaced source, which nothing reads again).
  for (auto& t : tasks) t.src->offer(t.index, std::move(t.factor));
}

void StpServer::precompute_su_randomizers(std::uint32_t su_id, std::size_t count) {
  std::vector<FactorTask> tasks;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sources_.find(su_id);
    if (it == sources_.end())
      throw std::out_of_range("StpServer: unknown SU key " + std::to_string(su_id));
    add_tasks(it->second.src, count, std::numeric_limits<std::size_t>::max(),
              tasks);
  }
  compute_and_store(tasks);
}

std::size_t StpServer::refill_randomizers(std::size_t max_factors) {
  std::vector<FactorTask> tasks;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [su_id, source] : sources_) {
      add_tasks(source.src, depth_, max_factors, tasks);
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
  return it == sources_.end() ? 0 : it->second.src->cached();
}

struct StpServer::ConvertEntry {
  const crypto::PaillierCiphertext* v = nullptr;
  const crypto::PaillierCiphertext* partial = nullptr;  // threshold mode only
  Staged* staged = nullptr;
  std::size_t i = 0;  ///< position in staged->taken
  crypto::PaillierCiphertext* out = nullptr;
};

StpServer::Staged StpServer::stage_randomness(std::uint32_t su_id,
                                              std::size_t count) {
  Staged s;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sources_.find(su_id);
    if (it == sources_.end())
      throw std::out_of_range("StpServer: unknown SU key " + std::to_string(su_id));
    depth_ = std::max(depth_, count);
    s.src = it->second.src;
    s.taken = it->second.src->take(count);
  }
  factors_precomputed_ += s.taken.cached.size();
  factors_inline_ += count - s.taken.cached.size();
  return s;
}

void StpServer::check_partials(std::size_t entries, std::size_t partials) const {
  if (deal_ && partials != entries)
    throw std::invalid_argument(
        "StpServer: threshold mode requires one SDC partial per entry");
}

std::vector<bn::BigInt> StpServer::open_slots(
    const crypto::PaillierCiphertext& v,
    const crypto::PaillierCiphertext* partial) const {
  // In threshold mode the STP cannot decrypt alone: it completes the SDC's
  // partial decryption. One CRT decryption opens all pack_slots blinded
  // slots at once.
  if (!deal_) return codec_.unpack(group_.sk.decrypt_signed(v));
  auto p2 = crypto::threshold_partial_decrypt(group_.pk, deal_->share2, v);
  return codec_.unpack(
      crypto::threshold_combine_signed(group_.pk, partial->value, p2));
}

void StpServer::convert_entries(std::vector<ConvertEntry>& entries) {
  exec::parallel_for(exec_.get(), 0, entries.size(), [&](std::size_t i) {
    auto& e = entries[i];
    // Eq. (15): X = +1 if V > 0, −1 otherwise — per slot on the balanced
    // digits, re-packed into a single ciphertext under pk_j.
    auto slots = open_slots(*e.v, e.partial);
    for (auto& s : slots) s = (s.sign() > 0) ? bn::BigInt{1} : bn::BigInt{-1};
    bn::BigInt x = codec_.pack(slots);
    const auto& src = *e.staged->src;
    const auto& pk = src.public_key();
    *e.out = pk.rerandomize_with(pk.encrypt_deterministic(x.mod_euclid(pk.n())),
                                 src.factor(e.staged->taken, e.i));
  });
}

std::vector<ConvertResponseMsg> StpServer::convert_items(
    std::span<const ConvertRequestMsg> items) {
  std::vector<ConvertResponseMsg> out(items.size());
  std::vector<Staged> staged(items.size());
  std::vector<ConvertEntry> entries;
  for (std::size_t j = 0; j < items.size(); ++j) {
    const auto& item = items[j];
    check_partials(item.v.size(), item.partials.size());
    out[j].request_id = item.request_id;
    out[j].x.resize(item.v.size());
    // Each item takes its own SU's next indices, in item order, so batch
    // composition never changes a request's output bytes.
    staged[j] = stage_randomness(item.su_id, item.v.size());
    for (std::size_t i = 0; i < item.v.size(); ++i)
      entries.push_back({&item.v[i], deal_ ? &item.partials[i] : nullptr,
                         &staged[j], i, &out[j].x[i]});
  }
  convert_entries(entries);
  conversions_ += items.size();
  entries_ += entries.size() * cfg_.pack_slots;
  after_conversion();
  return out;
}

ConvertResponseMsg StpServer::convert(const ConvertRequestMsg& request) {
  return std::move(convert_items({&request, 1}).front());
}

ConvertBatchResponseMsg StpServer::convert_batch(const ConvertBatchMsg& batch) {
  ConvertBatchResponseMsg resp{batch.batch_id, convert_items(batch.items)};
  ++batches_;
  return resp;
}

BudgetProbeResponseMsg StpServer::probe_signs(const BudgetProbeMsg& probe) {
  check_partials(probe.v.size(), probe.partials.size());
  const std::size_t k = cfg_.pack_slots;
  BudgetProbeResponseMsg resp;
  resp.probe_id = probe.probe_id;
  resp.signs.resize(probe.v.size() * k);
  // Open-and-sign only — no sign-to-±1 re-encryption, no SU key, no
  // randomizer factors, so probes never touch an SU's randomizer source.
  exec::parallel_for(exec_.get(), 0, probe.v.size(), [&](std::size_t i) {
    auto slots = open_slots(probe.v[i], deal_ ? &probe.partials[i] : nullptr);
    for (std::size_t j = 0; j < k; ++j)
      resp.signs[i * k + j] = slots[j].sign() > 0 ? 1 : 0;
  });
  ++probes_;
  probe_slots_ += probe.v.size() * k;
  return resp;
}

void StpServer::attach(net::Transport& net, const std::string& name) {
  net.register_endpoint(name, [this, &net, name](const net::Message& msg) {
    if (!seen_frames_.first_time(msg.from, msg.net_seq)) return;
    if (msg.type == kMsgConvertBatch) {
      auto batch = ConvertBatchMsg::decode(msg.payload);
      auto response = convert_batch(batch);
      // Each X̃ is under its own pk_j, whose modulus may differ from pk_G's.
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
        if (it != sources_.end()) pk = it->second.src->public_key();
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

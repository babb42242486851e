#include "core/sdc_server.hpp"

#include <filesystem>
#include <stdexcept>

#include "bigint/prime.hpp"
#include "crypto/key_codec.hpp"
#include "crypto/sha256.hpp"
#include "exec/thread_pool.hpp"
#include "store/snapshot.hpp"

namespace pisa::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Indices of `cells` grouped by block, blocks in first-appearance order.
std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>> by_block(
    const std::vector<SdcStateEngine::Cell>& cells) {
  std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>> out;
  std::map<std::uint32_t, std::size_t> slot;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    auto [it, fresh] = slot.try_emplace(cells[i].second, out.size());
    if (fresh) out.emplace_back(cells[i].second, std::vector<std::size_t>{});
    out[it->second].second.push_back(i);
  }
  return out;
}

/// The SDC's license-signing identity. Ephemeral without durability
/// (today's behaviour: fresh keypair per construction). With durability on,
/// the keypair persists as a sealed file in the store directory, so a
/// recovered SDC signs with the key SUs already hold — licenses issued
/// after a restart verify against the published license_key().
crypto::RsaKeyPair load_or_generate_identity(const PisaConfig& cfg,
                                             bn::RandomSource& rng) {
  if (!cfg.durability.enabled)
    return crypto::rsa_generate(cfg.rsa_bits, rng, cfg.mr_rounds);
  cfg.validate();
  auto file = std::filesystem::path(cfg.durability.dir) / "sdc_identity.key";
  if (auto sealed = store::read_sealed_file(file)) {
    auto sk = crypto::parse_rsa_private_key(sealed->payload);
    auto pk = sk.public_key();
    return crypto::RsaKeyPair{std::move(pk), std::move(sk)};
  }
  auto kp = crypto::rsa_generate(cfg.rsa_bits, rng, cfg.mr_rounds);
  std::filesystem::create_directories(cfg.durability.dir);
  store::write_sealed_file(file, /*epoch=*/0, crypto::serialize(kp.sk));
  return kp;
}

}  // namespace

SdcServer::SdcServer(const PisaConfig& cfg, crypto::PaillierPublicKey group_pk,
                     watch::QMatrix e_matrix, bn::RandomSource& rng,
                     std::string issuer_name)
    : cfg_(cfg), codec_(cfg.slot_bits(), cfg.pack_slots),
      group_pk_(std::move(group_pk)), e_matrix_(std::move(e_matrix)),
      rsa_(load_or_generate_identity(cfg, rng)),
      issuer_(std::move(issuer_name)),
      // The engine validates cfg, checks the E shape/sign invariants,
      // initializes Ñ from E (tail slots seeded with 1 — see sdc_state.hpp)
      // and, with durability on, recovers the previous run's state here.
      state_(cfg_, group_pk_, e_matrix_),
      stream_(rng.next_u64()) {
  if (cfg_.query_mode == QueryMode::kPir) {
    // Replica 0 lives in this process and shares the SDC's store directory
    // (its own subdirectory), so crash-recovering the SDC also recovers a
    // byte-identical PIR database.
    pir::PirDurability dur;
    if (cfg_.durability.enabled) {
      dur.enabled = true;
      dur.dir = (std::filesystem::path(cfg_.durability.dir) / "pir0").string();
      dur.snapshot_every = cfg_.durability.snapshot_every;
    }
    pir_server_ =
        std::make_unique<pir::PirServer>(e_matrix_, cfg_.pack_slots, dur);
  }
}

void SdcServer::set_thread_pool(std::shared_ptr<exec::ThreadPool> pool) {
  exec_ = std::move(pool);
  state_.set_thread_pool(exec_);
  if (pir_server_) pir_server_->set_thread_pool(exec_);
}

void SdcServer::register_su_key(std::uint32_t su_id, crypto::PaillierPublicKey pk) {
  su_keys_.insert_or_assign(su_id, std::move(pk));
}

void SdcServer::set_threshold_share(crypto::ThresholdKeyShare share) {
  threshold_share_ = std::move(share);
}

const crypto::PaillierPublicKey& SdcServer::su_key(std::uint32_t su_id) const {
  auto it = su_keys_.find(su_id);
  if (it == su_keys_.end())
    throw std::out_of_range("SdcServer: unknown SU key " + std::to_string(su_id));
  return it->second;
}

void SdcServer::handle_pu_update(const PuUpdateMsg& update) {
  auto t0 = Clock::now();
  // The engine validates the column shape, journals it first when
  // durability is on and replaces this PU's whole contribution.
  reprobe(state_.apply_pu_update(update));
  ++stats_.pu_updates;
  ++updates_folded_;
  stats_.update.add(ms_since(t0));
}

void SdcServer::handle_pu_delta(const PuDeltaMsg& delta) {
  auto t0 = Clock::now();
  reprobe(state_.apply_pu_delta(delta));
  ++stats_.pu_deltas;
  ++updates_folded_;
  stats_.delta_cells += delta.cells.size();
  stats_.delta.add(ms_since(t0));
}

void SdcServer::reprobe(const std::vector<Cell>& cells) {
  if (!cfg_.denial_filter.enabled || cells.empty()) return;
  // Conservative invalidation: the folded cells leave the filter *now*, so
  // no request can be fast-denied on pre-fold budget state; every other
  // cell keeps its recorded state — its budget entry did not move.
  // Exhaustion only returns once the STP confirms the post-fold signs;
  // until then the full pipeline serves those cells — slower, never wrong.
  // Direct-call mode (no transport) cannot probe, so the filter simply
  // stays empty.
  for (const auto& [g, b] : cells)
    ++cell_epoch_[SdcStateEngine::cell_key(g, b)];
  for (const auto& [block, idxs] : by_block(cells)) {
    std::vector<std::uint32_t> groups;
    for (std::size_t i : idxs) groups.push_back(cells[i].first);
    state_.update_block_exhaustion(block, groups, {});
  }
  if (net_ != nullptr) send_budget_probe(cells);
}

void SdcServer::recompute_budget() {
  auto t0 = Clock::now();
  state_.recompute();
  stats_.update.add(ms_since(t0));
}

bool SdcServer::fast_deny_check(const SuRequestMsg& request) {
  auto t0 = Clock::now();
  const std::size_t groups = cfg_.channel_groups();
  bool deny = false;
  for (std::uint32_t b = request.block_lo; !deny && b < request.block_hi; ++b) {
    for (std::uint32_t g = 0; !deny && g < groups; ++g)
      deny = state_.probe_exhausted(g, b);
  }
  stats_.prefilter.add(ms_since(t0));
  if (deny) {
    ++stats_.prefilter_hits;
  } else {
    ++stats_.prefilter_misses;
  }
  return deny;
}

void SdcServer::send_budget_probe(const std::vector<Cell>& cells) {
  // The request's blinding without the F term: the STP learns only
  // ε-masked signs — which the SDC unmasks — and nothing about magnitudes.
  auto blinded = blind(cells, nullptr, stream_);
  BudgetProbeMsg msg{next_probe_id_++, std::move(blinded.v),
                     std::move(blinded.partials)};
  PendingProbe pend{cells, {}, std::move(blinded.epsilon)};
  for (const auto& [g, b] : cells)
    pend.epochs.push_back(cell_epoch_[SdcStateEngine::cell_key(g, b)]);
  probes_.emplace(msg.probe_id, std::move(pend));
  ++stats_.probes_sent;
  net_->send({self_name_, stp_name_, kMsgBudgetProbe,
              msg.encode(group_pk_.ciphertext_bytes())});
}

void SdcServer::handle_probe_response(const BudgetProbeResponseMsg& resp) {
  auto it = probes_.find(resp.probe_id);
  if (it == probes_.end()) return;  // duplicate or unknown probe
  PendingProbe pend = std::move(it->second);
  probes_.erase(it);

  const std::size_t k = codec_.slots();
  // A malformed reply is dropped, not applied: the cells simply stay
  // invalidated (full pipeline, never a wrong answer).
  if (resp.signs.size() != pend.cells.size() * k) return;

  // Install per-block evidence: a cell whose epoch moved since the probe
  // left drops out of `probed` entirely (a fresher probe is in flight and
  // will carry the truth for it).
  for (const auto& [block, idxs] : by_block(pend.cells)) {
    std::vector<std::uint32_t> probed, exhausted;
    for (std::size_t idx : idxs) {
      const std::uint32_t g = pend.cells[idx].first;
      if (cell_epoch_[SdcStateEngine::cell_key(g, block)] != pend.epochs[idx])
        continue;
      probed.push_back(g);
      bool any = false;
      for (std::size_t j = 0; j < k && !any; ++j) {
        // Tail slots of the last group pad with the constant 1 (always
        // positive) — skip them so padding never marks a group exhausted.
        if (g * k + j >= cfg_.watch.channels) break;
        const bool masked_positive = resp.signs[idx * k + j] != 0;
        const bool n_positive =
            pend.epsilon[idx] > 0 ? masked_positive : !masked_positive;
        any = !n_positive;
      }
      if (any) exhausted.push_back(g);
    }
    if (!probed.empty()) state_.update_block_exhaustion(block, probed, exhausted);
  }
}

SdcServer::Blinded SdcServer::blind(
    const std::vector<Cell>& cells,
    const std::vector<crypto::PaillierCiphertext>* f, bn::RandomSource& rng) {
  const std::size_t count = cells.size();
  const std::size_t k = codec_.slots();
  const bn::BigUint x{
      f ? static_cast<std::uint64_t>(cfg_.watch.protection_scalar()) : 0};
  Blinded out;
  out.v.resize(count);
  if (threshold_share_) out.partials.resize(count);
  out.epsilon.resize(count);

  // Blinding pre-pass: all randomness is drawn sequentially here, in the
  // same per-entry order the sequential pipeline consumed it, so protocol
  // outputs stay bit-identical at every num_threads setting. Per packed
  // ciphertext: one fresh α and ε (the scalar exponents are uniform across
  // the pack — Paillier offers no per-slot multiplicative blinding), plus
  // one fresh β_j per slot, packed into a single additive operand
  // Σ_j β_j·B^j. Each slot then independently carries ε·(α·I_j − β_j) with
  // 0 < β_j < α, exactly eq. (14)'s per-entry soundness condition, and the
  // guard bits keep the slots from borrowing into one another. At
  // pack_slots = 1 the draw order (α, β, ε) matches the unpacked pipeline
  // stream for stream.
  std::vector<bn::BigUint> alphas(count);
  std::vector<bn::BigUint> betas(count);  // packed: Σ_j β_j·B^j
  std::vector<bn::BigInt> beta_slots(k);
  for (std::size_t i = 0; i < count; ++i) {
    bn::BigUint alpha = bn::random_bits(rng, cfg_.blind_bits);
    alpha.set_bit(cfg_.blind_bits - 1);
    for (std::size_t j = 0; j < k; ++j) {
      beta_slots[j] = bn::BigInt{
          bn::random_below(rng, alpha - bn::BigUint{1}) + bn::BigUint{1}};
    }
    betas[i] = codec_.pack(beta_slots).magnitude();
    alphas[i] = std::move(alpha);
    out.epsilon[i] = (rng.next_u64() & 1) != 0 ? -1 : 1;
  }

  // Each entry's one inverse — of Ñ for ε < 0, of F̃ for ε ≥ 0 — comes out
  // of a single batch inversion ahead of the parallel section. Without an
  // F term an ε ≥ 0 entry needs none: with x = 0 the second base drops out
  // of the ladder, so Ñ stands in for it.
  std::vector<const crypto::PaillierCiphertext*> budgets(count);
  std::vector<crypto::PaillierCiphertext> to_invert;
  for (std::size_t i = 0; i < count; ++i) {
    budgets[i] = &state_.budget_at(cells[i].first, cells[i].second);
    if (out.epsilon[i] < 0) to_invert.push_back(*budgets[i]);
    else if (f) to_invert.push_back((*f)[i]);
  }
  const auto inverses = group_pk_.negate_many(to_invert);
  std::vector<const crypto::PaillierCiphertext*> inverse(count);
  for (std::size_t i = 0, j = 0; i < count; ++i)
    inverse[i] = out.epsilon[i] < 0 || f ? &inverses[j++] : budgets[i];

  // Heavy modexp section: every packed entry is independent, writes only
  // its own slot of out.v / out.partials.
  exec::parallel_for(exec_.get(), 0, count, [&](std::size_t i) {
    // Eqs. (11)+(12)+(14) fused: Ṽ = ε ⊗ [(α ⊗ (Ñ ⊖ F̃ ⊗ X)) ⊖ β̃] as one
    // double exponentiation Ñ^±α · F̃^∓αx · E_det(β)^∓1 (see blind_entry) —
    // same canonical ciphertext, one inverse instead of three. The packed
    // operands make this fold k channels per ladder: Ñ and F̃ carry k slots
    // and β̃ is the packed per-slot vector.
    out.v[i] = group_pk_.blind_entry(*budgets[i], f ? (*f)[i] : *budgets[i],
                                     x, alphas[i], betas[i], out.epsilon[i],
                                     inverse[i]);
    if (threshold_share_) {
      out.partials[i] = {crypto::threshold_partial_decrypt(
          group_pk_, *threshold_share_, out.v[i])};
    }
  });
  return out;
}

ConvertRequestMsg SdcServer::begin_request(const SuRequestMsg& request) {
  auto t0 = Clock::now();
  const std::uint32_t range = request.block_hi - request.block_lo;
  if (request.block_hi > state_.budget().blocks() || range == 0)
    throw std::invalid_argument("SdcServer: bad request block range");
  if (request.f.size() != cfg_.channel_groups() * range)
    throw std::invalid_argument("SdcServer: F matrix size mismatch");
  if (pending_.contains(request.request_id))
    throw std::invalid_argument("SdcServer: duplicate request id");
  // A hostile or corrupt F̃ (zero, ≥ n², sharing a factor with n) fails the
  // request here, before any randomness is drawn or state is touched —
  // whichever sign ε it would have drawn.
  if (!group_pk_.all_units(request.f))
    throw std::invalid_argument("SdcServer: F entry is not a unit mod n^2");

  // The digest binds the license to the exact submitted ciphertexts.
  crypto::Sha256 digest;
  std::size_t ct_width = group_pk_.ciphertext_bytes();
  for (const auto& f_ct : request.f) {
    digest.update(f_ct.value.to_bytes_be(ct_width));
  }

  std::vector<Cell> cells(request.f.size());
  for (std::uint32_t idx = 0; idx < cells.size(); ++idx)
    cells[idx] = {idx / range, request.block_lo + idx % range};
  auto blinded = blind(cells, &request.f, stream_);

  PendingRequest pend;
  pend.request = request;
  pend.epsilon = std::move(blinded.epsilon);
  // finish_request draws from its own sub-stream, seeded here in arrival
  // order: how the phases of different requests interleave (which, on
  // sockets, follows packet timing) then moves no draw.
  pend.finish_seed = stream_.next_u64();

  // License + signature (Figure 5 step 10). The digest binds the license to
  // the exact encrypted operation parameters the SU submitted.
  pend.license.su_id = request.su_id;
  pend.license.issuer = issuer_;
  pend.license.serial = state_.next_serial();
  auto d = digest.finalize();
  std::copy(d.begin(), d.end(), pend.license.request_digest.begin());
  pend.signature = rsa_.sk.sign(pend.license.signing_bytes());

  pending_.emplace(request.request_id, std::move(pend));
  ++stats_.requests_started;
  stats_.phase1.add(ms_since(t0));
  return {request.request_id, request.su_id, std::move(blinded.v),
          std::move(blinded.partials)};
}

SuResponseMsg SdcServer::finish_request(const ConvertResponseMsg& response) {
  auto t0 = Clock::now();
  auto it = pending_.find(response.request_id);
  if (it == pending_.end())
    throw std::out_of_range("SdcServer: unknown request id");
  PendingRequest pend = std::move(it->second);
  pending_.erase(it);

  if (response.x.size() != pend.epsilon.size())
    throw std::invalid_argument("SdcServer: conversion size mismatch");

  const auto& pk_j = su_key(pend.request.su_id);

  // Eq. (16): Q̃ = (ε ⊗ X̃) ⊖ 1̃, accumulated: ⊕_{c,i} Q̃(c,i). ⊖ 1̃ is a
  // single multiplication by the closed-form E_det(·)⁻¹ (no extended-gcd
  // inverse), and the ⊕-fold runs as one Montgomery-domain product — both
  // produce the same canonical ciphertexts as the loop they replace. With
  // packing, X̃ carries one ±1 verdict per slot, so "⊖ 1̃" subtracts the
  // packed all-ones constant Σ_j B^j: every slot lands on 0 (grant) or −2
  // (deny) and the ⊕-fold accumulates per slot without cross-slot borrows
  // (|Σ q| ≤ 2·⌈C/k⌉·range ≪ B/2). The total Σ_slots Σ_packs Q is zero iff
  // every slot passed — exactly the unpacked grant condition.
  // The ε < 0 entries' ⊖ comes out of one batch inversion.
  std::vector<crypto::PaillierCiphertext> flipped;
  for (std::size_t i = 0; i < response.x.size(); ++i)
    if (pend.epsilon[i] < 0) flipped.push_back(response.x[i]);
  flipped = pk_j.negate_many(flipped);
  std::vector<crypto::PaillierCiphertext> qs(response.x.size());
  for (std::size_t i = 0, f = 0; i < response.x.size(); ++i)
    qs[i] = pend.epsilon[i] < 0 ? std::move(flipped[f++]) : response.x[i];
  exec::parallel_for(exec_.get(), 0, qs.size(), [&](std::size_t i) {
    qs[i] = pk_j.sub_deterministic(qs[i], codec_.ones());
  });
  auto acc = pk_j.add_many(qs);

  // Eq. (17): G̃ = S̃G ⊕ (η ⊗ ΣQ̃), fresh η >= 1 — η ⊗ · ⊕ · fused into one
  // ladder with the S̃G factor riding the Montgomery exit.
  crypto::ChaChaRng finish_rng{pend.finish_seed};
  bn::BigUint eta = bn::random_bits(finish_rng, cfg_.blind_bits);
  eta.set_bit(cfg_.blind_bits - 1);
  auto g = crypto::PaillierCiphertext{pk_j.mont_n2().pow_mul(
      acc.value, eta, pk_j.encrypt(pend.signature, finish_rng).value)};

  SuResponseMsg resp;
  resp.request_id = response.request_id;
  resp.license = pend.license;
  resp.g = std::move(g);
  ++stats_.requests_finished;
  stats_.phase2.add(ms_since(t0));
  return resp;
}

void SdcServer::stage_conversion(ConvertRequestMsg conv) {
  staged_entries_ += conv.v.size();
  staged_.push_back(std::move(conv));
  if (inflight_batch_) return;  // pipelined: rides the next flush
  if (staged_entries_ >= cfg_.convert_batch_max) {
    flush_batch();
    return;
  }
  if (!linger_armed_) {
    // First staged request arms the linger; later arrivals ride along. With
    // linger 0 the timer still fires after every message already delivered
    // at this virtual instant (FIFO tiebreak), so a burst landing together
    // coalesces into one batch.
    linger_armed_ = true;
    net_->schedule_after(cfg_.convert_batch_linger_us, [this] {
      linger_armed_ = false;
      if (!inflight_batch_ && !staged_.empty()) flush_batch();
    });
  }
}

void SdcServer::flush_batch() {
  // Take a prefix of at most convert_batch_max entries — but always at
  // least one item, so a single oversized request still goes through (and
  // at convert_batch_max = 0 every request leaves alone, at once).
  std::size_t take = 0, entries = 0;
  while (take < staged_.size()) {
    std::size_t sz = staged_[take].v.size();
    if (take > 0 && entries + sz > cfg_.convert_batch_max) break;
    entries += sz;
    ++take;
  }
  ConvertBatchMsg batch;
  batch.batch_id = next_batch_id_++;
  batch.items.assign(std::make_move_iterator(staged_.begin()),
                     std::make_move_iterator(staged_.begin() + take));
  staged_.erase(staged_.begin(), staged_.begin() + take);
  staged_entries_ -= entries;
  ++stats_.batches_sent;
  net_->send({self_name_, stp_name_, kMsgConvertBatch,
              batch.encode(group_pk_.ciphertext_bytes())});
  // Unbatched, a one-item batch never holds up another request: no
  // in-flight slot, so no watchdog either.
  if (cfg_.convert_batch_max == 0) return;
  inflight_batch_ = batch.batch_id;
  // Loss watchdog: if the reply never arrives (transport gave up after its
  // retries), unblock the batcher and flush the waiting buffer instead of
  // wedging every later request behind a dead batch.
  const std::uint64_t id = batch.batch_id;
  net_->schedule_after(watchdog_delay_us(), [this, id] {
    if (inflight_batch_ && *inflight_batch_ == id) {
      inflight_batch_.reset();
      ++stats_.batches_timed_out;
      if (!staged_.empty()) flush_batch();
    }
  });
}

double SdcServer::watchdog_delay_us() const {
  if (cfg_.reliability.enabled) {
    // Outlive the transport's whole retry schedule (Σ timeout·backoff^k over
    // every transmission) with 50% headroom, plus our own linger.
    const net::ReliablePolicy policy;
    double budget = 0.0, t = policy.timeout_us;
    for (std::size_t k = 0; k <= policy.max_retries; ++k) {
      budget += t;
      t *= policy.backoff;
    }
    return 1.5 * budget + cfg_.convert_batch_linger_us;
  }
  return 1e6;  // 1 s of virtual time on the perfect bus
}

void SdcServer::attach(net::Transport& net, const std::string& name,
                       const std::string& stp_name) {
  net_ = &net;
  self_name_ = name;
  stp_name_ = stp_name;
  // PIR mode: the co-located replica 0 answers on its own endpoint, so PU
  // columns and SU share queries never mix into the Paillier handler below.
  if (pir_server_) pir_server_->attach(net, pir::replica_name(0));
  // Completing a request needs pk_j (eq. (16) operates under the SU's key).
  // Keys arrive asynchronously from the STP directory, so a conversion that
  // beats its key parks in awaiting_key_ and comes back here on arrival.
  auto complete = [this, &net, name](ConvertResponseMsg response) {
    auto it = pending_.find(response.request_id);
    if (it == pending_.end()) return;  // duplicate or late conversion
    const std::uint32_t su_id = it->second.request.su_id;
    if (!su_keys_.contains(su_id)) {
      awaiting_key_[su_id].push_back(std::move(response));
      return;
    }
    auto reply_to = it->second.reply_to;
    auto su_resp = finish_request(response);
    net.send({name, reply_to, kMsgSuResponse,
              su_resp.encode(su_key(su_id).ciphertext_bytes())});
  };

  net.register_endpoint(name, [this, &net, name, stp_name, complete](
                                  const net::Message& msg) {
    if (!seen_frames_.first_time(msg.from, msg.net_seq)) return;
    if (msg.type == kMsgPuUpdate) {
      handle_pu_update(PuUpdateMsg::decode(msg.payload));
    } else if (msg.type == kMsgPuDelta) {
      handle_pu_delta(PuDeltaMsg::decode(msg.payload));
    } else if (msg.type == kMsgSuRequest) {
      auto request = SuRequestMsg::decode(msg.payload);
      // Replayed request id (retransmission past both dedup windows): the
      // conversion round is already in flight — starting it again would
      // double-blind and double-count, so drop the duplicate.
      if (pending_.contains(request.request_id)) return;
      // §3.8 fast path: a confirmed-exhausted cell in the disclosed range
      // is a certain denial — answer in this round and skip the blinding,
      // the conversion round-trip and the license machinery entirely. The
      // range is bounds-checked first so a malformed request still takes
      // the full path's validation errors.
      if (cfg_.denial_filter.enabled && request.block_hi > request.block_lo &&
          request.block_hi <= state_.budget().blocks() &&
          fast_deny_check(request)) {
        net.send({name, msg.from, kMsgFastDeny,
                  FastDenyMsg{request.request_id}.encode()});
        return;
      }
      auto conv = begin_request(request);
      pending_.at(request.request_id).reply_to = msg.from;
      stage_conversion(std::move(conv));
      // Prefetch the SU's key in parallel with the conversion round.
      if (!su_keys_.contains(request.su_id) &&
          !lookups_in_flight_.contains(request.su_id)) {
        lookups_in_flight_.insert(request.su_id);
        net.send({name, stp_name, kMsgKeyLookup,
                  KeyLookupMsg{request.su_id}.encode()});
      }
    } else if (msg.type == kMsgConvertBatchResponse) {
      auto batch = ConvertBatchResponseMsg::decode(msg.payload);
      // A reply that arrives after its watchdog fired still completes its
      // requests below (each item is validated against pending_, so
      // duplicates and already-finished requests fall out); the batch_id
      // check only governs the in-flight slot.
      if (inflight_batch_ && *inflight_batch_ == batch.batch_id)
        inflight_batch_.reset();
      for (auto& response : batch.items) complete(std::move(response));
      // Pipelining: requests that arrived while this batch was at the STP
      // are already blinded and staged — flush them without waiting for a
      // new linger window.
      if (!inflight_batch_ && !staged_.empty()) flush_batch();
    } else if (msg.type == kMsgBudgetProbeResponse) {
      handle_probe_response(BudgetProbeResponseMsg::decode(msg.payload));
    } else if (msg.type == kMsgKeyLookupResponse) {
      auto resp = KeyLookupResponseMsg::decode(msg.payload);
      lookups_in_flight_.erase(resp.su_id);
      if (!resp.found)
        throw std::runtime_error("SdcServer: STP has no key for SU " +
                                 std::to_string(resp.su_id));
      register_su_key(resp.su_id,
                      crypto::parse_paillier_public_key(resp.public_key));
      if (auto parked = awaiting_key_.extract(resp.su_id))
        for (auto& response : parked.mapped()) complete(std::move(response));
    } else {
      throw std::runtime_error("SdcServer: unexpected message type " + msg.type);
    }
  });
}

}  // namespace pisa::core

#include "core/client_session.hpp"

#include <chrono>
#include <stdexcept>

#include "crypto/key_codec.hpp"
#include "pir/pir_database.hpp"

namespace pisa::core {

std::uint64_t SuInbox::deliver(const net::Message& msg) {
  // Decode outside the lock; only the registry update is serialized.
  std::optional<pir::PirReplyMsg> reply;
  std::optional<SuResponseMsg> response;
  bool fast_denied = false;
  std::uint64_t rid = 0;
  if (msg.type == pir::kMsgPirReply) {
    reply = pir::PirReplyMsg::decode(msg.payload);
    rid = reply->request_id;
  } else if (msg.type == kMsgFastDeny) {
    // decode() validates the fixed 32-byte shape (leakage discipline).
    rid = FastDenyMsg::decode(msg.payload).request_id;
    fast_denied = true;
  } else if (msg.type == kMsgSuResponse) {
    response = SuResponseMsg::decode(msg.payload);
    rid = response->request_id;
  } else {
    throw std::runtime_error("SU endpoint: unexpected message " + msg.type);
  }
  bool done = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto& a = answers_[rid];
    if (reply) a.pir_replies.push_back(std::move(*reply));
    if (response) a.response = std::move(response);
    a.fast_denied = a.fast_denied || fast_denied;
    a.bytes += msg.payload.size();
    done = complete(a);
  }
  if (done && hook_) hook_(rid);
  cv_.notify_all();
  return rid;
}

SuInbox::Answer SuInbox::take(std::uint64_t request_id, double timeout_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait_for(
      lk, std::chrono::microseconds(static_cast<std::int64_t>(timeout_ms * 1e3)),
      [&] {
        auto it = answers_.find(request_id);
        return it != answers_.end() && complete(it->second);
      });
  auto node = answers_.extract(request_id);
  return node.empty() ? Answer{} : std::move(node.mapped());
}

ClientSession::ClientSession(const PisaConfig& cfg,
                             crypto::PaillierPublicKey group_pk,
                             net::Transport& transport, bn::RandomSource& rng,
                             std::shared_ptr<exec::ThreadPool> pool)
    : cfg_(cfg), group_pk_(std::move(group_pk)), transport_(transport),
      rng_(rng), pool_(std::move(pool)),
      e_matrix_(watch::make_e_matrix(cfg.watch)), inbox_(cfg.pir.replicas) {}

SuClient& ClientSession::add_su(std::uint32_t su_id, std::size_t precompute) {
  auto [it, inserted] = sus_.try_emplace(su_id, su_id, cfg_, group_pk_, rng_);
  if (!inserted) throw std::invalid_argument("ClientSession: duplicate SU id");
  auto& client = it->second;
  client.set_thread_pool(pool_);
  transport_.register_endpoint(
      su_name(su_id), [this](const net::Message& msg) { inbox_.deliver(msg); });
  KeyRegisterMsg reg{su_id, crypto::serialize(client.public_key())};
  transport_.send({su_name(su_id), "stp", kMsgKeyRegister, reg.encode()});
  if (precompute > 0) client.precompute_randomizers(precompute);
  if (cfg_.query_mode == QueryMode::kPir)
    pir_clients_.try_emplace(su_id, su_id, cfg_.pir.replicas,
                             cfg_.watch.make_area().num_blocks(), rng_);
  return client;
}

PuClient& ClientSession::add_pu(const watch::PuSite& site) {
  auto [it, inserted] =
      pus_.try_emplace(site.pu_id, site, cfg_, group_pk_, e_matrix_, rng_);
  if (!inserted) throw std::invalid_argument("ClientSession: duplicate PU id");
  it->second.set_thread_pool(pool_);
  transport_.register_endpoint(pu_name(site.pu_id), [](const net::Message& msg) {
    throw std::runtime_error("PU endpoint: unexpected message " + msg.type);
  });
  return it->second;
}

SuClient& ClientSession::su(std::uint32_t su_id) {
  auto it = sus_.find(su_id);
  if (it == sus_.end()) throw std::out_of_range("ClientSession: unknown SU");
  return it->second;
}

PuClient& ClientSession::pu(std::uint32_t pu_id) {
  auto it = pus_.find(pu_id);
  if (it == pus_.end()) throw std::out_of_range("ClientSession: unknown PU");
  return it->second;
}

std::vector<watch::PuSite> ClientSession::pu_sites() const {
  std::vector<watch::PuSite> sites;
  sites.reserve(pus_.size());
  for (const auto& [id, client] : pus_) sites.push_back(client.site());
  return sites;
}

std::vector<net::Message> ClientSession::pu_frames(
    std::uint32_t pu_id, const watch::PuTuning& tuning, bool use_delta) {
  auto& client = pu(pu_id);
  const auto from = pu_name(pu_id);
  const std::size_t width = group_pk_.ciphertext_bytes();
  std::vector<net::Message> frames;
  if (!use_delta) {
    frames.push_back(
        {from, "sdc", kMsgPuUpdate, client.make_update(tuning).encode(width)});
  } else if (auto delta = client.make_delta(tuning)) {
    frames.push_back({from, "sdc", kMsgPuDelta, delta->encode(width)});
  } else {
    return frames;
  }
  // Replicas always take the full current column — they diff it against
  // their stored copy, so a delta-sized event still refreshes only touched
  // rows. make_pir_update consumes no randomness and reads no footprint.
  if (cfg_.query_mode == QueryMode::kPir) {
    const auto bytes = client.make_pir_update(tuning).encode();
    for (std::size_t i = 0; i < cfg_.pir.replicas; ++i)
      frames.push_back({from, pir::replica_name(i), pir::kMsgPirUpdate, bytes});
  }
  return frames;
}

std::pair<std::uint32_t, std::uint32_t> ClientSession::disclosed(
    const watch::QMatrix& f,
    std::optional<std::pair<std::uint32_t, std::uint32_t>> range) {
  return range.value_or(std::pair{0u, static_cast<std::uint32_t>(f.blocks())});
}

PreparedRequest ClientSession::prepare_request(
    std::uint32_t su_id, const watch::QMatrix& f,
    std::optional<std::pair<std::uint32_t, std::uint32_t>> range) {
  PreparedRequest p;
  p.request_id = next_request_id_++;
  p.su_id = su_id;
  const auto [lo, hi] = disclosed(f, range);
  p.bytes = su(su_id)
                .prepare_request(f, p.request_id, lo, hi)
                .encode(group_pk_.ciphertext_bytes());
  return p;
}

void ClientSession::submit(const PreparedRequest& req) {
  transport_.send({su_name(req.su_id), "sdc", kMsgSuRequest, req.bytes});
}

SuDecision ClientSession::decide(const PreparedRequest& req,
                                 const crypto::RsaPublicKey* issuer,
                                 double timeout_ms) {
  auto answer = inbox_.take(req.request_id, timeout_ms);
  SuDecision out;
  out.answer_bytes = answer.bytes;
  auto& client = su(req.su_id);
  if (answer.fast_denied) {
    // §3.8 prefilter denial: no SuResponseMsg exists for this request.
    out.fast_denied = true;
    out.granted = client.process_fast_deny(FastDenyMsg{req.request_id}).granted;
  } else if (answer.response) {
    if (issuer == nullptr)
      throw std::logic_error("ClientSession: a response needs its issuer key");
    auto outcome = client.process_response(*answer.response, *issuer);
    out.granted = outcome.granted;
    out.license = std::move(outcome.license);
    out.signature = std::move(outcome.signature);
  } else {
    // Graceful degradation: retries are bounded, so no answer means some
    // hop exhausted its budget or an endpoint vanished. Report a typed
    // failure instead of hanging or throwing.
    out.status = SuDecision::Status::kTransportFailed;
    out.failure = "no response delivered";
  }
  return out;
}

PirQuery ClientSession::submit_pir(std::uint32_t su_id, std::uint32_t block_lo,
                                   std::uint32_t block_hi) {
  auto it = pir_clients_.find(su_id);
  if (it == pir_clients_.end())
    throw std::out_of_range("ClientSession: unknown PIR SU");
  PirQuery q{next_request_id_++, su_id, block_lo, block_hi, 0};
  auto queries = it->second.make_queries(q.request_id, block_lo, block_hi);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto bytes = queries[i].encode();
    q.bytes += bytes.size();
    transport_.send({su_name(su_id), pir::replica_name(i), pir::kMsgPirQuery,
                     std::move(bytes)});
  }
  return q;
}

SuDecision ClientSession::decide_pir(const PirQuery& query,
                                     const watch::QMatrix& f,
                                     double timeout_ms) {
  auto answer = inbox_.take(query.request_id, timeout_ms);
  SuDecision out;
  out.answer_bytes = answer.bytes;
  const auto& got = answer.pir_replies;
  if (got.size() != cfg_.pir.replicas) {
    // XOR reconstruction from fewer than ℓ shares is garbage: a typed
    // delivery failure — never a wrong answer, never a hang.
    out.status = SuDecision::Status::kTransportFailed;
    out.failure = "got " + std::to_string(got.size()) + "/" +
                  std::to_string(cfg_.pir.replicas) + " PIR replies";
    return out;
  }
  // Replies that agree with each other but not with the request (too few
  // rows, rows narrower than C budgets) are a delivery failure too.
  const std::size_t want_rows = query.block_hi - query.block_lo;
  const std::size_t want_bytes = pir::PirDatabase::stride(cfg_.watch.channels);
  for (const auto& r : got) {
    if (r.row_count() != want_rows || r.row_bytes != want_bytes) {
      out.status = SuDecision::Status::kTransportFailed;
      out.failure = "PIR reply of " + std::to_string(r.row_count()) +
                    " rows × " + std::to_string(r.row_bytes) +
                    " B, expected " + std::to_string(want_rows) + " × " +
                    std::to_string(want_bytes) + " B";
      return out;
    }
  }
  try {
    out.granted = pir_clients_.at(query.su_id)
                      .decide(got, cfg_.watch, f, query.block_lo)
                      .granted;
  } catch (const std::overflow_error&) {
    throw;  // F·X headroom: fails loud, exactly like the plaintext oracle
  } catch (const std::runtime_error& e) {
    // Version/shape divergence across replicas: refuse the reconstruction
    // and surface it as a delivery failure the caller can retry.
    out.status = SuDecision::Status::kTransportFailed;
    out.failure = e.what();
  }
  return out;
}

}  // namespace pisa::core

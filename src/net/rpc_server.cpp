#include "net/rpc_server.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <stdexcept>

#include "core/messages.hpp"
#include "crypto/key_codec.hpp"

namespace pisa::rpc {

RpcServer::RpcServer(const core::PisaConfig& cfg, bn::RandomSource& rng,
                     net::TcpOptions opts, std::uint16_t port)
    : tcp_(opts), infra_(cfg, tcp_, rng) {
  infra_.stp().set_conversion_hook([this] { wake_refill(); });
  tcp_.listen(port);
}

RpcServer::~RpcServer() {
  tcp_.stop();  // joins the dispatch thread: no conversion wakes us any more
  {
    std::lock_guard<std::mutex> lk(refill_mu_);
    refill_stop_ = true;
  }
  refill_cv_.notify_one();
  if (refill_.joinable()) refill_.join();
}

void RpcServer::wake_refill() {
  std::lock_guard<std::mutex> lk(refill_mu_);
  if (refill_stop_) return;
  // Created from the dispatch thread, so it inherits that thread's CPU set.
  if (!refill_.joinable()) refill_ = std::thread([this] { refill_loop(); });
  refill_wake_ = true;
  refill_cv_.notify_one();
}

void RpcServer::refill_loop() {
  // SCHED_IDLE runs this thread only on a CPU nothing else wants, and any
  // waking request thread preempts it at once.
  sched_param param{};
  if (::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param) != 0)
    ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), 19);
  std::unique_lock<std::mutex> lk(refill_mu_);
  for (;;) {
    refill_cv_.wait(lk, [&] { return refill_wake_ || refill_stop_; });
    if (refill_stop_) return;
    refill_wake_ = false;
    lk.unlock();
    while (!refill_stop_ && infra_.stp().refill_randomizers(1) > 0) {
    }
    lk.lock();
  }
}

RpcClient::RpcClient(const core::PisaConfig& cfg,
                     crypto::PaillierPublicKey group_pk, std::string host,
                     std::uint16_t port, bn::RandomSource& rng,
                     net::TcpOptions opts)
    : cfg_(cfg), group_pk_(std::move(group_pk)), host_(std::move(host)),
      port_(port), rng_(rng), tcp_(opts),
      e_matrix_(watch::make_e_matrix(cfg.watch)), inbox_(cfg.pir.replicas) {
  conn_id_ = tcp_.connect(host_, port_, route_names());
}

std::vector<std::string> RpcClient::route_names() const {
  std::vector<std::string> names{"sdc", "stp"};
  if (cfg_.query_mode == core::QueryMode::kPir)
    for (std::size_t i = 0; i < cfg_.pir.replicas; ++i)
      names.push_back(pir::replica_name(i));
  return names;
}

core::SuClient& RpcClient::add_su(std::uint32_t su_id, std::size_t precompute) {
  if (sus_.contains(su_id))
    throw std::invalid_argument("RpcClient: duplicate SU id");
  auto client =
      std::make_unique<core::SuClient>(su_id, cfg_, group_pk_, rng_);
  tcp_.register_endpoint(su_name(su_id), [this](const net::Message& msg) {
    inbox_.deliver(msg);
  });
  core::KeyRegisterMsg reg{su_id, crypto::serialize(client->public_key())};
  tcp_.send({su_name(su_id), "stp", core::kMsgKeyRegister, reg.encode()});
  if (precompute > 0) client->precompute_randomizers(precompute);
  if (cfg_.query_mode == core::QueryMode::kPir)
    pir_clients_.emplace(
        su_id, std::make_unique<pir::PirClient>(
                   su_id, cfg_.pir.replicas,
                   cfg_.watch.make_area().num_blocks(), rng_));
  auto& ref = *client;
  sus_.emplace(su_id, std::move(client));
  return ref;
}

core::PuClient& RpcClient::add_pu(const watch::PuSite& site) {
  if (pus_.contains(site.pu_id))
    throw std::invalid_argument("RpcClient: duplicate PU id");
  auto client = std::make_unique<core::PuClient>(
      site, cfg_, group_pk_, e_matrix_, rng_);
  auto& ref = *client;
  pus_.emplace(site.pu_id, std::move(client));
  return ref;
}

core::SuClient& RpcClient::su(std::uint32_t su_id) {
  auto it = sus_.find(su_id);
  if (it == sus_.end()) throw std::out_of_range("RpcClient: unknown SU");
  return *it->second;
}

core::PuClient& RpcClient::pu(std::uint32_t pu_id) {
  auto it = pus_.find(pu_id);
  if (it == pus_.end()) throw std::out_of_range("RpcClient: unknown PU");
  return *it->second;
}

void RpcClient::send_pir_updates(std::uint32_t pu_id,
                                 const watch::PuTuning& tuning) {
  if (cfg_.query_mode != core::QueryMode::kPir) return;
  auto bytes = pu(pu_id).make_pir_update(tuning).encode();
  for (std::size_t i = 0; i < cfg_.pir.replicas; ++i) {
    net::Message m;
    m.from = "pu_" + std::to_string(pu_id);
    m.to = pir::replica_name(i);
    m.type = pir::kMsgPirUpdate;
    m.payload = bytes;
    m.net_seq = next_pin_seq_++;
    tcp_.send(std::move(m));
  }
}

RpcClient::PuUpdateHandle RpcClient::pu_update(std::uint32_t pu_id,
                                               const watch::PuTuning& tuning) {
  auto update = pu(pu_id).make_update(tuning);
  PuUpdateHandle h;
  h.pu_id = pu_id;
  h.net_seq = next_pin_seq_++;
  h.bytes = update.encode(group_pk_.ciphertext_bytes());
  resend_pu_update(h);
  send_pir_updates(pu_id, tuning);
  return h;
}

void RpcClient::resend_pu_update(const PuUpdateHandle& handle) {
  net::Message m;
  m.from = "pu_" + std::to_string(handle.pu_id);
  m.to = "sdc";
  m.type = core::kMsgPuUpdate;
  m.payload = handle.bytes;
  m.net_seq = handle.net_seq;  // pinned: duplicates dedup at the SDC
  tcp_.send(std::move(m));
}

std::optional<RpcClient::PuUpdateHandle> RpcClient::pu_delta(
    std::uint32_t pu_id, const watch::PuTuning& tuning) {
  auto delta = pu(pu_id).make_delta(tuning);
  if (!delta) return std::nullopt;
  PuUpdateHandle h;
  h.pu_id = pu_id;
  h.net_seq = next_pin_seq_++;
  h.bytes = delta->encode(group_pk_.ciphertext_bytes());
  resend_pu_delta(h);
  send_pir_updates(pu_id, tuning);
  return h;
}

void RpcClient::resend_pu_delta(const PuUpdateHandle& handle) {
  net::Message m;
  m.from = "pu_" + std::to_string(handle.pu_id);
  m.to = "sdc";
  m.type = core::kMsgPuDelta;
  m.payload = handle.bytes;
  // Pinned seq dedups transport-level duplicates; the engine's per-PU
  // delta_seq additionally folds each delta exactly once even when a crash
  // tore a partial application (shards re-check their own applied seq).
  m.net_seq = handle.net_seq;
  tcp_.send(std::move(m));
}

RpcClient::PreparedRequest RpcClient::prepare_request(
    std::uint32_t su_id, const watch::QMatrix& f,
    std::optional<std::pair<std::uint32_t, std::uint32_t>> range,
    core::PrepMode mode) {
  PreparedRequest p;
  p.request_id = next_request_id_++;
  p.su_id = su_id;
  std::uint32_t lo = range ? range->first : 0;
  std::uint32_t hi =
      range ? range->second : static_cast<std::uint32_t>(f.blocks());
  auto msg = su(su_id).prepare_request(f, p.request_id, lo, hi, mode);
  p.bytes = msg.encode(group_pk_.ciphertext_bytes());
  return p;
}

void RpcClient::submit(const PreparedRequest& req) {
  tcp_.send({su_name(req.su_id), "sdc", core::kMsgSuRequest, req.bytes});
}

bool RpcClient::wait_response(std::uint64_t request_id,
                              core::SuResponseMsg* out, double timeout_ms,
                              bool* fast_denied) {
  auto answer = inbox_.take(request_id, timeout_ms);
  if (fast_denied != nullptr) *fast_denied = answer.fast_denied;
  if (answer.fast_denied) return true;
  if (!answer.response) return false;
  if (out != nullptr) *out = std::move(*answer.response);
  return true;
}

RpcClient::PirOutcome RpcClient::pir_request(std::uint32_t su_id,
                                             const watch::QMatrix& f,
                                             std::uint32_t block_lo,
                                             std::uint32_t block_hi,
                                             double timeout_ms) {
  auto it = pir_clients_.find(su_id);
  if (it == pir_clients_.end())
    throw std::out_of_range("RpcClient: unknown SU");
  auto& client = *it->second;

  std::uint64_t rid = next_request_id_++;
  auto queries = client.make_queries(rid, block_lo, block_hi);

  PirOutcome out;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto bytes = queries[i].encode();
    out.query_bytes += bytes.size();
    tcp_.send({su_name(su_id), pir::replica_name(i), pir::kMsgPirQuery,
               std::move(bytes)});
  }

  auto got = inbox_.take(rid, timeout_ms).pir_replies;
  if (got.size() < cfg_.pir.replicas) {
    out.failure = "timed out with " + std::to_string(got.size()) + "/" +
                  std::to_string(cfg_.pir.replicas) + " PIR replies";
    return out;
  }
  for (const auto& r : got) out.reply_bytes += r.encode().size();
  try {
    out.granted = client.decide(got, cfg_.watch, f, block_lo).granted;
    out.completed = true;
  } catch (const std::runtime_error& e) {
    out.failure = e.what();
  }
  return out;
}

void RpcClient::reconnect() {
  tcp_.close_connection(conn_id_);
  conn_id_ = tcp_.connect(host_, port_, route_names());
}

}  // namespace pisa::rpc

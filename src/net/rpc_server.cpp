#include "net/rpc_server.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

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
    : ClientTransport(opts),
      ClientSession(cfg, std::move(group_pk), tcp_, rng),
      host_(std::move(host)), port_(port) {
  conn_id_ = tcp_.connect(host_, port_, route_names());
}

std::vector<std::string> RpcClient::route_names() const {
  std::vector<std::string> names{"sdc", "stp"};
  if (config().query_mode == core::QueryMode::kPir)
    for (std::size_t i = 0; i < config().pir.replicas; ++i)
      names.push_back(pir::replica_name(i));
  return names;
}

std::optional<RpcClient::PuUpdateHandle> RpcClient::pu_send(
    std::uint32_t pu_id, const watch::PuTuning& tuning, bool use_delta) {
  auto frames = pu_frames(pu_id, tuning, use_delta);
  if (frames.empty()) return std::nullopt;
  for (auto& m : frames) m.net_seq = next_pin_seq_++;
  PuUpdateHandle handle = frames.front();
  for (auto& m : frames) tcp_.send(std::move(m));
  return handle;
}

bool RpcClient::wait_response(std::uint64_t request_id,
                              core::SuResponseMsg* out, double timeout_ms,
                              bool* fast_denied) {
  auto answer = inbox().take(request_id, timeout_ms);
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
  const auto query = submit_pir(su_id, block_lo, block_hi);
  const auto d = decide_pir(query, f, timeout_ms);
  return {d.completed(), d.granted, d.failure, query.bytes, d.answer_bytes};
}

void RpcClient::reconnect() {
  tcp_.close_connection(conn_id_);
  conn_id_ = tcp_.connect(host_, port_, route_names());
}

}  // namespace pisa::rpc

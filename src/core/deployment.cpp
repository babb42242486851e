#include "core/deployment.hpp"

#include <chrono>
#include <stdexcept>

#include "exec/thread_pool.hpp"

namespace pisa::core {

Infrastructure::Infrastructure(const PisaConfig& cfg, net::Transport& transport,
                               bn::RandomSource& rng)
    : cfg_(cfg), transport_(transport), rng_(rng) {
  cfg_.validate();
  if (cfg_.num_threads > 1)
    exec_ = std::make_shared<exec::ThreadPool>(cfg_.num_threads);
  stp_ = std::make_unique<StpServer>(cfg_, rng_);
  stp_->set_thread_pool(exec_);
  stp_->attach(transport_, "stp");
  boot_sdc();
  // §3.10 PIR mode: replica 0 lives inside the SDC; the standalone replicas
  // 1..ℓ−1 sit on the same transport as their own endpoints.
  if (cfg_.query_mode == QueryMode::kPir) {
    const auto e = watch::make_e_matrix(cfg_.watch);
    for (std::size_t i = 1; i < cfg_.pir.replicas; ++i) {
      auto srv =
          std::make_unique<pir::PirServer>(e, cfg_.pack_slots, pir::PirDurability{});
      srv->set_thread_pool(exec_);
      srv->attach(transport_, pir::replica_name(i));
      pir_extras_.push_back(std::move(srv));
    }
  }
}

void Infrastructure::boot_sdc() {
  sdc_ = std::make_unique<SdcServer>(cfg_, stp_->group_key(),
                                     watch::make_e_matrix(cfg_.watch), rng_);
  if (cfg_.threshold_stp) sdc_->set_threshold_share(stp_->sdc_share());
  sdc_->set_thread_pool(exec_);
  sdc_->attach(transport_, "sdc", "stp");
}

void Infrastructure::crash_sdc() {
  if (!sdc_) return;
  transport_.remove_endpoint("sdc");
  if (cfg_.query_mode == QueryMode::kPir)
    transport_.remove_endpoint(pir::replica_name(0));
  sdc_.reset();
}

SdcServer& Infrastructure::restart_sdc() {
  if (!sdc_) boot_sdc();
  return *sdc_;
}

pir::PirServer* Infrastructure::pir_replica(std::size_t index) {
  if (cfg_.query_mode != QueryMode::kPir || index >= cfg_.pir.replicas)
    return nullptr;
  if (index == 0) return sdc_ ? sdc_->pir_server() : nullptr;
  return pir_extras_.at(index - 1).get();
}

void Infrastructure::crash_pir_replica(std::size_t index) {
  if (index == 0 || index >= cfg_.pir.replicas)
    throw std::out_of_range(
        "Infrastructure: crash_pir_replica needs a standalone replica index "
        "(crash replica 0 via crash_sdc)");
  auto& slot = pir_extras_.at(index - 1);
  if (!slot) return;
  transport_.remove_endpoint(pir::replica_name(index));
  slot.reset();
}

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

}  // namespace pisa::core

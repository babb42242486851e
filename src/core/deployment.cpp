#include "core/deployment.hpp"

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

}  // namespace pisa::core

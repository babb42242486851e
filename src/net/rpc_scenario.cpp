#include "net/rpc_scenario.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace pisa::rpc {

TcpScenarioDriver::TcpScenarioDriver(RpcServer& server, RpcClient& client,
                                     const core::PisaConfig& cfg,
                                     const std::vector<watch::PuSite>& sites,
                                     const radio::PathLossModel& model,
                                     double timeout_ms)
    : ScenarioDriver(server.infrastructure()),
      server_(server),
      client_(client),
      model_(model),
      d_c_m_(watch::exclusion_radius_m(cfg.watch, model)),
      timeout_ms_(timeout_ms) {
  for (const auto& site : sites) pu_ids_.push_back(site.pu_id);
}

void TcpScenarioDriver::pu_move(std::uint32_t pu_id, std::uint32_t block) {
  client_.pu(pu_id).move_to(block);
}

void TcpScenarioDriver::sync() { server_.transport().quiesce(timeout_ms_); }

bool TcpScenarioDriver::pu_send(std::uint32_t pu_id,
                                const watch::PuTuning& tuning, bool use_delta) {
  // Every earlier update has folded (each send waits for its own), so the
  // next bump of the fold counter is this update's arrival.
  const auto folded = [this] {
    return infra_.sdc_running() ? infra_.sdc().updates_folded() : 0;
  };
  const std::uint64_t target = folded() + 1;
  if (use_delta) {
    if (!client_.pu_delta(pu_id, tuning)) return false;
  } else {
    client_.pu_update(pu_id, tuning);
  }
  if (!infra_.sdc_running()) return true;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<std::int64_t>(timeout_ms_ * 1e3));
  // Arrival first: each fold enqueues its probe round *before* bumping the
  // counter, so once it covers this update one lane quiesce is enough to
  // know that probe round has run too.
  while (folded() < target) {
    if (std::chrono::steady_clock::now() >= deadline)
      throw std::runtime_error(
          "TcpScenarioDriver: timed out waiting for PU updates to fold");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  sync();
  return true;
}

core::ScenarioDriver::RequestResult TcpScenarioDriver::su_request(
    const watch::SuRequest& request, std::uint32_t range_pad) {
  std::vector<watch::PuSite> sites;
  sites.reserve(pu_ids_.size());
  for (const auto id : pu_ids_) sites.push_back(client_.pu(id).site());
  const auto f = watch::build_su_f_matrix(infra_.config().watch, sites,
                                          request.block,
                                          request.eirp_mw_per_channel, model_,
                                          d_c_m_);
  const auto range = core::disclosed_range(f, request.block.index, range_pad);
  auto prepared = client_.prepare_request(request.su_id, f, range);
  client_.submit(prepared);

  RequestResult res;
  core::SuResponseMsg resp;
  bool fast = false;
  if (!client_.wait_response(prepared.request_id, &resp, timeout_ms_, &fast))
    return res;  // completed = false: transport failure / timeout
  res.completed = true;
  if (fast) {
    res.fast_denied = true;  // §3.8 one-round deny: no license, serial 0
    return res;
  }
  auto outcome =
      client_.su(request.su_id).process_response(resp, server_.license_key());
  res.granted = outcome.granted;
  res.serial = outcome.license.serial;
  return res;
}

}  // namespace pisa::rpc

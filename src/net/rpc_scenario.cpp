#include "net/rpc_scenario.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace pisa::rpc {

TcpScenarioDriver::TcpScenarioDriver(RpcServer& server, RpcClient& client,
                                     const core::PisaConfig& /*cfg*/,
                                     const std::vector<watch::PuSite>& /*sites*/,
                                     const radio::PathLossModel& model,
                                     double timeout_ms)
    : ScenarioDriver(server.infrastructure(), client, model, timeout_ms),
      server_(server),
      client_(client) {}

void TcpScenarioDriver::sync() { server_.transport().quiesce(timeout_ms_); }

bool TcpScenarioDriver::pu_send(std::uint32_t pu_id,
                                const watch::PuTuning& tuning, bool use_delta) {
  // Every earlier update has folded (each send waits for its own), so the
  // next bump of the fold counter is this update's arrival.
  const auto folded = [this] {
    return infra_.sdc_running() ? infra_.sdc().updates_folded() : 0;
  };
  const std::uint64_t target = folded() + 1;
  if (!client_.pu_send(pu_id, tuning, use_delta)) return false;
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

}  // namespace pisa::rpc

// TCP driver for the §3.9 scenario engine.
//
// Adapts an RpcServer + RpcClient pair to core::ScenarioDriver, so the same
// seeded tick schedule that drives the simulated-network PisaSystem drives a
// real socket deployment. Determinism note: client→server frames are
// asynchronous — a send returns once the frame is queued, while the
// server's dispatch thread folds it (and runs the §3.8 re-probe round the
// fold enqueues on the same serial lane) at its own pace. To match the
// sim's drained-network semantics, pu_send (a) polls the SDC's fold counter
// until its update arrived, then (b) quiesces the server's dispatch lane so
// the probe round rooted in that fold has finished; every state read and
// crash runs (b) first. With that barrier, decisions and filter state are
// as deterministic here as under the sim's network drain.
#pragma once

#include <cstdint>
#include <vector>

#include "core/scenario_engine.hpp"
#include "net/rpc_server.hpp"
#include "radio/pathloss.hpp"
#include "watch/matrices.hpp"

namespace pisa::rpc {

class TcpScenarioDriver final : public core::ScenarioDriver {
 public:
  /// A ScenarioDriver over `client`, waiting up to `timeout_ms` for each
  /// answer and barrier. `cfg` and `sites` are not read: the deployment's
  /// configuration is the server's, and F models every PU the client holds.
  TcpScenarioDriver(RpcServer& server, RpcClient& client,
                    const core::PisaConfig& cfg,
                    const std::vector<watch::PuSite>& sites,
                    const radio::PathLossModel& model,
                    double timeout_ms = 60'000.0);

  bool pu_send(std::uint32_t pu_id, const watch::PuTuning& tuning,
               bool use_delta) override;

 protected:
  /// Quiesce the server's dispatch lane (bounded by the driver timeout).
  void sync() override;

 private:
  RpcServer& server_;
  RpcClient& client_;
};

}  // namespace pisa::rpc

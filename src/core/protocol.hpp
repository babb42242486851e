// End-to-end PISA deployment over the simulated network.
//
// PisaSystem holds the shared core::Infrastructure (STP, SDC, PIR replicas)
// and a core::ClientSession with one PuClient per registered TV-receiver
// site and any number of SuClients, all on a simulated network, and drives
// the full message flows of Figures 4 and 5: PU tuning updates, and the
// two-phase SU request with the STP key-conversion round. What it adds to
// the session is what only the simulation has: draining the bus, per-link
// byte accounting, virtual-time latency and the reliable layer's give-ups.
// It reuses the exact plaintext matrix builders of the watch layer, so a
// PlainWatch instance fed the same inputs is a bit-exact decision oracle
// for this encrypted pipeline.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bigint/random_source.hpp"
#include "core/client_session.hpp"
#include "core/config.hpp"
#include "core/deployment.hpp"
#include "net/bus.hpp"
#include "net/reliable_channel.hpp"
#include "radio/pathloss.hpp"
#include "watch/plain_watch.hpp"

namespace pisa::core {

class PisaSystem {
 public:
  /// Sets up the Infrastructure (STP generating pk_G, SDC with the public E
  /// matrix) and one PuClient per site, all attached to an internal
  /// simulated network.
  /// `model` and `rng` must outlive the system.
  PisaSystem(const PisaConfig& cfg, const std::vector<watch::PuSite>& sites,
             const radio::PathLossModel& model, bn::RandomSource& rng);

  /// Create an SU client and register its public key with the STP (see
  /// ClientSession::add_su), delivered before this returns.
  SuClient& add_su(std::uint32_t su_id, std::size_t precompute = 0);

  /// Drive one PU event through the network (Figure 4): the full column,
  /// or with `use_delta` the §3.9 footprint diff of `tuning` at the PU's
  /// current block. Returns false when a delta found the footprint already
  /// current (nothing sent).
  bool pu_send(std::uint32_t pu_id, const watch::PuTuning& tuning,
               bool use_delta);
  void pu_update(std::uint32_t pu_id, const watch::PuTuning& tuning) {
    pu_send(pu_id, tuning, false);
  }
  bool pu_delta(std::uint32_t pu_id, const watch::PuTuning& tuning) {
    return pu_send(pu_id, tuning, true);
  }

  /// Vehicular mobility (see ClientSession::pu_move).
  void pu_move(std::uint32_t pu_id, std::uint32_t block) {
    session_.pu_move(pu_id, block);
  }

  /// The SU's decision (on a transport failure, `failure` also names every
  /// hop the reliable layer gave up on), plus what the simulation measures.
  /// Faults never hang or throw here.
  struct RequestOutcome : SuDecision {
    // Communication accounting for this request (Figure 6):
    std::size_t request_bytes = 0;   // SU → SDC
    std::size_t convert_bytes = 0;   // SDC → STP
    std::size_t convert_reply_bytes = 0;  // STP → SDC
    std::size_t response_bytes = 0;  // SDC → SU
    /// Virtual network time from request send to response delivery (the
    /// simulated-link latency + transfer component, excluding compute).
    double latency_us = 0;
  };

  /// Full request round trip (Figure 5). `range` narrows the disclosed
  /// block interval (the §VI-A privacy/time trade-off); nullopt = full
  /// privacy. The SU's precomputed factors, if any, are spent first (see
  /// SuClient).
  RequestOutcome su_request(
      const watch::SuRequest& request,
      std::optional<std::pair<std::uint32_t, std::uint32_t>> range = std::nullopt);

  /// Aggregate accounting for one concurrent burst (su_request_many).
  struct MultiRequestStats {
    double prep_wall_ms = 0;   ///< building + encrypting every request (SU side)
    double serve_wall_ms = 0;  ///< wall clock of the network drain (SDC + STP)
    double makespan_us = 0;    ///< virtual time, burst send → last response
    std::size_t convert_msgs = 0;  ///< SDC→STP conversion messages (round-trips)
    std::size_t request_bytes = 0;        ///< Σ SU → SDC
    std::size_t convert_bytes = 0;        ///< Σ SDC → STP
    std::size_t convert_reply_bytes = 0;  ///< Σ STP → SDC
    std::size_t response_bytes = 0;       ///< Σ SDC → SU
  };

  /// Concurrent burst (DESIGN.md §3.5): prepare every request first, inject
  /// them all at one virtual instant, then drain the network once — so the
  /// SDC sees genuinely overlapping requests and (with convert_batch_max
  /// set) coalesces their conversion rounds. Outcomes are returned in
  /// submission order; per-outcome byte fields stay zero (the per-link
  /// totals land in `stats` instead, since concurrent transfers share the
  /// links). Byte-identical to issuing the same burst without batching: see
  /// the §3.5 determinism argument.
  std::vector<RequestOutcome> su_request_many(
      const std::vector<watch::SuRequest>& requests,
      MultiRequestStats* stats = nullptr);

  /// The F matrix the request encrypts — shared with PlainWatch's pipeline.
  /// It models every receiver where it is now (ClientSession::pu_sites).
  watch::QMatrix build_f(const watch::SuRequest& request) const;

  const PisaConfig& config() const { return infra_.config(); }
  double exclusion_radius() const { return d_c_m_; }

  net::SimulatedNetwork& network() { return net_; }
  /// The reliable transport layer, or nullptr when
  /// cfg.reliability.enabled is false (raw perfect-delivery bus).
  net::ReliableTransport* reliable_transport() { return reliable_.get(); }

  // --- crash/restart chaos harness (DESIGN.md §3.6; see Infrastructure) -----
  void crash_sdc() { infra_.crash_sdc(); }
  SdcServer& restart_sdc() { return infra_.restart_sdc(); }
  bool sdc_running() const { return infra_.sdc_running(); }
  void crash_pir_replica(std::size_t index) { infra_.crash_pir_replica(index); }
  pir::PirServer* pir_replica(std::size_t index) {
    return infra_.pir_replica(index);
  }

  Infrastructure& infrastructure() { return infra_; }
  ClientSession& session() { return session_; }
  const radio::PathLossModel& model() const { return model_; }
  SdcServer& sdc() { return infra_.sdc(); }
  StpServer& stp() { return infra_.stp(); }
  SuClient& su(std::uint32_t su_id) { return session_.su(su_id); }
  PuClient& pu(std::uint32_t pu_id) { return session_.pu(pu_id); }

  /// Shared execution pool (null when cfg.num_threads == 1).
  const std::shared_ptr<exec::ThreadPool>& thread_pool() const {
    return infra_.thread_pool();
  }

  /// Deliver everything in flight, then refill the STP's randomizer
  /// sources — the simulation's stand-in for a deployment's idle time: every
  /// SU's source stays one largest conversion ahead, so the next
  /// conversion hits the cache.
  void drain();

  /// Host wall clock spent in StpServer::refill_randomizers after network
  /// drains, which benches keep off their clocks.
  double refill_wall_ms() const { return refill_wall_ms_; }

 private:
  /// The message-passing layer the entities are attached to: the reliable
  /// transport when cfg.reliability.enabled, the raw bus otherwise.
  net::Transport& transport();

  /// Transport give-ups recorded so far, and the "; gave up on …" diagnosis
  /// of those recorded after mark `since` (empty on the perfect bus).
  std::size_t failure_count() const;
  std::string gave_up_since(std::size_t since) const;

  /// The SDC's license key, or null while it is down.
  const crypto::RsaPublicKey* issuer() {
    return sdc_running() ? &sdc().license_key() : nullptr;
  }

  /// The outcome collector every request path shares: put `decision` into
  /// `out` — a failure with the give-ups recorded since `failures_before`
  /// — and measure latency_us to the answer's arrival. Returns that arrival
  /// time (virtual µs), if the answer completed.
  std::optional<double> collect(std::uint64_t rid, SuDecision decision,
                                double t_send, std::size_t failures_before,
                                RequestOutcome& out);

  /// §3.10 query path: one XOR-share query per replica, reconstructed and
  /// decided locally. Fills the same RequestOutcome su_request does
  /// (license fields stay empty — a PIR grant is a local decision).
  RequestOutcome su_request_pir(std::uint32_t su_id, const watch::QMatrix& f,
                                std::uint32_t lo, std::uint32_t hi);

  /// Refill the STP's randomizer sources after a drain, timed.
  void refill_randomizers();

  const radio::PathLossModel& model_;
  double d_c_m_;

  net::SimulatedNetwork net_;
  std::unique_ptr<net::ReliableTransport> reliable_;
  Infrastructure infra_;
  ClientSession session_;
  /// Virtual time each answer completed, by request id (the inbox hook).
  std::map<std::uint64_t, double> arrival_us_;
  double refill_wall_ms_ = 0;
};

}  // namespace pisa::core

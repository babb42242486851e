// End-to-end PISA deployment over the simulated network.
//
// PisaSystem holds the shared core::Infrastructure (STP, SDC, PIR replicas)
// on a simulated network, one PuClient per registered TV-receiver site and
// any number of SuClients, and drives the full message flows of
// Figures 4 and 5: PU tuning updates, and the two-phase SU request with the
// STP key-conversion round. It reuses the exact plaintext matrix builders
// of the watch layer, so a PlainWatch instance fed the same inputs is a
// bit-exact decision oracle for this encrypted pipeline.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bigint/random_source.hpp"
#include "core/config.hpp"
#include "core/deployment.hpp"
#include "core/pu_client.hpp"
#include "core/su_client.hpp"
#include "net/bus.hpp"
#include "net/reliable_channel.hpp"
#include "pir/pir_client.hpp"
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

  /// Create an SU client, register its public key with STP and SDC, and
  /// optionally precompute `precompute` offline randomizer factors.
  SuClient& add_su(std::uint32_t su_id, std::size_t precompute = 0);

  /// Drive a PU tuning change through the network (Figure 4).
  void pu_update(std::uint32_t pu_id, const watch::PuTuning& tuning);

  /// §3.9 incremental path: diff `tuning` (at the PU's current block)
  /// against its delivered footprint and ship only the changed cells.
  /// Returns false when the footprint is already current (nothing sent).
  bool pu_delta(std::uint32_t pu_id, const watch::PuTuning& tuning);

  /// Vehicular mobility: relocate the PU's receiver. Takes effect on its
  /// next pu_update / pu_delta (the delta path retracts the old block's
  /// cells automatically).
  void pu_move(std::uint32_t pu_id, std::uint32_t block);

  struct RequestOutcome {
    /// kCompleted covers both grant and deny (see `granted`);
    /// kTransportFailed means the request round could not be delivered
    /// within the reliability retry budget — `failure` says which hop gave
    /// up. Only possible outcomes: faults never hang or throw here.
    enum class Status { kCompleted, kTransportFailed };
    Status status = Status::kCompleted;
    bool completed() const { return status == Status::kCompleted; }

    bool granted = false;
    /// §3.8: denied in one round by the SDC's prefilter — no conversion
    /// round, no license. Always false when the decision was a grant, and
    /// always a decision the full pipeline would also have denied.
    bool fast_denied = false;
    LicenseBody license;
    bn::BigUint signature;
    /// Human-readable transport diagnosis when status == kTransportFailed.
    std::string failure;
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
  /// privacy. `mode` selects the preparation strategy (fresh / pooled /
  /// hybrid, see SuClient).
  RequestOutcome su_request(
      const watch::SuRequest& request,
      std::optional<std::pair<std::uint32_t, std::uint32_t>> range = std::nullopt,
      PrepMode mode = PrepMode::kFresh);

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
      PrepMode mode = PrepMode::kFresh, MultiRequestStats* stats = nullptr);

  /// The F matrix the request encrypts — shared with PlainWatch's pipeline.
  /// It models every receiver where its PuClient is now, so a pu_move
  /// relocates the receiver's protection along with its W column.
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
  SdcServer& sdc() { return infra_.sdc(); }
  StpServer& stp() { return infra_.stp(); }
  SuClient& su(std::uint32_t su_id);
  PuClient& pu(std::uint32_t pu_id);

  /// Shared execution pool (null when cfg.num_threads == 1).
  const std::shared_ptr<exec::ThreadPool>& thread_pool() const {
    return infra_.thread_pool();
  }

  /// Host wall clock spent in StpServer::refill_randomizers after network
  /// drains — the simulation's stand-in for a deployment's idle time, which
  /// benches keep off their clocks.
  double refill_wall_ms() const { return refill_wall_ms_; }

 private:
  static std::string su_name(std::uint32_t id) { return "su_" + std::to_string(id); }

  /// The message-passing layer the entities are attached to: the reliable
  /// transport when cfg.reliability.enabled, the raw bus otherwise.
  net::Transport& transport();

  /// Transport give-ups recorded so far, and the "; gave up on …" diagnosis
  /// of those recorded after mark `since` (empty on the perfect bus).
  std::size_t failure_count() const;
  std::string gave_up_since(std::size_t since) const;

  /// The outcome collector both request paths share: fill `out`'s decision
  /// for `rid` from the inbox — or a typed kTransportFailed when no answer
  /// arrived — and measure latency_us to the answer's arrival. Returns that
  /// arrival time (virtual µs), if one was recorded.
  std::optional<double> collect(std::uint64_t rid, std::uint32_t su_id,
                                double t_send, std::size_t failures_before,
                                RequestOutcome& out);

  /// §3.10 query path: split the fetch of [lo, hi) into XOR shares, one
  /// query per replica, reconstruct and decide locally. Fills the same
  /// RequestOutcome su_request does (license fields stay empty — a PIR
  /// grant is a local decision, not a signed license).
  RequestOutcome su_request_pir(std::uint32_t su_id, const watch::QMatrix& f,
                                std::uint64_t rid, std::uint32_t lo,
                                std::uint32_t hi);

  /// Refill the STP's randomizer sources after a drain, timed.
  void refill_randomizers();

  const radio::PathLossModel& model_;
  bn::RandomSource& rng_;
  double d_c_m_;

  net::SimulatedNetwork net_;
  std::unique_ptr<net::ReliableTransport> reliable_;
  Infrastructure infra_;
  SuInbox inbox_;
  std::map<std::uint32_t, std::unique_ptr<PuClient>> pus_;
  std::map<std::uint32_t, std::unique_ptr<SuClient>> sus_;
  std::map<std::uint32_t, std::unique_ptr<pir::PirClient>> pir_clients_;
  std::map<std::uint64_t, double> arrival_us_;  // last SU-bound frame, by rid
  std::uint64_t next_request_id_ = 1;
  double refill_wall_ms_ = 0;
};

}  // namespace pisa::core

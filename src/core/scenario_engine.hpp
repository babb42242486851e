// Time-stepped dynamic-spectrum scenario engine (§3.9).
//
// Drives a real PISA deployment — the simulated-network PisaSystem or the
// TCP RpcServer/RpcClient pair, behind one ScenarioDriver interface — tick
// by tick through the dynamics the paper's static experiments leave out:
//   * vehicular SU mobility (radio::Vehicle, specular bounce at the area
//     edge; an SU requests from whatever block it is driving through),
//   * TV-channel churn (PUs retune between channels at Zipf-ish whim),
//   * PU appearance/disappearance (receivers powering on and off),
//   * PU relocation (portable receivers re-registering at a new block),
//   * license expiry and revocation (both force the SU back through the
//     full request pipeline).
// Every stochastic choice is drawn from one seeded ChaCha stream in a fixed
// order, so a run is a pure function of (config, scenario, seed) — and two
// runs that differ only in `use_delta` (full-column updates vs §3.9
// incremental deltas) must produce byte-identical TickOutcomes. That
// equivalence, across pack_slots, transports and a mid-schedule SDC
// kill/restart, is the §3.9 acceptance oracle. Alongside it, a plaintext
// WATCH (watch::PlainWatch) replays every PU tuning and move in lock-step,
// and every completed request's grant/deny is checked against it: a run
// reports how many decisions the encrypted deployment got wrong.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/deployment.hpp"
#include "core/protocol.hpp"
#include "crypto/chacha_rng.hpp"
#include "radio/mobility.hpp"
#include "radio/pathloss.hpp"
#include "watch/config.hpp"
#include "watch/plain_watch.hpp"

namespace pisa::core {

/// Knobs for one scenario run. Probabilities are per tick; each fires at
/// most one event of its kind (the draw order is fixed: churn, move,
/// toggle, revoke, then mobility, then requests).
struct ScenarioConfig {
  std::uint32_t ticks = 200;
  std::uint32_t num_sus = 2;
  std::uint64_t seed = 1;

  double tick_seconds = 1.0;
  double su_speed_mps = 15.0;  ///< vehicular (~54 km/h)

  double p_churn = 0.45;   ///< one PU retunes to a different channel
  double p_pu_move = 0.2;  ///< one PU re-registers at a random block
  double p_toggle = 0.15;  ///< one PU powers on/off
  double p_revoke = 0.05;  ///< one live license is revoked

  std::uint32_t license_ttl_ticks = 12;  ///< grants expire after this many ticks
  std::uint32_t request_range_blocks = 1;  ///< disclosed-range privacy pad
  double su_eirp_mw = 250.0;  ///< requested EIRP, every channel

  /// PU tuning signal strengths are drawn uniformly from this interval.
  double signal_mw_lo = 1e-6;
  double signal_mw_hi = 1e-5;

  bool use_delta = false;  ///< §3.9 incremental updates instead of columns

  /// Chaos: kill the SDC at the start of `crash_at_tick`, boot a fresh one
  /// at the start of `restart_at_tick` (recovering from the WAL; the run
  /// then re-sends every PU's current tuning). While the SDC is down the
  /// world keeps moving but nothing is sent.
  std::optional<std::uint32_t> crash_at_tick;
  std::optional<std::uint32_t> restart_at_tick;
};

/// What one tick decided — the cross-path equivalence record. Everything an
/// SU or auditor can observe: who got licensed (and the serial, which pins
/// down the exact serial-consumption order inside the SDC), who was denied
/// (and which denials took the §3.8 one-round fast path), and the exact
/// exhausted-cell state the prefilter holds afterwards.
struct TickOutcome {
  std::uint32_t tick = 0;
  bool sdc_up = true;
  std::vector<std::array<std::uint64_t, 2>> grants;  ///< {su_id, serial}
  std::vector<std::uint32_t> denials;                ///< denied su_ids
  std::vector<std::uint32_t> fast_denials;           ///< subset: one-round
  std::vector<std::uint8_t> exhausted_state;  ///< engine exact sets (§3.9)

  bool operator==(const TickOutcome&) const = default;
};

struct ScenarioResult {
  std::vector<TickOutcome> ticks;

  std::uint64_t pu_events = 0;     ///< churn + move + toggle events fired
  std::uint64_t updates_sent = 0;  ///< update-path messages actually sent
  std::uint64_t requests = 0;
  std::uint64_t grants = 0;
  std::uint64_t denials = 0;
  std::uint64_t fast_denials = 0;
  std::uint64_t transport_failures = 0;
  /// Completed requests whose grant/deny differs from the plaintext WATCH
  /// oracle. Must stay 0; anything else is a correctness bug.
  std::uint64_t oracle_mismatches = 0;
  std::uint64_t delta_cells = 0;  ///< engine cells folded via the delta path
  std::uint64_t wal_bytes = 0;    ///< WAL growth accumulated over the run

  double update_wall_ms = 0;  ///< client build + SDC fold + re-probe time
  double total_wall_ms = 0;

  double ticks_per_sec() const {
    return total_wall_ms > 0 ? 1e3 * static_cast<double>(ticks.size()) / total_wall_ms
                             : 0.0;
  }
};

/// Transport-agnostic face of a deployment: the engine scripts *what*
/// happens, a driver says *how* it reaches the entities. SDC lifecycle and
/// state reads go straight to the shared Infrastructure, and PU moves and
/// SU requests to the deployment's ClientSession; a driver supplies only
/// what differs by transport — delivering PU frames, delivering what the
/// session sent, and a barrier. Implementations: SimScenarioDriver (below,
/// over PisaSystem) and rpc::TcpScenarioDriver (net/rpc_scenario.hpp, over
/// a real socket pair).
class ScenarioDriver {
 public:
  /// Every SU/PU the engine touches must already be added to `session`.
  /// An SU's F models every receiver the session holds, where it is now,
  /// under the path loss `model` (must outlive the driver). `timeout_ms`
  /// bounds the wait for each answer.
  ScenarioDriver(Infrastructure& infra, ClientSession& session,
                 const radio::PathLossModel& model, double timeout_ms = 0);
  virtual ~ScenarioDriver() = default;

  /// Relocate a PU (mobility). Takes effect on its next send.
  void pu_move(std::uint32_t pu_id, std::uint32_t block) {
    session_.pu_move(pu_id, block);
  }
  /// Deliver a PU's tuning: full column, or (use_delta) the footprint diff,
  /// and return once the SDC has folded it. Returns false when nothing
  /// needed to be sent.
  virtual bool pu_send(std::uint32_t pu_id, const watch::PuTuning& tuning,
                       bool use_delta) = 0;
  /// One full SU request round. The driver discloses the tightest block
  /// range covering the request's non-zero F entries (see disclosed_range),
  /// widened by `range_pad` blocks of privacy slack on each side.
  SuDecision su_request(const watch::SuRequest& request,
                        std::uint32_t range_pad);

  /// The SDC dies on a settled deployment, as on the sim's drained network.
  void crash_sdc() {
    sync();
    infra_.crash_sdc();
  }
  void restart_sdc() { infra_.restart_sdc(); }
  bool sdc_running() const { return infra_.sdc_running(); }

  /// The SDC's state once the deployment has settled (post-grant budget
  /// folds re-probe after the response). Callable only while sdc_running().
  const SdcStateEngine& settled_state() {
    sync();
    return infra_.sdc().state();
  }

 protected:
  /// Deliver the request the session just sent, where delivery needs a
  /// push (the sim drains its network); a socket needs none.
  virtual void deliver() {}
  /// Barrier: return once every causal chain rooted in a frame already
  /// delivered to the infrastructure has run. The sim's network is drained
  /// by every call, so its barrier is empty.
  virtual void sync() {}

  Infrastructure& infra_;
  ClientSession& session_;
  const radio::PathLossModel& model_;
  double d_c_m_;
  double timeout_ms_;
};

/// The tightest disclosed block range [lo, hi) covering every non-zero
/// entry of `f` (anything outside would evade the SDC's interference check,
/// and SuClient refuses to encrypt it), always including the SU's own
/// block, widened by `pad` blocks on each side (clamped to the grid). An
/// all-zero F discloses just the padded neighbourhood of `su_block`.
std::pair<std::uint32_t, std::uint32_t> disclosed_range(
    const watch::QMatrix& f, std::uint32_t su_block, std::uint32_t pad);

/// Driver over the in-process simulated-network deployment.
class SimScenarioDriver final : public ScenarioDriver {
 public:
  explicit SimScenarioDriver(PisaSystem& sys)
      : ScenarioDriver(sys.infrastructure(), sys.session(), sys.model()),
        sys_(sys) {}

  bool pu_send(std::uint32_t pu_id, const watch::PuTuning& tuning,
               bool use_delta) override {
    return sys_.pu_send(pu_id, tuning, use_delta);
  }

 protected:
  void deliver() override { sys_.drain(); }

 private:
  PisaSystem& sys_;
};

class ScenarioEngine {
 public:
  /// `sites` are the registered PU receivers the deployment was built with
  /// and `model` its secondary-signal path loss h(·) (must outlive the
  /// engine); together they build the plaintext oracle. The engine owns all
  /// world state (tunings, vehicles, licenses) and pushes it through
  /// `driver`.
  ScenarioEngine(const PisaConfig& cfg, std::vector<watch::PuSite> sites,
                 const radio::PathLossModel& model,
                 const ScenarioConfig& scenario, ScenarioDriver& driver);

  /// Execute the schedule: tick 0 initializes every PU (deterministic
  /// channel + signal draws) and each later tick runs the event draws,
  /// mobility, and the request round. Returns the per-tick outcome trace
  /// plus aggregate metrics.
  ScenarioResult run();

 private:
  struct PuState {
    std::optional<std::uint32_t> channel;  // nullopt = receiver off
    double signal_mw = 0;
  };
  struct SuState {
    radio::Vehicle vehicle;
    std::optional<std::uint32_t> license_expires;  // tick bound, exclusive
  };

  double frac();                      // uniform [0, 1)
  std::uint32_t pick(std::uint32_t n);  // uniform {0, …, n−1}
  watch::PuTuning tuning_of(const PuState& pu) const;
  void send_pu(std::size_t i, ScenarioResult& result);
  void resync_all_pus(ScenarioResult& result);
  void run_requests(std::uint32_t tick, ScenarioResult& result,
                    TickOutcome& outcome);

  PisaConfig cfg_;
  /// Lock-step ground truth, and the registry of PU sites: its sites() are
  /// the receivers' current blocks (pu_move keeps them current).
  watch::PlainWatch oracle_;
  ScenarioConfig sc_;
  ScenarioDriver& driver_;
  radio::ServiceArea area_;
  std::vector<PuState> pus_;
  std::vector<SuState> sus_;
  std::uint64_t last_wal_bytes_ = 0;
  crypto::ChaChaRng stream_;
};

}  // namespace pisa::core

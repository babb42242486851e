// Async RPC serving front-end over the TCP transport (DESIGN.md §3.7).
//
// RpcServer hosts the shared core::Infrastructure — StpServer, SdcServer
// and any PIR replicas — behind one TcpTransport listener. Frames arriving
// from any connection are dispatched serially into the entities' existing
// attach() handlers (the same ones the simulated network drives), so the
// whole Figure 4/5 protocol logic is reused verbatim; the entities fan work
// out on the shared exec::ThreadPool internally, which is what makes the
// front-end async: the I/O thread keeps accepting and reading while a
// request is deep in a Paillier pipeline. SDC↔STP conversion traffic stays
// in-process (both endpoints are local to the transport, so it rides the
// dispatch lane without touching a socket), exactly like the co-located
// deployment the paper's Figure 6 accounting assumes. Because PisaSystem
// builds the same Infrastructure, one built from an identically-seeded rng
// is a bit-exact oracle for this server.
//
// RpcClient is the matching client: a core::ClientSession (the SU/PU/PIR
// clients, their frames and decisions, exactly as under PisaSystem) over
// one client TcpTransport multiplexing every logical session on a single
// connection. What it adds is what only a socket needs: the routes, the
// re-send bookkeeping (pinned net_seq, PR 2 discipline) that turns TCP's
// at-most-once-across-resets into application-level exactly-once,
// reconnects, and waiting with a timeout.
//
// Idle-time refill (DESIGN.md §3.5): the first conversion starts one
// background thread at SCHED_IDLE (nice 19 where that policy is refused)
// that keeps every SU's STP randomizer source one largest conversion ahead,
// a factor at a time, so the r^n modexp leaves the decision path whenever
// the server has a spare moment. Every conversion wakes it. A PIR-only
// deployment never converts and never starts it.
//
// Both stop their transport first on destruction: its threads call into
// the entities / the inbox, so those must outlive every handler. RpcServer
// then stops the refill thread, which checks its stop flag between factors.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bigint/random_source.hpp"
#include "core/client_session.hpp"
#include "core/config.hpp"
#include "core/deployment.hpp"
#include "net/tcp_transport.hpp"
#include "pir/pir_replica.hpp"
#include "watch/matrices.hpp"

namespace pisa::rpc {

class RpcServer {
 public:
  /// Build the Infrastructure from `rng` on a fresh TcpTransport and start
  /// listening on 127.0.0.1:`port` (0 = ephemeral; read the bound port back
  /// with port()).
  explicit RpcServer(const core::PisaConfig& cfg, bn::RandomSource& rng,
                     net::TcpOptions opts = {}, std::uint16_t port = 0);
  ~RpcServer();

  std::uint16_t port() const { return tcp_.port(); }

  const crypto::PaillierPublicKey& group_key() const {
    return infra_.stp().group_key();
  }
  const crypto::RsaPublicKey& license_key() const {
    return infra_.sdc().license_key();
  }

  core::Infrastructure& infrastructure() { return infra_; }
  core::SdcServer& sdc() { return infra_.sdc(); }
  core::StpServer& stp() { return infra_.stp(); }
  pir::PirServer* pir_replica(std::size_t index) {
    return infra_.pir_replica(index);
  }
  void crash_pir_replica(std::size_t index) { infra_.crash_pir_replica(index); }

  net::TcpTransport& transport() { return tcp_; }

 private:
  /// StpServer's conversion hook, on the dispatch thread: start the refill
  /// thread on first use, then wake it.
  void wake_refill();
  void refill_loop();

  net::TcpTransport tcp_;
  core::Infrastructure infra_;
  std::mutex refill_mu_;
  std::condition_variable refill_cv_;
  bool refill_wake_ = false;
  std::atomic<bool> refill_stop_{false};
  std::thread refill_;
};

namespace detail {
/// RpcClient's socket transport, held in a base constructed before the
/// ClientSession base that sends through it.
struct ClientTransport {
  explicit ClientTransport(net::TcpOptions opts) : tcp_(opts) {}
  net::TcpTransport tcp_;
};
}  // namespace detail

class RpcClient : private detail::ClientTransport, public core::ClientSession {
 public:
  /// Connect to an RpcServer and route "sdc"/"stp" (and in PIR mode every
  /// replica) over one multiplexed connection. `group_pk` is pk_G
  /// (retrieved from the STP out of band in the paper; handed over directly
  /// here). `rng` feeds SU/PU keygen and request randomness — seed it like
  /// the oracle world's master rng and make the same call sequence to get
  /// byte-identical traffic.
  RpcClient(const core::PisaConfig& cfg, crypto::PaillierPublicKey group_pk,
            std::string host, std::uint16_t port, bn::RandomSource& rng,
            net::TcpOptions opts = {});
  ~RpcClient() { tcp_.stop(); }

  using PreparedRequest = core::PreparedRequest;

  /// A PU event's SDC frame — a full column or a §3.9 delta — sent with a
  /// pinned net_seq, so the exact frame can be re-sent after a connection
  /// reset: the SDC's (sender, seq) DedupWindow folds it into Ñ exactly
  /// once no matter how many copies arrive, and the engine's per-PU
  /// delta_seq folds a delta once even across a crash that tore its
  /// application (PR 2 discipline; the chaos suite pins this). PIR-mode
  /// replica frames are pinned the same way, so replica versions stay in
  /// lockstep under re-sends.
  using PuUpdateHandle = net::Message;
  /// Nothing is sent (nullopt) when a delta finds the PU's footprint
  /// already current.
  std::optional<PuUpdateHandle> pu_send(std::uint32_t pu_id,
                                        const watch::PuTuning& tuning,
                                        bool use_delta);
  PuUpdateHandle pu_update(std::uint32_t pu_id, const watch::PuTuning& tuning) {
    return *pu_send(pu_id, tuning, false);
  }
  std::optional<PuUpdateHandle> pu_delta(std::uint32_t pu_id,
                                         const watch::PuTuning& tuning) {
    return pu_send(pu_id, tuning, true);
  }
  void resend_pu_update(const PuUpdateHandle& handle) { tcp_.send(handle); }

  /// The raw answer to a submitted request, for callers that time the
  /// client-side decision themselves: block until it arrives or
  /// `timeout_ms` passes (false). A §3.8 prefilter denial also completes
  /// the wait: `*fast_denied` is set true (when the pointer is given) and
  /// `*out` is left untouched — there is no SuResponseMsg for it.
  bool wait_response(std::uint64_t request_id, core::SuResponseMsg* out,
                     double timeout_ms, bool* fast_denied = nullptr);

  /// §3.10 PIR round trip over the socket: submit_pir + decide_pir with
  /// `timeout_ms` for all ℓ replies.
  struct PirOutcome {
    /// False when a reply set never completed (replica crashed / timeout)
    /// or the replicas' versions diverged — `failure` says which. The
    /// decision fields are only meaningful when true.
    bool completed = false;
    bool granted = false;
    std::string failure;
    std::size_t query_bytes = 0;  ///< Σ encoded queries (SU → replicas)
    std::size_t reply_bytes = 0;  ///< Σ reply payloads (replicas → SU)
  };
  PirOutcome pir_request(std::uint32_t su_id, const watch::QMatrix& f,
                         std::uint32_t block_lo, std::uint32_t block_hi,
                         double timeout_ms);

  /// Tear the connection down mid-session and dial again (reset
  /// simulation). Unflushed frames on the old connection are dropped —
  /// at-most-once — and the re-send helpers above restore exactly-once.
  void reconnect();

  net::TcpTransport& transport() { return tcp_; }

 private:
  /// Logical peers multiplexed over the one connection: sdc + stp, plus
  /// every PIR replica in PIR mode.
  std::vector<std::string> route_names() const;

  std::string host_;
  std::uint16_t port_;
  std::uint64_t conn_id_ = 0;
  std::uint64_t next_pin_seq_ = 1;  // pinned seqs for re-sendable frames
};

}  // namespace pisa::rpc

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
// RpcClient is the matching client bundle: it owns the SU/PU client
// objects, one client TcpTransport multiplexing every logical session over
// a single connection, the core::SuInbox every SU endpoint feeds, and the
// re-send bookkeeping (pinned net_seq, PR 2 discipline) that turns TCP's
// at-most-once-across-resets into application-level exactly-once.
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
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bigint/random_source.hpp"
#include "core/config.hpp"
#include "core/deployment.hpp"
#include "core/pu_client.hpp"
#include "core/su_client.hpp"
#include "net/tcp_transport.hpp"
#include "pir/pir_client.hpp"
#include "pir/pir_replica.hpp"
#include "watch/matrices.hpp"
#include "watch/plain_sdc.hpp"

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

class RpcClient {
 public:
  /// Connect to an RpcServer and route "sdc"/"stp" over one multiplexed
  /// connection. `group_pk` is pk_G (retrieved from the STP out of band in
  /// the paper; handed over directly here). `rng` feeds SU/PU keygen and
  /// request randomness — seed it like the oracle world's master rng and
  /// make the same call sequence to get byte-identical traffic.
  RpcClient(const core::PisaConfig& cfg, crypto::PaillierPublicKey group_pk,
            std::string host, std::uint16_t port, bn::RandomSource& rng,
            net::TcpOptions opts = {});
  ~RpcClient() { tcp_.stop(); }

  /// Create an SU client, register "su_<id>" as a local endpoint feeding
  /// the inbox, and upload pk_j to the STP (paper §III-C). The
  /// registration frame precedes any request on the same connection, so
  /// FIFO ordering makes the directory entry visible before first use.
  core::SuClient& add_su(std::uint32_t su_id, std::size_t precompute = 0);

  /// Create a PU client for `site` with the shared public E matrix, exactly
  /// like PisaSystem (a mobile PU needs the full matrix).
  core::PuClient& add_pu(const watch::PuSite& site);

  core::SuClient& su(std::uint32_t su_id);
  core::PuClient& pu(std::uint32_t pu_id);

  /// One PU tuning update, sent with a pinned net_seq so the exact frame
  /// can be re-sent after a connection reset: the SDC's (sender, seq)
  /// DedupWindow folds it into Ñ exactly once no matter how many copies
  /// arrive (PR 2 discipline; the chaos suite pins this).
  struct PuUpdateHandle {
    std::uint32_t pu_id = 0;
    std::uint64_t net_seq = 0;
    std::vector<std::uint8_t> bytes;
  };
  PuUpdateHandle pu_update(std::uint32_t pu_id, const watch::PuTuning& tuning);
  void resend_pu_update(const PuUpdateHandle& handle);

  /// §3.9 incremental update over the socket, with the same pinned-seq
  /// re-send discipline as pu_update. Returns nullopt (nothing sent) when
  /// the PU's delivered footprint already matches `tuning`.
  std::optional<PuUpdateHandle> pu_delta(std::uint32_t pu_id,
                                         const watch::PuTuning& tuning);
  void resend_pu_delta(const PuUpdateHandle& handle);

  /// An encrypted request, built off the clock: benches prepare every
  /// session's request first, then pour the whole burst down the pipe.
  struct PreparedRequest {
    std::uint64_t request_id = 0;
    std::uint32_t su_id = 0;
    std::vector<std::uint8_t> bytes;
  };
  PreparedRequest prepare_request(
      std::uint32_t su_id, const watch::QMatrix& f,
      std::optional<std::pair<std::uint32_t, std::uint32_t>> range =
          std::nullopt,
      core::PrepMode mode = core::PrepMode::kFresh);

  /// Fire one prepared request at the SDC (does not consume the handle —
  /// re-submitting the same bytes after a reset is the retry path; the SDC
  /// drops duplicate request ids while the original is still pending and
  /// re-serves completed ones with a fresh serial).
  void submit(const PreparedRequest& req);

  /// Block until the response for `request_id` arrives (dispatch thread
  /// fills the inbox) or `timeout_ms` passes. Returns false on timeout.
  /// A §3.8 prefilter denial also completes the wait: `*fast_denied` is set
  /// true (when the pointer is given) and `*out` is left untouched — there
  /// is no SuResponseMsg for a fast-denied request, just the 32-byte
  /// FastDenyMsg the dispatch thread already validated.
  bool wait_response(std::uint64_t request_id, core::SuResponseMsg* out,
                     double timeout_ms, bool* fast_denied = nullptr);

  /// Per-response completion probe for load generators: called on the
  /// dispatch thread the moment each SU answer completes in the inbox —
  /// before any wait_response waiter wakes — so per-request completion
  /// timestamps are exact even when the bench drains waiters lazily. Set
  /// it before traffic starts; installation is not synchronized against
  /// in-flight deliveries.
  void set_response_hook(std::function<void(std::uint64_t)> hook) {
    inbox_.set_hook(std::move(hook));
  }

  /// §3.10 PIR round trip over the socket: split [block_lo, block_hi) into
  /// XOR shares, fire one query per replica, wait for all ℓ replies (or
  /// `timeout_ms`), reconstruct and decide locally against `f`.
  struct PirOutcome {
    /// False when a reply set never completed (replica crashed / timeout)
    /// or the replicas' versions diverged — `failure` says which. The
    /// decision fields are only meaningful when true.
    bool completed = false;
    bool granted = false;
    std::string failure;
    std::size_t query_bytes = 0;  ///< Σ encoded queries (SU → replicas)
    std::size_t reply_bytes = 0;  ///< Σ encoded replies (replicas → SU)
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
  static std::string su_name(std::uint32_t id) {
    return "su_" + std::to_string(id);
  }

  /// Logical peers multiplexed over the one connection: sdc + stp, plus
  /// every PIR replica in PIR mode.
  std::vector<std::string> route_names() const;

  /// PIR mode: ship the PU's current plaintext column to every replica
  /// (pinned seqs — replica-side dedup keeps versions in lockstep under
  /// resends). No-op in Paillier mode.
  void send_pir_updates(std::uint32_t pu_id, const watch::PuTuning& tuning);

  core::PisaConfig cfg_;
  crypto::PaillierPublicKey group_pk_;
  std::string host_;
  std::uint16_t port_;
  bn::RandomSource& rng_;
  net::TcpTransport tcp_;
  std::uint64_t conn_id_ = 0;
  watch::QMatrix e_matrix_;

  std::map<std::uint32_t, std::unique_ptr<core::SuClient>> sus_;
  std::map<std::uint32_t, std::unique_ptr<core::PuClient>> pus_;
  std::map<std::uint32_t, std::unique_ptr<pir::PirClient>> pir_clients_;

  std::uint64_t next_request_id_ = 1;
  std::uint64_t next_pin_seq_ = 1;  // pinned seqs for re-sendable frames
  core::SuInbox inbox_;
};

}  // namespace pisa::rpc

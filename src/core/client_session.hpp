// The client side every transport shares (DESIGN.md §3.7).
//
// ClientSession is the one owner of the paper's client parties (Figures
// 4–5) on any net::Transport: the SU clients with their §3.10 PIR clients,
// the PU clients and where their receivers are now, the SU endpoints and
// the SuInbox they feed, every frame a client puts on the wire, and every
// decision an SU draws from an answer. PisaSystem (simulated network) holds
// one and rpc::RpcClient (TCP) is one, so an identically-seeded rng makes
// the same draws on both by construction. What stays with them is what
// differs by transport: draining the bus, counting its links and stamping
// virtual time, or the connection, pinned re-send seqs and wall-clock
// timeouts.
//
// SuInbox is the single handler behind every SU endpoint. It decodes the
// three frames an SU can receive — SuResponseMsg, the §3.8 FastDenyMsg and
// the §3.10 PirReplyMsg — into one registry keyed by request id, and hands
// each request's answer to whoever waits for it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bigint/random_source.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/pu_client.hpp"
#include "core/su_client.hpp"
#include "net/bus.hpp"
#include "pir/pir_client.hpp"
#include "pir/pir_messages.hpp"
#include "watch/matrices.hpp"

namespace pisa::core {

class SuInbox {
 public:
  /// Everything that arrived for one request id.
  struct Answer {
    std::optional<SuResponseMsg> response;
    bool fast_denied = false;  ///< §3.8 one-round denial (no SuResponseMsg)
    std::vector<pir::PirReplyMsg> pir_replies;
    std::size_t bytes = 0;  ///< Σ payload bytes of the frames received
  };

  /// A PIR answer is complete at `pir_replicas` replies.
  explicit SuInbox(std::size_t pir_replicas) : pir_replicas_(pir_replicas) {}

  /// Completion hook: called inside deliver() whenever a frame leaves its
  /// request's answer complete, before any take() waiter wakes, so a load
  /// generator's completion timestamp is recorded by the time the waiter
  /// sees the answer. Set it before traffic starts.
  void set_hook(std::function<void(std::uint64_t)> hook) {
    hook_ = std::move(hook);
  }

  /// The SU endpoint handler: decode `msg` into the registry and return its
  /// request id. Throws std::runtime_error on any other message type.
  /// Thread-safe against take().
  std::uint64_t deliver(const net::Message& msg);

  /// Wait up to `timeout_ms` for `request_id`'s answer to complete, then
  /// remove and return whatever arrived for it — complete or not.
  Answer take(std::uint64_t request_id, double timeout_ms = 0);

 private:
  bool complete(const Answer& a) const {
    return a.response || a.fast_denied || a.pir_replies.size() >= pir_replicas_;
  }

  std::size_t pir_replicas_;
  std::function<void(std::uint64_t)> hook_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Answer> answers_;
};

/// An encrypted request, built off the clock. Submitting the same bytes
/// again after a reset is the retry path: the SDC drops duplicate request
/// ids while the original is pending and re-serves completed ones.
struct PreparedRequest {
  std::uint64_t request_id = 0;
  std::uint32_t su_id = 0;
  std::vector<std::uint8_t> bytes;
};

/// One §3.10 query fan-out in flight: what decide_pir needs to finish it.
struct PirQuery {
  std::uint64_t request_id = 0;
  std::uint32_t su_id = 0;
  std::uint32_t block_lo = 0;
  std::uint32_t block_hi = 0;  ///< one past the last fetched block
  std::size_t bytes = 0;  ///< Σ encoded queries (SU → replicas)
};

/// What an SU learns from one request round, on any transport.
struct SuDecision {
  /// kCompleted covers both grant and deny (see `granted`);
  /// kTransportFailed means no usable answer arrived — `failure` says why.
  enum class Status { kCompleted, kTransportFailed };
  Status status = Status::kCompleted;
  bool completed() const { return status == Status::kCompleted; }

  bool granted = false;
  /// §3.8: denied in one round by the SDC's prefilter — no conversion
  /// round, no license. Always false when the decision was a grant, and
  /// always a decision the full pipeline would also have denied.
  bool fast_denied = false;
  /// The signed license of a Paillier grant (a PIR grant is a local
  /// decision: these stay empty).
  LicenseBody license;
  bn::BigUint signature;
  std::string failure;
  std::size_t answer_bytes = 0;  ///< Σ payload bytes of the answer frames
};

class ClientSession {
 public:
  /// `transport` and `rng` must outlive the session; `rng` feeds SU/PU
  /// keygen and request randomness. `pool` (may be null) runs every
  /// client's encryption.
  ClientSession(const PisaConfig& cfg, crypto::PaillierPublicKey group_pk,
                net::Transport& transport, bn::RandomSource& rng,
                std::shared_ptr<exec::ThreadPool> pool = nullptr);
  // The SU endpoints' handlers hold `this`.
  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  static std::string su_name(std::uint32_t id) {
    return "su_" + std::to_string(id);
  }

  const PisaConfig& config() const { return cfg_; }

  /// Create an SU client, register "su_<id>" as an endpoint feeding the
  /// inbox, upload pk_j to the STP (paper §III-C; the SDC fetches it from
  /// the STP's directory on first use), precompute `precompute` offline
  /// randomizer factors and, in PIR mode, create its PirClient. The
  /// endpoint exists before the upload, so a reliable transport's ACK for
  /// it comes home; on one connection the upload precedes any request.
  SuClient& add_su(std::uint32_t su_id, std::size_t precompute = 0);

  /// Create a PU client for `site` with the full public E matrix (a mobile
  /// PU must compute w = T − E at whatever block it drives into). Its
  /// endpoint receives nothing at the application layer, but a reliable
  /// transport needs it so ACKs for its updates come home.
  PuClient& add_pu(const watch::PuSite& site);

  SuClient& su(std::uint32_t su_id);
  PuClient& pu(std::uint32_t pu_id);

  /// Vehicular mobility: relocate the PU's receiver. Takes effect on its
  /// next PU frames (a delta retracts the old block's cells).
  void pu_move(std::uint32_t pu_id, std::uint32_t block) {
    pu(pu_id).move_to(block);
  }

  /// Every receiver where it is now, in id order: the sites an SU's F
  /// models, so a pu_move relocates the receiver's protection along with
  /// its W column.
  std::vector<watch::PuSite> pu_sites() const;

  /// One PU event's frames, SDC frame first: the full column (Figure 4),
  /// or with `use_delta` the §3.9 footprint diff; then in PIR mode the
  /// plaintext column for every replica. Commits the PU's footprint, so the
  /// caller must deliver them. Empty when a delta has nothing to send.
  std::vector<net::Message> pu_frames(std::uint32_t pu_id,
                                      const watch::PuTuning& tuning,
                                      bool use_delta);

  /// The block interval a request discloses: `range`, or all of `f`'s
  /// blocks (full location privacy) when unset.
  static std::pair<std::uint32_t, std::uint32_t> disclosed(
      const watch::QMatrix& f,
      std::optional<std::pair<std::uint32_t, std::uint32_t>> range);

  /// Encrypt F over the disclosed range (§VI-A: a narrower range trades
  /// privacy for time) under a fresh request id.
  PreparedRequest prepare_request(
      std::uint32_t su_id, const watch::QMatrix& f,
      std::optional<std::pair<std::uint32_t, std::uint32_t>> range =
          std::nullopt);

  /// Send a prepared request to the SDC (does not consume it).
  void submit(const PreparedRequest& req);

  /// Wait up to `timeout_ms` for `req`'s answer and decide: a fast denial,
  /// or G̃ decrypted and its license verified against `issuer`, the SDC's
  /// license key (null when no SDC is up to have answered). No answer is a
  /// typed kTransportFailed.
  SuDecision decide(const PreparedRequest& req,
                    const crypto::RsaPublicKey* issuer, double timeout_ms = 0);

  /// §3.10: split the fetch of [block_lo, block_hi) into XOR shares and
  /// send one query per replica.
  PirQuery submit_pir(std::uint32_t su_id, std::uint32_t block_lo,
                      std::uint32_t block_hi);

  /// Wait up to `timeout_ms` for all ℓ replies, reconstruct and evaluate
  /// `f` locally. Fewer replies (a replica crashed, gave up or timed out),
  /// replicas whose versions diverged, or replies whose row count or row
  /// width does not match the request are a typed kTransportFailed — never
  /// a reconstruction from a partial, mixed or mis-shaped reply set. F·X
  /// beyond int64 throws std::overflow_error, exactly like the plaintext
  /// oracle.
  SuDecision decide_pir(const PirQuery& query, const watch::QMatrix& f,
                        double timeout_ms = 0);

  /// Per-answer completion probe (see SuInbox::set_hook).
  void set_response_hook(std::function<void(std::uint64_t)> hook) {
    inbox_.set_hook(std::move(hook));
  }

 protected:
  /// Raw answers, for a transport that hands them out undecided.
  SuInbox& inbox() { return inbox_; }

 private:
  static std::string pu_name(std::uint32_t id) {
    return "pu_" + std::to_string(id);
  }

  PisaConfig cfg_;
  crypto::PaillierPublicKey group_pk_;
  net::Transport& transport_;
  bn::RandomSource& rng_;
  std::shared_ptr<exec::ThreadPool> pool_;
  watch::QMatrix e_matrix_;
  SuInbox inbox_;
  std::map<std::uint32_t, SuClient> sus_;
  std::map<std::uint32_t, pir::PirClient> pir_clients_;
  std::map<std::uint32_t, PuClient> pus_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace pisa::core

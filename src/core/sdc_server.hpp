// Spectrum Database Controller (paper Figures 4 & 5, §IV-B).
//
// The SDC never holds a Paillier private key: every spectrum quantity it
// touches stays encrypted under pk_G (or pk_j after conversion). It keeps
//   * the encrypted interference budget Ñ (eq. (10)), maintained from PU
//     update columns without any secure comparison,
//   * per-request blinding state (the ε signs of eq. (14)) between the two
//     phases of request processing, and
//   * the RSA license-signing key (eq. (17)).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "bigint/random_source.hpp"
#include "core/cipher_ops.hpp"
#include "crypto/chacha_rng.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/sdc_state.hpp"
#include "crypto/paillier.hpp"
#include "crypto/rsa_signature.hpp"
#include "crypto/threshold_paillier.hpp"
#include "net/bus.hpp"
#include "net/reliable_channel.hpp"
#include "pir/pir_replica.hpp"
#include "radio/grid.hpp"
#include "watch/matrices.hpp"

namespace pisa::exec {
class ThreadPool;
}

namespace pisa::core {

class SdcServer {
 public:
  /// `e_matrix` is the public initialization-step matrix E (§IV-A1); the
  /// SDC encrypts it itself (deterministically — E is public data).
  SdcServer(const PisaConfig& cfg, crypto::PaillierPublicKey group_pk,
            watch::QMatrix e_matrix, bn::RandomSource& rng,
            std::string issuer_name = "sdc");

  const crypto::RsaPublicKey& license_key() const { return rsa_.pk; }
  const std::string& issuer_name() const { return issuer_; }

  /// SU public-key directory (retrieved from the STP out of band).
  void register_su_key(std::uint32_t su_id, crypto::PaillierPublicKey pk);

  /// Execution lanes for the batch pipeline (nullptr = sequential). The
  /// pool is shared across entities; see PisaSystem.
  void set_thread_pool(std::shared_ptr<exec::ThreadPool> pool);

  /// Install this server's 2-of-2 share of the group decryption exponent
  /// (threshold-STP mode); begin_request then attaches a partial decryption
  /// of every blinded Ṽ entry so the STP can open only those.
  void set_threshold_share(crypto::ThresholdKeyShare share);

  /// Figure 4 step 4: fold a PU's W̃ column into Ñ. Incremental: retract the
  /// PU's whole previous contribution (its last column and any deltas since)
  /// homomorphically, then add the new column; re-probe every cell the fold
  /// touched.
  void handle_pu_update(const PuUpdateMsg& update);

  /// §3.9 delta fold: multiply each carried cell into Ñ — O(cells) work —
  /// then re-probe exactly those cells. Same external-decision semantics as
  /// replaying the PU's full column.
  void handle_pu_delta(const PuDeltaMsg& delta);

  /// Ablation path: rebuild Ñ from Ẽ and every PU's contribution (the
  /// paper's literal "aggregate all PU inputs" formulation, eq. (9)/(10)).
  void recompute_budget();

  /// Figure 5 steps 3–5: compute R̃, Ĩ, blind into Ṽ, remember ε, return the
  /// conversion request for the STP.
  ConvertRequestMsg begin_request(const SuRequestMsg& request);

  /// Figure 5 steps 9–11: unblind X̃ into Q̃ (eq. (16)), aggregate, sign the
  /// license and blind the signature into G̃ (eq. (17)).
  SuResponseMsg finish_request(const ConvertResponseMsg& response);

  /// Wire onto a transport (raw SimulatedNetwork or ReliableTransport):
  /// listens for PU updates and SU requests, talks to `stp_name`, answers
  /// the requesting SU by sender name. Handlers are idempotent under
  /// at-least-once delivery: replays are dropped by a (sender, seq) window,
  /// and duplicate request ids / late conversion responses are ignored
  /// rather than thrown.
  void attach(net::Transport& net, const std::string& name = "sdc",
              const std::string& stp_name = "stp");

  /// Encrypted budget access for tests/benches (the SDC itself cannot
  /// decrypt it). With pack_slots = k the matrix has ⌈C/k⌉ channel-group
  /// rows, each ciphertext packing k per-channel budget slots; tail slots
  /// of the last group carry the constant 1.
  const CipherMatrix& encrypted_budget() const { return state_.budget(); }

  /// The durable state engine behind this server (DESIGN.md §3.6): Ñ, the
  /// PU contributions and the serial counter live there and — with
  /// durability on — are journaled to the WAL in cfg.durability.dir.
  const SdcStateEngine& state() const { return state_; }

  /// TEST ONLY: mutable engine access, for planting §3.8 filter collisions.
  SdcStateEngine& test_state() { return state_; }

  /// Force a compaction now (sealed snapshot + fresh WAL).
  /// No-op when durability is off.
  void checkpoint() { state_.checkpoint(); }

  /// The co-located PIR replica 0 (§3.10); null unless cfg.query_mode is
  /// kPir. attach() registers it as endpoint "pir_0" on the same transport.
  pir::PirServer* pir_server() { return pir_server_.get(); }
  const pir::PirServer* pir_server() const { return pir_server_.get(); }

  /// The slot layout the budget/blinding paths use (1 slot = the paper's
  /// per-entry layout).
  const crypto::SlotCodec& slot_codec() const { return codec_; }

  /// Cumulative per-phase timing: every sample is folded into the running
  /// total so benches can track the perf trajectory across whole workloads
  /// (BENCH_system.json), not just the last request.
  struct PhaseStat {
    std::uint64_t count = 0;
    double total_ms = 0;
    double last_ms = 0;

    void add(double ms) {
      ++count;
      total_ms += ms;
      last_ms = ms;
    }
    double mean_ms() const {
      return count == 0 ? 0.0 : total_ms / static_cast<double>(count);
    }
  };

  struct Stats {
    std::uint64_t pu_updates = 0;
    std::uint64_t requests_started = 0;
    std::uint64_t requests_finished = 0;
    std::uint64_t batches_sent = 0;     // ConvertBatchMsgs (every mode)
    std::uint64_t batches_timed_out = 0;  // watchdog-abandoned batches
    // §3.8 denial prefilter: every screened request counts exactly one of
    // hits (confirmed-exhausted → one-round FastDenyMsg sent) or misses (fell
    // through to the full pipeline); false_positives counts cuckoo hits the
    // exact set vetoed along the way (they proceed as misses).
    std::uint64_t prefilter_hits = 0;
    std::uint64_t prefilter_misses = 0;
    std::uint64_t prefilter_false_positives = 0;
    std::uint64_t probes_sent = 0;   // BudgetProbeMsgs to the STP
    // §3.9 incremental path:
    std::uint64_t pu_deltas = 0;     // handle_pu_delta calls
    std::uint64_t delta_cells = 0;   // cells folded across those calls
    PhaseStat update;     // handle_pu_update
    PhaseStat delta;      // handle_pu_delta
    PhaseStat phase1;     // begin_request
    PhaseStat phase2;     // finish_request
    PhaseStat prefilter;  // fast-deny screen (filter-on requests only)
  };
  const Stats& stats() const { return stats_; }

  /// stats().pu_updates + pu_deltas, safe to read from any thread: the
  /// arrival signal a caller off the handler thread polls for the updates
  /// it sent. Bumped after each fold has enqueued its re-probe round.
  std::uint64_t updates_folded() const { return updates_folded_.load(); }

 private:
  struct PendingRequest {
    SuRequestMsg request;
    std::vector<std::int8_t> epsilon;  // ±1 per packed ciphertext
    LicenseBody license;
    bn::BigUint signature;  // SG, plaintext — never leaves the SDC unblinded
    std::uint64_t finish_seed = 0;  // seeds finish_request's η and nonce
    std::string reply_to;   // network sender, empty for direct calls
  };

  using Cell = SdcStateEngine::Cell;  // (group, block)

  /// Blinded budget cells, ready for the STP.
  struct Blinded {
    std::vector<crypto::PaillierCiphertext> v;
    std::vector<crypto::PaillierCiphertext> partials;  // threshold mode only
    std::vector<std::int8_t> epsilon;  // ±1 per packed ciphertext
  };

  /// The one SDC side of the Figure 5 exchange: draw α, β_j and ε per cell
  /// from `rng` (in that order, cell by cell), then blind each cell to
  /// ε·(α·(Ñ − X·F̃) − β̃) with eq. (14)'s fused kernel and attach the
  /// threshold partial. `f` holds one F̃ entry per cell (begin_request);
  /// null drops the F term (the §3.8 budget probe).
  Blinded blind(const std::vector<Cell>& cells,
                const std::vector<crypto::PaillierCiphertext>* f,
                bn::RandomSource& rng);
  const crypto::PaillierPublicKey& su_key(std::uint32_t su_id) const;

  // --- §3.8 denial prefilter ---
  /// True iff any (group, block) cell inside the disclosed range is
  /// confirmed exhausted. The request spans every channel group, and
  /// N ≤ 0 at one covered cell already forces I = N − X·F ≤ N ≤ 0 there
  /// (F̃ encrypts non-negative interference), i.e. a certain denial.
  bool fast_deny_check(const SuRequestMsg& request);
  /// After a fold: bump the epochs of the cells it touched, drop their
  /// recorded exhaustion and probe them (one round, in the fold's cell
  /// order). No-op with the filter off.
  void reprobe(const std::vector<Cell>& cells);
  /// Blind the given (group, block) budget cells (ε·(α·Ñ − β̃): blind()
  /// without the F term) and ask the STP for their signs.
  void send_budget_probe(const std::vector<Cell>& cells);
  /// Fold a probe reply into the engine's exhausted sets, discarding cells
  /// whose epoch moved (a later fold re-invalidated them).
  void handle_probe_response(const BudgetProbeResponseMsg& resp);

  // --- conversion batcher (DESIGN.md §3.5) ---
  /// Stage one begun request's blinded Ṽ for the next batch; flushes when
  /// the batch is full (at once with convert_batch_max = 0), otherwise arms
  /// the linger timer. While a batch is in flight new arrivals only stage
  /// (their begin_request blinding already ran — that is the phase
  /// pipelining) and ride the next flush.
  void stage_conversion(ConvertRequestMsg conv);
  /// Send staged items (up to convert_batch_max entries, always >= 1 item)
  /// as one ConvertBatchMsg; with batching on, mark it in flight and arm
  /// its loss watchdog.
  void flush_batch();
  /// Watchdog deadline: 1.5× the transport's full retry schedule plus the
  /// linger (reliable mode), else 1 s of virtual time on the perfect bus.
  double watchdog_delay_us() const;

  PisaConfig cfg_;
  crypto::SlotCodec codec_;  // pack_slots entries per plaintext (§3.4)
  crypto::PaillierPublicKey group_pk_;
  watch::QMatrix e_matrix_;
  crypto::RsaKeyPair rsa_;
  std::string issuer_;
  /// §3.8 prefilter fingerprint key. All-zero when the filter is off (no
  /// rng draw, so filter-off construction is byte-identical to before);
  /// with durability on it persists as a sealed file so a recovered SDC
  /// rebuilds the same filter bytes.
  std::array<std::uint8_t, 32> filter_key_{};
  std::shared_ptr<exec::ThreadPool> exec_;

  /// Ñ, the PU contributions and the serial counter — optionally durable.
  /// Declared after group_pk_/e_matrix_: its constructor consumes both, and
  /// with durability on it recovers the whole state from disk right here.
  SdcStateEngine state_;
  /// §3.10 co-located PIR replica 0; null in Paillier mode.
  std::unique_ptr<pir::PirServer> pir_server_;
  std::optional<crypto::ThresholdKeyShare> threshold_share_;
  std::map<std::uint32_t, crypto::PaillierPublicKey> su_keys_;
  std::map<std::uint64_t, PendingRequest> pending_;
  // Network mode: conversions that arrived before the SU's key did.
  std::map<std::uint32_t, std::vector<ConvertResponseMsg>> awaiting_key_;
  std::set<std::uint32_t> lookups_in_flight_;
  // At-least-once delivery defence: transport-level retransmissions that
  // slip past ReliableTransport's dedup window must not re-run handlers.
  net::DedupWindow seen_frames_;
  Stats stats_;
  std::atomic<std::uint64_t> updates_folded_{0};

  // §3.8/§3.9 probe bookkeeping. A cell's epoch advances every time a fold
  // touches it (reprobe); a probe reply only installs exhaustion
  // evidence for cells whose epoch still matches its send-time snapshot,
  // so a stale reply can never resurrect outdated state — the filter stays
  // conservative (invalidated = never fast-denied) in the meantime.
  struct PendingProbe {
    std::vector<Cell> cells;
    std::vector<std::uint64_t> epochs;   // per cell, at send time
    std::vector<std::int8_t> epsilon;    // ±1 per probed ciphertext
  };
  std::map<std::uint64_t, PendingProbe> probes_;
  std::map<std::uint64_t, std::uint64_t> cell_epoch_;  // by engine cell_key
  std::uint64_t next_probe_id_ = 1;

  // Conversion batcher state (network mode only; see attach()). staged_ is
  // the waiting buffer of the double-buffered queue, inflight_batch_ marks
  // the batch currently at the STP (batching on only).
  std::vector<ConvertRequestMsg> staged_;
  std::size_t staged_entries_ = 0;
  std::optional<std::uint64_t> inflight_batch_;
  std::uint64_t next_batch_id_ = 1;
  bool linger_armed_ = false;
  net::Transport* net_ = nullptr;  // set by attach()
  std::string self_name_;
  std::string stp_name_;

  /// Private runtime stream for blinding draws (α, β, ε, η, signature
  /// nonces), seeded once from the construction rng. Keeping request-path
  /// randomness off the shared simulation rng makes every output byte a
  /// function of this entity's own draw order alone — so batching, batch
  /// composition and message interleaving cannot change results
  /// (DESIGN.md §3.5). Only begin_request and the probes read it; a
  /// request's finish-phase draws (η, signature nonce) come from a
  /// sub-stream whose seed begin_request takes from here, so the order in
  /// which conversions return cannot shift any request's randomness.
  /// Declared last: its seed draw follows the RSA keygen.
  crypto::ChaChaRng stream_;
};

}  // namespace pisa::core

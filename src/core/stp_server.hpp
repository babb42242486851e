// Semi-trusted third party (paper §III-C).
//
// The STP owns the global Paillier key pair (pk_G, sk_G) and a directory of
// SU public keys, and provides exactly one service: key conversion. Given
// the blinded indicator matrix Ṽ (under pk_G), it decrypts each entry, maps
// the sign to ±1 (eq. (15)) and re-encrypts under the requesting SU's own
// key pk_j. It never sees unblinded interference values — the ε/α/β
// blinding applied by the SDC (eq. (14)) hides both magnitude and sign.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bigint/random_source.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "crypto/packing.hpp"
#include "crypto/paillier.hpp"
#include "crypto/randomizer_source.hpp"
#include "crypto/threshold_paillier.hpp"
#include "net/bus.hpp"
#include "net/reliable_channel.hpp"

namespace pisa::exec {
class ThreadPool;
}

namespace pisa::core {

class StpServer {
 public:
  /// Generates the global key pair from `rng` (kept by reference; must
  /// outlive the server).
  StpServer(const PisaConfig& cfg, bn::RandomSource& rng);

  const crypto::PaillierPublicKey& group_key() const { return group_.pk; }

  /// SU key directory (paper: "Each SU i ... uploads pk_i to STP").
  /// Last writer wins; a new key gets a new randomizer source, while
  /// re-registering the current key keeps its source where it is.
  void register_su_key(std::uint32_t su_id, crypto::PaillierPublicKey pk);
  /// The reference stays valid until `su_id` registers a different key.
  const crypto::PaillierPublicKey& su_key(std::uint32_t su_id) const;

  /// The key-conversion service for one request, callable directly (tests,
  /// benches): a one-item convert_batch.
  ConvertResponseMsg convert(const ConvertRequestMsg& request);

  /// Conversion as it arrives on the wire (DESIGN.md §3.5): one
  /// parallel_for over the flat entry list of every item, randomness staged
  /// sequentially in (item, entry) order — per-item outputs are
  /// byte-identical to item-by-item convert() calls issued in the same
  /// order.
  ConvertBatchResponseMsg convert_batch(const ConvertBatchMsg& batch);

  /// §3.8 budget sign probe: decrypt each blinded ε·(α·Ñ − β̃) entry
  /// (threshold-combined when the SDC attached partials) and return one
  /// sign byte per packed slot. No re-encryption, no SU key involved — the
  /// values stay ε-masked, so the STP learns no budget signs itself.
  BudgetProbeResponseMsg probe_signs(const BudgetProbeMsg& probe);

  /// One randomizer source per SU key (DESIGN.md §3.5): factor k of SU j
  /// is r^{n_j} mod n_j² with r = random_coprime(ChaChaRng{seed_j, k}, n_j).
  /// Conversions take indices 0, 1, 2, … in entry order, from the cache when
  /// a factor was computed ahead and inline otherwise — the same value
  /// either way, so output bytes never depend on what was precomputed, on
  /// batch composition or on how requests of different SUs interleave.
  ///
  /// Offline warm-up: compute SU `su_id`'s next factors until `count` are
  /// cached, on the thread pool. The STP knows every pk_j in advance, so
  /// this moves its dominant cost off the request path — the trick §VI-A
  /// applies to SU request preparation.
  void precompute_su_randomizers(std::uint32_t su_id, std::size_t count);

  /// The one refill primitive: compute up to `max_factors` missing factors
  /// so that every registered SU moves toward randomizer_depth() cached
  /// factors, in SU-id order. Modexps run outside the cache lock (on the
  /// thread pool when more than one is due), so this is safe to call from
  /// any thread while conversions run. Returns how many factors it
  /// computed; 0 means every SU is at depth. PisaSystem calls it after each
  /// network drain; RpcServer calls it one factor at a time from an
  /// idle-priority thread.
  std::size_t refill_randomizers(
      std::size_t max_factors = std::numeric_limits<std::size_t>::max());

  /// Factors kept ahead per SU: the largest conversion (entries of one
  /// request) served so far, 0 before the first — a deployment that never
  /// converts (PIR mode) precomputes nothing.
  std::size_t randomizer_depth() const;

  /// Cached factors for one SU (0 for an unknown SU).
  std::size_t pool_available(std::uint32_t su_id) const;

  /// Called on the converting thread after every convert() and
  /// convert_batch(). Set it before traffic starts.
  void set_conversion_hook(std::function<void()> hook) {
    conversion_hook_ = std::move(hook);
  }

  /// Execution lanes for conversion and batch refills (nullptr = sequential).
  void set_thread_pool(std::shared_ptr<exec::ThreadPool> pool);

  /// Threshold mode (PisaConfig::threshold_stp): at setup this server acts
  /// as the dealer, keeps share 2 and hands share 1 to the SDC (a deployed
  /// system would use a distributed keygen instead). Afterwards, convert()
  /// only opens Ṽ entries whose SDC partial decryption is attached.
  const crypto::ThresholdKeyShare& sdc_share() const;
  bool threshold_mode() const { return deal_.has_value(); }

  /// Wire onto a transport (raw SimulatedNetwork or ReliableTransport)
  /// under `name`, replying to the sender of each conversion request.
  /// Handlers are idempotent under at-least-once delivery: replayed frames
  /// are dropped by a (sender, seq) window, and key registration is
  /// last-writer-wins either way.
  void attach(net::Transport& net, const std::string& name = "stp");

  std::uint64_t conversions_served() const { return conversions_; }
  std::uint64_t entries_converted() const { return entries_; }
  std::uint64_t batches_served() const { return batches_; }
  std::uint64_t probes_served() const { return probes_; }
  std::uint64_t probe_slots_signed() const { return probe_slots_; }
  /// Converted ciphertexts whose r^n factor came from the cache / was
  /// computed on the request path.
  std::uint64_t factors_precomputed() const { return factors_precomputed_.load(); }
  std::uint64_t factors_inline() const { return factors_inline_.load(); }

  /// TEST/AUDIT ONLY: decrypt a group-key ciphertext. Models what a curious
  /// STP could compute; the privacy tests use it to show blinded values
  /// carry no sign information.
  bn::BigInt peek_decrypt_signed(const crypto::PaillierCiphertext& ct) const {
    return group_.sk.decrypt_signed(ct);
  }

 private:
  /// One SU key's randomizer source. A new key gets a new source object,
  /// so a refill computed for the old one lands where nothing reads it.
  struct Source {
    std::shared_ptr<crypto::RandomizerSource> src;
    std::uint64_t key_number = 0;  ///< keys this SU registered before src's
  };

  /// A factor to compute outside the lock, then offer to its source.
  struct FactorTask {
    std::shared_ptr<crypto::RandomizerSource> src;
    std::uint64_t index = 0;
    bn::BigUint factor;
  };

  /// One conversion item's SU source and the indices it took from it.
  struct Staged {
    std::shared_ptr<const crypto::RandomizerSource> src;
    crypto::RandomizerSource::Reservation taken;
  };

  /// One Ṽ entry of a (possibly batched) conversion, flattened: where its
  /// ciphertext lives and which of its item's taken indices it uses.
  struct ConvertEntry;

  /// Take the next `count` indices of SU `su_id`'s source, cached factors
  /// first; raises the depth to `count`. Throws std::out_of_range for an
  /// unknown SU.
  Staged stage_randomness(std::uint32_t su_id, std::size_t count);

  /// Compute every task's factor (outside the lock), then offer each to
  /// its source.
  void compute_and_store(std::vector<FactorTask>& tasks);

  /// Append tasks for `src`'s missing factors until `count` are cached,
  /// stopping when `tasks` holds `max_tasks`. Call under mu_.
  static void add_tasks(const std::shared_ptr<crypto::RandomizerSource>& src,
                        std::size_t count, std::size_t max_tasks,
                        std::vector<FactorTask>& tasks);

  /// Throws std::invalid_argument unless threshold mode brings one SDC
  /// partial per entry.
  void check_partials(std::size_t entries, std::size_t partials) const;

  /// Open one blinded ciphertext (a Ṽ entry or a probe entry) to its
  /// signed slots: decrypt under sk_G or, in threshold mode, complete the
  /// SDC's `partial`.
  std::vector<bn::BigInt> open_slots(const crypto::PaillierCiphertext& v,
                                     const crypto::PaillierCiphertext* partial) const;

  /// The conversion kernel: open, per-slot sign map, re-encrypt under
  /// pk_j — one parallel_for over all flat entries.
  void convert_entries(std::vector<ConvertEntry>& entries);

  /// convert() and convert_batch() alike: randomness staged sequentially in
  /// (item, entry) order, then one convert_entries over every item.
  std::vector<ConvertResponseMsg> convert_items(
      std::span<const ConvertRequestMsg> items);

  void after_conversion() {
    if (conversion_hook_) conversion_hook_();
  }

  PisaConfig cfg_;
  crypto::SlotCodec codec_;  // pack_slots entries per plaintext (§3.4)
  bn::RandomSource& rng_;
  crypto::PaillierKeyPair group_;
  /// Master secret of every source, drawn once right after key generation:
  /// seed_j = SHA-256(master, su_id, key_number, SHA-256(pk_j)), so a
  /// re-registered key — even one the SU used before — never reuses an r.
  crypto::RandomizerSource::Seed master_;
  std::shared_ptr<exec::ThreadPool> exec_;
  mutable std::mutex mu_;  ///< guards sources_ and depth_
  std::map<std::uint32_t, Source> sources_;
  std::size_t depth_ = 0;
  std::function<void()> conversion_hook_;
  std::optional<crypto::ThresholdDeal> deal_;  // set iff cfg.threshold_stp
  net::DedupWindow seen_frames_;  // at-least-once replay defence
  std::uint64_t conversions_ = 0;
  std::uint64_t entries_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t probe_slots_ = 0;
  std::atomic<std::uint64_t> factors_precomputed_{0};
  std::atomic<std::uint64_t> factors_inline_{0};
};

}  // namespace pisa::core

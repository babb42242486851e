// Primary-user (TV receiver) client (paper Figure 4, plus the §3.9
// incremental path).
//
// On every channel switch / power-off the PU builds its W column
// W(c) = T − E_S(c, block) for the tuned channel and 0 elsewhere, encrypts
// all C entries under pk_G (so the SDC cannot tell which channel changed)
// and ships them. The block index travels in clear — receiver locations are
// public, registered data (§III-D).
//
// The incremental path (make_delta) keeps a footprint cache — the packed
// plaintext contribution per (channel-group, block) cell currently folded
// at the SDC — and on each tuning/mobility event emits only the cells whose
// contribution changed, as encryptions of (new − old). A moving or
// channel-hopping PU therefore ships 1–2 ciphertexts per event instead of a
// full ⌈C/pack_slots⌉ column per touched block, and the SDC folds each with
// one multiplication. Both paths encrypt through one
// crypto::RandomizerSource, so r^n factors precomputed in the offline phase
// make a cell one modular multiplication, and a frame's bytes never depend
// on how many were.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bigint/random_source.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "crypto/paillier.hpp"
#include "crypto/randomizer_source.hpp"
#include "pir/pir_messages.hpp"
#include "watch/config.hpp"
#include "watch/matrices.hpp"

namespace pisa::exec {
class ThreadPool;
}

namespace pisa::core {

class PuClient {
 public:
  /// `e_matrix` is the full public E_S budget matrix (C×B): a mobile PU
  /// must be able to compute w = T − E at any block it visits. `rng` seeds
  /// this client's randomizer source once at construction; afterwards every
  /// ciphertext takes the source's next index, so how many ciphertexts an
  /// update path needs (full column vs delta cells) cannot shift any other
  /// entity's randomness.
  PuClient(watch::PuSite site, const PisaConfig& cfg,
           crypto::PaillierPublicKey group_pk, watch::QMatrix e_matrix,
           bn::RandomSource& rng);

  /// The receiver's current registration: its id and the block it
  /// occupies now (the construction site until move_to). Public, registered
  /// data — it travels in clear, and it is where an SU's F models this
  /// receiver.
  watch::PuSite site() const { return {pu_id_, radio::BlockId{block_}}; }

  /// Vehicular mobility: re-register at `block`. The next make_update /
  /// make_delta emits the contribution from the new location (make_delta
  /// retracts the old block's cells explicitly).
  void move_to(std::uint32_t block);

  /// Build the encrypted full-column update for a (re)tuning event at the
  /// current block. Receiver-off is the all-zeros column (still encrypted,
  /// still ⌈C/pack_slots⌉ packed ciphertexts — indistinguishable from any
  /// other update). Commits the footprint cache: the caller is expected to
  /// deliver the message.
  PuUpdateMsg make_update(const watch::PuTuning& tuning);

  /// Plaintext counterpart of make_update for the PIR replicas (§3.10): the
  /// same C-entry W column — w = T − E at the tuned channel of the current
  /// block, 0 elsewhere (all zeros when off) — unpacked and unencrypted.
  /// The threat model accepts that replica operators see spectrum-map data;
  /// it is the *SU query* the PIR path protects. Consumes no randomness and
  /// does not touch the encrypted path's footprint cache: replicas diff
  /// incoming columns against their own stored state.
  pir::PirUpdateMsg make_pir_update(const watch::PuTuning& tuning) const;

  /// §3.9 incremental update: diff the desired state (tuning at the current
  /// block) against the footprint cache and emit only the changed cells as
  /// encryptions of (new − old). Returns nullopt when nothing changed.
  /// Commits the footprint and bumps the per-PU delta sequence; the caller
  /// is expected to deliver the message (in order).
  std::optional<PuDeltaMsg> make_delta(const watch::PuTuning& tuning);

  /// Last emitted delta sequence number (0 = none yet).
  std::uint64_t delta_seq() const { return delta_seq_; }

  /// Nonzero (group, block) cells currently folded at the SDC, as tracked
  /// by the footprint cache.
  std::size_t footprint_cells() const { return footprint_.size(); }

  /// Serialized size of one full update in bytes (Fig. 6: ≈ 0.05 MB at
  /// C = 100). Pure arithmetic — consumes no randomness.
  std::size_t update_bytes() const;

  /// Offline phase: compute the next r^n factors until `count` are cached,
  /// so each later ciphertext costs one modular multiplication (paper
  /// §VI-A's pooled-preparation argument applied to the PU side).
  void precompute_randomizers(std::size_t count);
  std::size_t randomizers_available() const { return source_.cached(); }

  /// Execution lanes for encryption (nullptr = sequential).
  void set_thread_pool(std::shared_ptr<exec::ThreadPool> pool);

 private:
  static std::uint64_t cell_key(std::uint32_t group, std::uint32_t block) {
    return (static_cast<std::uint64_t>(group) << 32) | block;
  }
  /// Packed plaintext for the single nonzero group of (channel, block):
  /// w = T − E at slot channel % pack_slots, other slots zero.
  bn::BigInt packed_cell_value(std::uint32_t channel, std::uint32_t block,
                               std::int64_t t) const;
  /// Desired footprint for `tuning` at the current block (empty when off).
  std::map<std::uint64_t, bn::BigInt> desired_footprint(
      const watch::PuTuning& tuning) const;

  std::uint32_t pu_id_;
  PisaConfig cfg_;
  watch::QMatrix e_matrix_;
  std::shared_ptr<exec::ThreadPool> exec_;
  std::uint32_t block_;
  std::uint64_t delta_seq_ = 0;
  /// Packed plaintext contribution per nonzero (group, block) cell, as the
  /// SDC currently holds it for this PU.
  std::map<std::uint64_t, bn::BigInt> footprint_;
  /// r^n factors under pk_G, seeded once from the construction rng.
  crypto::RandomizerSource source_;
};

}  // namespace pisa::core

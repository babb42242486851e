// SDC state engine with write-ahead durability (DESIGN.md §3.6).
//
// Owns everything the SDC must not lose across a crash: the encrypted
// interference budget Ñ (eq. (10)), the latest W̃ column per PU (needed to
// retract a stale column on the next update) and the license serial
// counter. Every PU update folds one column into Ñ on the exec pool, and
// with durability on every mutation is journaled to one WAL and compacted
// into one snapshot (store/).
//
// Contracts the tests pin down:
//   * durability off ⇒ byte-identical to the pre-engine SdcServer: same
//     kernels, same call order, same ciphertext bytes, at any num_threads.
//   * recompute() lands on the incrementally folded bytes — column folds
//     are entry-independent and Paillier addition lands on canonical
//     residues.
//   * recover() (run by the constructor when durability is on) rebuilds
//     byte-identical state from snapshot + WAL replay: journaling happens
//     before the in-memory apply, a record present in the log is by
//     definition applied, and re-delivery of an already-applied update
//     retracts and re-adds the identical column — a modular no-op. That is
//     what turns at-least-once delivery into exactly-once application.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/cipher_ops.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "crypto/cuckoo_filter.hpp"
#include "crypto/packing.hpp"
#include "crypto/paillier.hpp"
#include "store/shard_store.hpp"
#include "watch/matrices.hpp"

namespace pisa::exec {
class ThreadPool;
}

namespace pisa::core {

class SdcStateEngine {
 public:
  /// WAL record types (store/wal payload tags).
  static constexpr std::uint8_t kRecPuColumn = 1;  ///< one PU's W̃ column
  static constexpr std::uint8_t kRecSerial = 2;    ///< serial floor reservation
  static constexpr std::uint8_t kRecExhaust = 3;   ///< exhausted set for one
                                                   ///< block (§3.8)
  static constexpr std::uint8_t kRecDelta = 4;     ///< delta cells for one PU
                                                   ///< (§3.9)

  /// Initializes Ñ from the public matrix E (deterministic encryption, tail
  /// slots seeded with 1 — see SdcServer) and, when durability is enabled,
  /// immediately recovers from cfg.durability.dir: load the sealed
  /// snapshot (if any), replay its epoch's WAL over it, drop any torn tail
  /// and stale-epoch logs. Throws std::runtime_error when the durable state
  /// was written under a different configuration (shape, packing or group
  /// key).
  /// `filter_key` keys the §3.8 cuckoo prefilter fingerprints; it is only
  /// read when cfg.denial_filter.enabled (pass {} otherwise).
  SdcStateEngine(const PisaConfig& cfg, crypto::PaillierPublicKey group_pk,
                 watch::QMatrix e_matrix,
                 const std::array<std::uint8_t, 32>& filter_key = {});

  /// Pool for the column kernels of the fold and recompute (nullptr =
  /// sequential).
  void set_thread_pool(std::shared_ptr<exec::ThreadPool> pool);

  const CipherMatrix& budget() const { return budget_; }
  crypto::PaillierCiphertext& budget_at(std::uint32_t group, std::uint32_t block);

  /// Fold one PU column: journal it, retract the PU's previous column, add
  /// the new one. Idempotent under re-delivery.
  void apply_pu_update(const PuUpdateMsg& update);

  /// Fold an incremental PU delta (§3.9): each cell multiplies one budget
  /// entry — O(cells) work instead of O(groups × touched blocks). Delta
  /// sequence numbers turn at-least-once ordered delivery into exactly-once
  /// application: a delta applies iff its `delta_seq` exceeds the last one
  /// journaled for that PU. One WAL record carries the whole delta, so a
  /// crash leaves it either applied or not. Throws on out-of-range cell
  /// coordinates, duplicate cells, an empty cell list or a zero seq.
  void apply_pu_delta(const PuDeltaMsg& delta);

  /// Cell key for dirty/delta bookkeeping: (group, block) packed into one
  /// word, ordered group-major.
  static std::uint64_t cell_key(std::uint32_t group, std::uint32_t block) {
    return (static_cast<std::uint64_t>(group) << 32) | block;
  }

  /// Rebuild Ñ from Ẽ and every stored column (the paper's literal
  /// eq. (9)/(10) aggregation). Derivable state — nothing is journaled.
  void recompute();

  /// Next license serial. Durable mode reserves serials from the WAL in
  /// chunks (DurabilityConfig::serial_reserve) so serials stay strictly
  /// monotonic across crash/recovery at one tiny record per chunk.
  std::uint64_t next_serial();
  std::uint64_t serial() const { return serial_; }

  /// Compact now: sealed snapshot of the current state, fresh WAL, old log
  /// removed. No-op when durability is off.
  void checkpoint();

  std::size_t pu_count() const { return columns_.size(); }

  /// The block the engine currently holds a W̃ column for, per PU.
  std::optional<std::uint32_t> pu_block(std::uint32_t pu_id) const;

  // ── §3.8 denial prefilter ─────────────────────────────────────────────
  //
  // The engine keeps an exact exhausted map {block → sorted group set},
  // mirrored into one keyed cuckoo filter over the whole grid. The
  // request path asks the filter first (cheap, keyed-hash lookups); only a
  // cuckoo hit pays the exact-set probe, and only an exact-set confirmation
  // may deny — cuckoo false positives can never cause a false denial.

  bool filter_enabled() const { return filter_on_; }

  /// Result of one (group, block) prefilter lookup.
  struct FilterProbe {
    bool cuckoo_hit = false;  ///< keyed filter said "maybe exhausted"
    bool confirmed = false;   ///< exact set agrees — denial is provable
  };
  FilterProbe probe_exhausted(std::uint32_t group, std::uint32_t block) const;

  /// Replace the recorded exhausted group set for `block` (full-set
  /// semantics; groups outside [0, channel_groups) are ignored). Journals a
  /// kRecExhaust record when the set actually changed, so WAL replay
  /// rebuilds the filter byte-identically.
  void set_block_exhaustion(std::uint32_t block,
                            const std::vector<std::uint32_t>& groups);

  /// Partial-evidence variant for the §3.9 delta path: only the groups in
  /// `probed` were re-evaluated, so only their membership may change —
  /// groups outside `probed` keep their recorded state (their budget cells
  /// did not move). New set = (current − probed) ∪ (probed ∩ exhausted).
  /// The resulting exact sets match what a full-block re-probe would
  /// install (exhausted_state_bytes is the cross-path oracle); raw cuckoo
  /// table bytes may differ — the paths erase/insert in different orders.
  void update_block_exhaustion(std::uint32_t block,
                               const std::vector<std::uint32_t>& probed,
                               const std::vector<std::uint32_t>& exhausted);

  /// Conservative invalidation: forget everything recorded about `block`.
  void invalidate_block(std::uint32_t block) { set_block_exhaustion(block, {}); }

  /// Live (group, block) exhausted cells.
  std::size_t exhausted_entries() const;

  /// Serialized filter + exhausted-set state, as the snapshot carries it —
  /// the byte-identity oracle for the recovery tests.
  std::vector<std::uint8_t> filter_state_bytes() const;

  /// Exact exhausted sets only, no cuckoo table bytes — the cross-path
  /// equivalence oracle (§3.9). Decisions depend solely on the exact sets
  /// (a denial needs a cuckoo hit *and* exact-set confirmation, and the
  /// filter has no false negatives for recorded cells), while the table's
  /// raw bytes are insert/erase-history-dependent and may differ between
  /// the delta path and a full-rebuild oracle.
  std::vector<std::uint8_t> exhausted_state_bytes() const;

  /// TEST ONLY: plant (group, block) in the cuckoo table without touching
  /// the exact set — manufactures a false positive so the fallback path can
  /// be exercised deterministically.
  void test_inject_filter_collision(std::uint32_t group, std::uint32_t block);

  bool durable() const { return store_ != nullptr; }

  struct RecoveryStats {
    bool ran = false;            ///< durability was on and recover executed
    bool from_snapshot = false;  ///< a snapshot was loaded
    std::uint64_t wal_records_replayed = 0;
    std::uint64_t torn_tails_dropped = 0;
    std::uint64_t stale_logs_removed = 0;
    double recover_ms = 0;
  };
  const RecoveryStats& recovery_stats() const { return recovery_; }

  /// Live WAL records (since the last compaction).
  std::uint64_t wal_records() const;
  std::uint64_t wal_bytes() const;
  std::uint64_t snapshots_written() const;

  // ── §3.9 dirty-pack tracking ──────────────────────────────────────────
  //
  // The engine records the (group, block) budget cells touched since the
  // last compaction — full-column folds mark every cell of the touched
  // blocks, delta folds mark only their cells. The set is what makes WAL
  // volume and exhaustion re-probes diff-proportional, and the bench reads
  // it to report delta cells per tick.

  /// Dirty budget cells since the last compaction.
  std::size_t dirty_cells() const { return dirty_.size(); }
  /// The dirty cell keys (cell_key order) — test introspection.
  std::vector<std::uint64_t> dirty_keys() const {
    return {dirty_.begin(), dirty_.end()};
  }
  /// Total delta cells folded by apply_pu_delta since construction
  /// (live applies only; recovery replay does not count).
  std::uint64_t delta_cells_folded() const { return delta_cells_folded_; }

 private:
  exec::ThreadPool* pool() const { return exec_.get(); }
  /// Fold `column` into Ñ, retracting the PU's previous column and its
  /// accumulated deltas. `live` marks the two columns' cells dirty; it is
  /// false during WAL replay, as in apply_delta.
  void fold_column(const PuUpdateMsg& column, bool live);
  /// Fold one validated, non-empty delta: seq-check, journal, multiply each
  /// cell into the budget and into the PU's accumulated-delta map, mark
  /// dirty. `live` is false during WAL replay: the record is already on
  /// disk and the dirty/fold counters describe live traffic only.
  void apply_delta(const PuDeltaMsg& delta, bool live);
  /// Retract the accumulated delta cells for `pu_id` from the budget and
  /// clear them (the seq guard survives).
  void retract_deltas(std::uint32_t pu_id);
  /// Journal + apply a new exhausted set for `block` when it differs from
  /// the recorded one. `groups` must be sorted, deduped and in range.
  void replace_block_exhaustion(std::uint32_t block,
                                const std::vector<std::uint32_t>& groups);
  /// Apply an exhausted-set replacement for `block` (the journaled
  /// kRecExhaust operation): erase departed groups from the cuckoo table in
  /// ascending order, insert new ones in ascending order, store the set.
  void apply_exhaust(std::uint32_t block, const std::vector<std::uint32_t>& groups);
  static std::uint64_t filter_item(std::uint32_t group, std::uint32_t block) {
    return cell_key(group, block);
  }
  void maybe_compact();
  void compact();
  std::vector<std::uint8_t> snapshot_payload() const;
  void restore_snapshot(const std::vector<std::uint8_t>& payload);
  void replay_record(const store::WalRecord& rec);
  void recover();

  PisaConfig cfg_;
  crypto::SlotCodec codec_;
  crypto::PaillierPublicKey pk_;
  watch::QMatrix e_matrix_;
  std::size_t groups_;
  std::size_t ct_width_;
  std::shared_ptr<exec::ThreadPool> exec_;

  bool filter_on_ = false;
  std::array<std::uint8_t, 32> filter_key_{};

  CipherMatrix budget_;  // Ñ
  /// Latest W̃ column per PU.
  std::map<std::uint32_t, PuUpdateMsg> columns_;
  std::unique_ptr<store::ShardStore> store_;  ///< null when durability is off
  /// §3.8: exact exhausted cells {block → sorted groups} and their keyed
  /// cuckoo mirror (null when the filter is off).
  std::map<std::uint32_t, std::set<std::uint32_t>> exhausted_;
  std::unique_ptr<crypto::CuckooFilter> filter_;
  /// §3.9: net accumulated delta ciphertext per (PU, cell) on top of the
  /// PU's stored column — retracted alongside the column when a full
  /// update arrives.
  std::map<std::uint32_t, std::map<std::uint64_t, crypto::PaillierCiphertext>>
      deltas_;
  /// Last delta_seq journaled-and-applied per PU.
  std::map<std::uint32_t, std::uint64_t> delta_seqs_;
  /// Budget cells touched since the last compaction.
  std::set<std::uint64_t> dirty_;
  std::uint64_t delta_cells_folded_ = 0;
  std::uint64_t serial_ = 0;
  std::uint64_t reserved_floor_ = 0;  // serials journaled as issued-or-skipped
  RecoveryStats recovery_;
};

}  // namespace pisa::core

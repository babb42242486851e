#include "core/sdc_state.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "crypto/key_codec.hpp"
#include "exec/thread_pool.hpp"
#include "net/codec.hpp"

namespace pisa::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Snapshot payload layout, the second header word. Layout 1 stored each
/// PU's column and its deltas in two sections; layout 2 stores one cell map
/// per PU. A snapshot of another layout is refused, never misparsed.
constexpr std::uint32_t kSnapshotLayout = 2;

/// A full column as fold cells: group g at the column's block.
std::vector<PuDeltaMsg::Cell> column_cells(const PuUpdateMsg& column) {
  std::vector<PuDeltaMsg::Cell> cells;
  cells.reserve(column.w_column.size());
  for (std::size_t g = 0; g < column.w_column.size(); ++g)
    cells.push_back(
        {static_cast<std::uint32_t>(g), column.block, column.w_column[g]});
  return cells;
}

/// The exact exhausted map {block → sorted groups}, as the filter-state
/// oracles and the snapshot carry it.
void put_exhausted(
    net::Encoder& enc,
    const std::map<std::uint32_t, std::set<std::uint32_t>>& exhausted) {
  enc.put_u32(static_cast<std::uint32_t>(exhausted.size()));
  for (const auto& [block, groups] : exhausted) {
    enc.put_u32(block);
    enc.put_u32(static_cast<std::uint32_t>(groups.size()));
    for (std::uint32_t g : groups) enc.put_u32(g);
  }
}

}  // namespace

SdcStateEngine::SdcStateEngine(const PisaConfig& cfg,
                               crypto::PaillierPublicKey group_pk,
                               watch::QMatrix e_matrix,
                               const std::array<std::uint8_t, 32>& filter_key)
    : cfg_(cfg), codec_(cfg.slot_bits(), cfg.pack_slots),
      pk_(std::move(group_pk)), e_matrix_(std::move(e_matrix)),
      groups_(cfg.channel_groups()),
      ct_width_(pk_.ciphertext_bytes()),
      filter_on_(cfg.denial_filter.enabled), filter_key_(filter_key) {
  cfg_.validate();
  std::size_t blocks = cfg_.watch.grid_rows * cfg_.watch.grid_cols;
  if (e_matrix_.channels() != cfg_.watch.channels || e_matrix_.blocks() != blocks)
    throw std::invalid_argument("SdcStateEngine: E matrix shape mismatch");
  for (std::size_t i = 0; i < e_matrix_.size(); ++i) {
    if (e_matrix_[i] < 0)
      throw std::invalid_argument("SdcStateEngine: E entries must be >= 0");
  }
  budget_ = encrypt_matrix_packed_deterministic(e_matrix_, pk_, codec_,
                                                /*tail_fill=*/1, nullptr);
  if (filter_on_) {
    // Sized for the whole groups × blocks grid (always sufficient); a
    // 1/1024 false-positive target only trims wasted exact-set probes —
    // the exact set makes false positives harmless.
    crypto::CuckooParams params;
    params.fingerprint_bits = crypto::cuckoo_fingerprint_bits(1.0 / 1024.0);
    params.capacity = groups_ * blocks;
    filter_ = std::make_unique<crypto::CuckooFilter>(filter_key_, params);
  }
  if (cfg_.durability.enabled) recover();
}

void SdcStateEngine::set_thread_pool(std::shared_ptr<exec::ThreadPool> pool) {
  exec_ = std::move(pool);
}

crypto::PaillierCiphertext& SdcStateEngine::budget_at(std::uint32_t group,
                                                      std::uint32_t block) {
  return budget_.at(radio::ChannelId{group}, radio::BlockId{block});
}

crypto::PaillierCiphertext& SdcStateEngine::entry(std::uint64_t key) {
  return budget_[(key >> 32) * budget_.blocks() + (key & 0xffffffffu)];
}

std::vector<SdcStateEngine::Cell> SdcStateEngine::apply_pu_update(
    const PuUpdateMsg& update) {
  if (update.w_column.size() != groups_)
    throw std::invalid_argument(
        "SdcStateEngine: W column must have one ciphertext per channel group");
  if (update.block >= budget_.blocks())
    throw std::out_of_range("SdcStateEngine: PU block outside the service area");

  // Journal before apply: once the record is on disk the update counts as
  // applied — recovery replays it, and a crash between this append and the
  // fold below cannot lose or double-count the column.
  if (store_) store_->append(kRecPuColumn, update.encode(ct_width_));
  auto touched = fold(update.pu_id, column_cells(update), /*replace=*/true,
                      /*live=*/true, pool());
  maybe_compact();
  return touched;
}

std::vector<SdcStateEngine::Cell> SdcStateEngine::apply_pu_delta(
    const PuDeltaMsg& delta) {
  if (delta.cells.empty())
    throw std::invalid_argument("SdcStateEngine: empty delta");
  if (delta.delta_seq == 0)
    throw std::invalid_argument("SdcStateEngine: zero delta_seq");
  std::set<std::uint64_t> seen;
  for (const auto& cell : delta.cells) {
    if (cell.group >= groups_)
      throw std::invalid_argument(
          "SdcStateEngine: delta cell group out of range");
    if (cell.block >= budget_.blocks())
      throw std::out_of_range("SdcStateEngine: delta cell block out of range");
    if (!seen.insert(cell_key(cell.group, cell.block)).second)
      throw std::invalid_argument("SdcStateEngine: duplicate delta cell");
  }

  auto touched = apply_delta(delta, /*live=*/true);
  maybe_compact();
  return touched;
}

std::vector<SdcStateEngine::Cell> SdcStateEngine::apply_delta(
    const PuDeltaMsg& delta, bool live) {
  // Exactly-once under ordered at-least-once delivery: a re-delivered delta
  // is rejected by the seq guard.
  auto it = pus_.find(delta.pu_id);
  if (it != pus_.end() && delta.delta_seq <= it->second.delta_seq) return {};

  // Journal before apply, like the column folds (replay reads the record
  // that is already on disk).
  if (live && store_) store_->append(kRecDelta, delta.encode(ct_width_));
  // A delta carries a handful of cells: one multiplication each costs less
  // than waking the lanes.
  auto touched = fold(delta.pu_id, delta.cells, /*replace=*/false, live,
                      /*lanes=*/nullptr);
  if (live) delta_cells_folded_ += delta.cells.size();
  pus_[delta.pu_id].delta_seq = delta.delta_seq;
  return touched;
}

void SdcStateEngine::multiply_in(const CellMap& cells, bool retract,
                                 exec::ThreadPool* lanes) {
  std::vector<const CellMap::value_type*> at;
  at.reserve(cells.size());
  for (const auto& kv : cells) at.push_back(&kv);
  exec::parallel_for(lanes, 0, at.size(), [&](std::size_t i) {
    auto& e = entry(at[i]->first);
    e = retract ? pk_.sub(e, at[i]->second) : pk_.add(e, at[i]->second);
  });
}

std::vector<SdcStateEngine::Cell> SdcStateEngine::fold(
    std::uint32_t pu_id, const std::vector<PuDeltaMsg::Cell>& cells,
    bool replace, bool live, exec::ThreadPool* lanes) {
  auto& held = pus_[pu_id].cells;
  std::vector<Cell> touched;
  touched.reserve(cells.size());
  for (const auto& c : cells) touched.emplace_back(c.group, c.block);

  if (replace) {
    // A full column is the PU's whole contribution: retract everything it
    // holds — the previous column and every delta folded on top of it.
    multiply_in(held, /*retract=*/true, lanes);
    std::set<std::uint64_t> refolded;
    for (const auto& c : cells) refolded.insert(cell_key(c.group, c.block));
    for (const auto& [key, ct] : held)
      if (!refolded.contains(key))
        touched.emplace_back(static_cast<std::uint32_t>(key >> 32),
                             static_cast<std::uint32_t>(key & 0xffffffffu));
    held.clear();
  }

  // Contribution slots first (map inserts are not lane-safe): a fresh cell
  // starts at its message ciphertext, a held one multiplies it in below.
  std::vector<crypto::PaillierCiphertext*> acc(cells.size(), nullptr);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto key = cell_key(cells[i].group, cells[i].block);
    auto [pos, fresh] = held.try_emplace(key, cells[i].delta);
    if (!fresh) acc[i] = &pos->second;
  }
  exec::parallel_for(lanes, 0, cells.size(), [&](std::size_t i) {
    auto& e = entry(cell_key(cells[i].group, cells[i].block));
    e = pk_.add(e, cells[i].delta);
    if (acc[i] != nullptr) *acc[i] = pk_.add(*acc[i], cells[i].delta);
  });

  if (live)
    for (const auto& [g, b] : touched) dirty_.insert(cell_key(g, b));
  return touched;
}

void SdcStateEngine::recompute() {
  budget_ = encrypt_matrix_packed_deterministic(e_matrix_, pk_, codec_,
                                                /*tail_fill=*/1, pool());
  for (const auto& [id, pu] : pus_)
    multiply_in(pu.cells, /*retract=*/false, pool());
}

std::uint64_t SdcStateEngine::next_serial() {
  ++serial_;
  if (durable() && serial_ > reserved_floor_) {
    do {
      reserved_floor_ += cfg_.durability.serial_reserve;
    } while (reserved_floor_ < serial_);
    net::Encoder enc;
    enc.put_u64(reserved_floor_);
    // A recovered engine resumes at the floor, skipping at most the
    // unissued tail of the last chunk.
    store_->append(kRecSerial, enc.take());
  }
  return serial_;
}

SdcStateEngine::FilterProbe SdcStateEngine::probe_exhausted(
    std::uint32_t group, std::uint32_t block) const {
  FilterProbe probe;
  if (!filter_on_ || group >= groups_) return probe;
  if (!filter_->contains(filter_item(group, block))) return probe;
  probe.cuckoo_hit = true;
  auto it = exhausted_.find(block);
  probe.confirmed = it != exhausted_.end() && it->second.contains(group);
  return probe;
}

void SdcStateEngine::update_block_exhaustion(
    std::uint32_t block, const std::vector<std::uint32_t>& probed,
    const std::vector<std::uint32_t>& exhausted) {
  if (!filter_on_) return;
  if (block >= budget_.blocks())
    throw std::out_of_range("SdcStateEngine: exhaustion block out of range");
  // Start from the recorded set; only probed groups may change state.
  std::set<std::uint32_t> next;
  if (auto it = exhausted_.find(block); it != exhausted_.end()) next = it->second;
  for (std::uint32_t g : probed) next.erase(g);
  for (std::uint32_t g : exhausted)
    if (g < groups_) next.insert(g);
  replace_block_exhaustion(block,
                           std::vector<std::uint32_t>(next.begin(), next.end()));
}

void SdcStateEngine::replace_block_exhaustion(
    std::uint32_t block, const std::vector<std::uint32_t>& groups) {
  auto it = exhausted_.find(block);
  const bool unchanged =
      it == exhausted_.end()
          ? groups.empty()
          : std::equal(groups.begin(), groups.end(), it->second.begin(),
                       it->second.end());
  if (unchanged) return;

  // Journal before apply, like the PU folds: the record carries the full
  // new set so replay applies the identical erase/insert diff in the
  // identical order against the same prior table.
  if (store_) {
    net::Encoder enc;
    enc.put_u32(block);
    enc.put_u32(static_cast<std::uint32_t>(groups.size()));
    for (std::uint32_t g : groups) enc.put_u32(g);
    store_->append(kRecExhaust, enc.take());
  }
  apply_exhaust(block, groups);
  maybe_compact();
}

void SdcStateEngine::apply_exhaust(std::uint32_t block,
                                   const std::vector<std::uint32_t>& groups) {
  auto& cur = exhausted_[block];
  const std::set<std::uint32_t> next(groups.begin(), groups.end());
  for (std::uint32_t g : cur) {
    if (!next.contains(g) && !filter_->erase(filter_item(g, block)))
      throw std::runtime_error("SdcStateEngine: filter erase of a live cell failed");
  }
  for (std::uint32_t g : next) {
    if (!cur.contains(g) && !filter_->insert(filter_item(g, block)))
      throw std::runtime_error(
          "SdcStateEngine: cuckoo filter saturated (more exhausted cells "
          "than the grid it was sized for)");
  }
  if (next.empty())
    exhausted_.erase(block);
  else
    cur = next;
}

std::size_t SdcStateEngine::exhausted_entries() const {
  std::size_t total = 0;
  for (const auto& [block, groups] : exhausted_) total += groups.size();
  return total;
}

std::vector<std::uint8_t> SdcStateEngine::filter_state_bytes() const {
  net::Encoder enc;
  enc.put_u8(filter_on_ ? 1 : 0);
  if (!filter_on_) return enc.take();
  put_exhausted(enc, exhausted_);
  auto table = filter_->serialize();
  enc.put_bytes(std::span<const std::uint8_t>(table.data(), table.size()));
  return enc.take();
}

std::vector<std::uint8_t> SdcStateEngine::exhausted_state_bytes() const {
  net::Encoder enc;
  enc.put_u8(filter_on_ ? 1 : 0);
  if (filter_on_) put_exhausted(enc, exhausted_);
  return enc.take();
}

void SdcStateEngine::test_inject_filter_collision(std::uint32_t group,
                                                  std::uint32_t block) {
  if (!filter_on_) throw std::logic_error("denial filter is off");
  if (!filter_->insert(filter_item(group, block)))
    throw std::runtime_error("test collision insert failed");
}

void SdcStateEngine::checkpoint() {
  if (durable()) compact();
}

void SdcStateEngine::maybe_compact() {
  const auto every = cfg_.durability.snapshot_every;
  if (every != 0 && store_ && store_->wal_records() >= every) compact();
}

void SdcStateEngine::compact() {
  store_->compact(snapshot_payload());
  // Everything dirty is now inside the sealed snapshot.
  dirty_.clear();
}

std::vector<std::uint8_t> SdcStateEngine::snapshot_payload() const {
  net::Encoder enc;
  // Configuration fingerprint: durable state is only valid under the exact
  // shape/packing/key it was written with. The two leading fields are the
  // store index of the on-disk format (always 0) and the payload layout.
  enc.put_u32(0);
  enc.put_u32(kSnapshotLayout);
  enc.put_u32(static_cast<std::uint32_t>(groups_));
  enc.put_u32(static_cast<std::uint32_t>(budget_.blocks()));
  enc.put_u32(static_cast<std::uint32_t>(codec_.slots()));
  enc.put_u32(static_cast<std::uint32_t>(codec_.slot_bits()));
  enc.put_u32(static_cast<std::uint32_t>(ct_width_));
  enc.put_u64(crypto::key_fingerprint(pk_));
  enc.put_u64(reserved_floor_);

  put_ciphertexts(enc, {budget_.begin(), budget_.end()}, ct_width_);

  // One section per PU: its delta_seq guard, then its contribution cells.
  enc.put_u32(static_cast<std::uint32_t>(pus_.size()));
  for (const auto& [id, pu] : pus_) {
    enc.put_u32(id);
    enc.put_u64(pu.delta_seq);
    enc.put_u32(static_cast<std::uint32_t>(pu.cells.size()));
    for (const auto& [key, ct] : pu.cells) {
      enc.put_u64(key);
      enc.put_raw(ct.value.to_bytes_be(ct_width_));
    }
  }

  // §3.8 prefilter state: the exact exhausted map plus the cuckoo table
  // verbatim, so a recovered engine resumes with byte-identical filter
  // bytes (not merely an equivalent set — the kick history matters).
  enc.put_raw(filter_state_bytes());
  return enc.take();
}

void SdcStateEngine::restore_snapshot(const std::vector<std::uint8_t>& payload) {
  const std::size_t blocks = budget_.blocks();

  net::Decoder dec{payload};
  bool ok = dec.get_u32() == 0 && dec.get_u32() == kSnapshotLayout &&
            dec.get_u32() == groups_ && dec.get_u32() == blocks &&
            dec.get_u32() == codec_.slots() &&
            dec.get_u32() == codec_.slot_bits() && dec.get_u32() == ct_width_ &&
            dec.get_u64() == crypto::key_fingerprint(pk_);
  if (!ok)
    throw std::runtime_error(
        "SdcStateEngine: durable state was written under a different "
        "configuration (shape, packing or group key)");
  std::uint64_t floor = dec.get_u64();
  if (floor > serial_) serial_ = floor;
  if (floor > reserved_floor_) reserved_floor_ = floor;

  auto rows = get_ciphertexts(dec);
  if (rows.size() != budget_.size())
    throw std::runtime_error("SdcStateEngine: snapshot row count mismatch");
  for (std::size_t i = 0; i < rows.size(); ++i) budget_[i] = std::move(rows[i]);

  pus_.clear();
  std::uint32_t npus = dec.get_u32();
  for (std::uint32_t i = 0; i < npus; ++i) {
    auto& pu = pus_[dec.get_u32()];
    pu.delta_seq = dec.get_u64();
    std::uint32_t ncells = dec.get_u32();
    for (std::uint32_t j = 0; j < ncells; ++j) {
      std::uint64_t key = dec.get_u64();
      if ((key >> 32) >= groups_ || (key & 0xffffffffu) >= blocks)
        throw std::runtime_error("SdcStateEngine: snapshot cell out of range");
      pu.cells[key] = {bn::BigUint::from_bytes_be(dec.get_raw(ct_width_))};
    }
  }

  if ((dec.get_u8() != 0) != filter_on_)
    throw std::runtime_error(
        "SdcStateEngine: durable state was written with a different "
        "denial_filter setting");
  if (filter_on_) {
    exhausted_.clear();
    std::uint32_t nblocks = dec.get_u32();
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      std::uint32_t block = dec.get_u32();
      std::uint32_t ngroups = dec.get_u32();
      auto& groups = exhausted_[block];
      for (std::uint32_t j = 0; j < ngroups; ++j) groups.insert(dec.get_u32());
    }
    auto table = dec.get_bytes();
    filter_->deserialize(table);
  }
  dec.expect_done();
}

void SdcStateEngine::replay_record(const store::WalRecord& rec) {
  if (rec.type == kRecPuColumn) {
    auto column = PuUpdateMsg::decode(rec.payload);
    if (column.w_column.size() != groups_ || column.block >= budget_.blocks())
      throw std::runtime_error("SdcStateEngine: WAL column shape mismatch");
    fold(column.pu_id, column_cells(column), /*replace=*/true, /*live=*/false,
         pool());
  } else if (rec.type == kRecDelta) {
    auto delta = PuDeltaMsg::decode(rec.payload);
    for (const auto& cell : delta.cells) {
      if (cell.group >= groups_ || cell.block >= budget_.blocks())
        throw std::runtime_error("SdcStateEngine: WAL delta cell mismatch");
    }
    apply_delta(delta, /*live=*/false);
  } else if (rec.type == kRecExhaust) {
    if (!filter_on_)
      throw std::runtime_error(
          "SdcStateEngine: exhaustion WAL record but denial_filter is off");
    net::Decoder dec{rec.payload};
    std::uint32_t block = dec.get_u32();
    std::uint32_t count = dec.get_u32();
    std::vector<std::uint32_t> groups(count);
    for (auto& g : groups) g = dec.get_u32();
    dec.expect_done();
    if (block >= budget_.blocks())
      throw std::runtime_error("SdcStateEngine: WAL exhaustion block mismatch");
    apply_exhaust(block, groups);
  } else if (rec.type == kRecSerial) {
    net::Decoder dec{rec.payload};
    std::uint64_t floor = dec.get_u64();
    dec.expect_done();
    if (floor > serial_) serial_ = floor;
    if (floor > reserved_floor_) reserved_floor_ = floor;
  } else {
    throw std::runtime_error("SdcStateEngine: unknown WAL record type " +
                             std::to_string(rec.type));
  }
}

void SdcStateEngine::recover() {
  auto t0 = Clock::now();
  recovery_.ran = true;
  // Store index 0: the file names (shard_0.snap, shard_0.<epoch>.wal) of
  // the on-disk format.
  store_ = std::make_unique<store::ShardStore>(
      std::filesystem::path(cfg_.durability.dir), 0);
  auto rec = store_->open();
  if (rec.snapshot) {
    recovery_.from_snapshot = true;
    restore_snapshot(*rec.snapshot);
  }
  for (const auto& r : rec.wal) replay_record(r);
  recovery_.wal_records_replayed = rec.wal.size();
  recovery_.torn_tails_dropped = rec.torn_tail_dropped ? 1 : 0;
  recovery_.stale_logs_removed = rec.stale_logs_removed;
  recovery_.recover_ms = ms_since(t0);
}

std::uint64_t SdcStateEngine::wal_records() const {
  return store_ ? store_->wal_records() : 0;
}

std::uint64_t SdcStateEngine::wal_bytes() const {
  return store_ ? store_->wal_bytes() : 0;
}

std::uint64_t SdcStateEngine::snapshots_written() const {
  return store_ ? store_->snapshots_written() : 0;
}

}  // namespace pisa::core

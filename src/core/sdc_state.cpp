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

}  // namespace

SdcStateEngine::SdcStateEngine(const PisaConfig& cfg,
                               crypto::PaillierPublicKey group_pk,
                               watch::QMatrix e_matrix,
                               const std::array<std::uint8_t, 32>& filter_key)
    : cfg_(cfg), codec_(cfg.slot_bits(), cfg.pack_slots),
      pk_(std::move(group_pk)), e_matrix_(std::move(e_matrix)),
      map_(cfg.channel_groups(), cfg.num_shards),
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
  shards_.resize(map_.shards());
  if (filter_on_) {
    // Per-shard filters so recovery replays each shard's own kRecExhaust
    // stream against its own table — a global filter would interleave
    // shard mutations and lose byte-identical replay.
    // Sized for the shard's whole group-range × blocks grid (always
    // sufficient); a 1/1024 false-positive target only trims wasted
    // exact-set probes — the exact set makes false positives harmless.
    crypto::CuckooParams params;
    params.fingerprint_bits = crypto::cuckoo_fingerprint_bits(1.0 / 1024.0);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      params.capacity = map_.size(s) * blocks;
      shards_[s].filter =
          std::make_unique<crypto::CuckooFilter>(filter_key_, params);
    }
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

void SdcStateEngine::apply_pu_update(const PuUpdateMsg& update) {
  if (update.w_column.size() != map_.groups())
    throw std::invalid_argument(
        "SdcStateEngine: W column must have one ciphertext per channel group");
  if (update.block >= budget_.blocks())
    throw std::out_of_range("SdcStateEngine: PU block outside the service area");

  if (map_.shards() == 1) {
    // Single-lane fast path: the inner column kernels take the pool, which
    // is exactly the pre-sharding SdcServer call sequence.
    apply_slice(0, update, pool());
  } else {
    // One lane per shard; each writes only its own contiguous row range of
    // budget_ and its own WAL, so lanes share nothing.
    exec::parallel_for(pool(), 0, map_.shards(),
                       [&](std::size_t s) { apply_slice(s, update, nullptr); });
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) maybe_compact(s);
}

void SdcStateEngine::apply_slice(std::size_t s, const PuUpdateMsg& update,
                                 exec::ThreadPool* inner) {
  auto& sh = shards_[s];
  const std::size_t g0 = map_.begin(s), n = map_.size(s);

  PuUpdateMsg slice;
  slice.pu_id = update.pu_id;
  slice.block = update.block;
  slice.w_column.assign(update.w_column.begin() + static_cast<std::ptrdiff_t>(g0),
                        update.w_column.begin() + static_cast<std::ptrdiff_t>(g0 + n));

  // Journal before apply: once the record is on disk the update counts as
  // applied — recovery replays it, and a crash between this append and the
  // fold below cannot lose or double-count the column.
  if (sh.store) sh.store->append(kRecPuColumn, slice.encode(ct_width_));

  auto it = sh.columns.find(update.pu_id);
  if (inner) {
    // n == groups here (single shard): full-column kernels, pool-parallel.
    if (it != sh.columns.end())
      sub_column(budget_, it->second.block, it->second.w_column, pk_, inner);
    add_column(budget_, slice.block, slice.w_column, pk_, inner);
  } else {
    if (it != sh.columns.end())
      sub_column_range(budget_, it->second.block, it->second.w_column, pk_, g0,
                       g0 + n);
    add_column_range(budget_, slice.block, slice.w_column, pk_, g0, g0 + n);
  }
  // A full column resets the PU's contribution wholesale, so any §3.9 delta
  // cells accumulated on top of the previous column are retracted with it.
  if (it != sh.columns.end()) {
    for (std::size_t g = g0; g < g0 + n; ++g)
      sh.dirty.insert(cell_key(static_cast<std::uint32_t>(g), it->second.block));
  }
  retract_deltas(s, update.pu_id);
  for (std::size_t g = g0; g < g0 + n; ++g)
    sh.dirty.insert(cell_key(static_cast<std::uint32_t>(g), slice.block));
  sh.columns.insert_or_assign(update.pu_id, std::move(slice));
}

void SdcStateEngine::retract_deltas(std::size_t s, std::uint32_t pu_id) {
  auto& sh = shards_[s];
  auto it = sh.deltas.find(pu_id);
  if (it == sh.deltas.end()) return;
  const std::size_t blocks = budget_.blocks();
  for (const auto& [key, ct] : it->second) {
    const std::size_t g = key >> 32, b = key & 0xffffffffu;
    auto& entry = budget_[g * blocks + b];
    entry = pk_.sub(entry, ct);
    sh.dirty.insert(key);
  }
  sh.deltas.erase(it);
}

void SdcStateEngine::apply_pu_delta(const PuDeltaMsg& delta) {
  if (delta.cells.empty())
    throw std::invalid_argument("SdcStateEngine: empty delta");
  if (delta.delta_seq == 0)
    throw std::invalid_argument("SdcStateEngine: zero delta_seq");
  std::set<std::uint64_t> seen;
  for (const auto& cell : delta.cells) {
    if (cell.group >= map_.groups())
      throw std::invalid_argument(
          "SdcStateEngine: delta cell group out of range");
    if (cell.block >= budget_.blocks())
      throw std::out_of_range("SdcStateEngine: delta cell block out of range");
    if (!seen.insert(cell_key(cell.group, cell.block)).second)
      throw std::invalid_argument("SdcStateEngine: duplicate delta cell");
  }

  if (map_.shards() == 1) {
    apply_delta_slice(0, delta, /*live=*/true);
  } else {
    // Per-shard lanes, like apply_pu_update: each lane slices out its own
    // cells and touches only its own rows, WAL and seq map. Shards with no
    // cells in this delta do nothing — their seq guard stays behind, which
    // is safe because a seq only orders the deltas that carry cells for
    // that shard (delivery is ordered per PU).
    exec::parallel_for(pool(), 0, map_.shards(), [&](std::size_t s) {
      const std::size_t g0 = map_.begin(s), g1 = map_.end(s);
      PuDeltaMsg slice;
      slice.pu_id = delta.pu_id;
      slice.delta_seq = delta.delta_seq;
      for (const auto& cell : delta.cells)
        if (cell.group >= g0 && cell.group < g1) slice.cells.push_back(cell);
      if (!slice.cells.empty()) apply_delta_slice(s, slice, /*live=*/true);
    });
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) maybe_compact(s);
}

void SdcStateEngine::apply_delta_slice(std::size_t s, const PuDeltaMsg& slice,
                                       bool live) {
  auto& sh = shards_[s];
  auto seq_it = sh.delta_seqs.find(slice.pu_id);
  // Exactly-once under ordered at-least-once delivery: a re-delivered (or
  // crash-torn, partially applied) delta is rejected by exactly the shards
  // that already journaled it and applied by the rest.
  if (seq_it != sh.delta_seqs.end() && slice.delta_seq <= seq_it->second)
    return;

  // Journal before apply, like the column folds (replay reads the record
  // that is already on disk).
  if (live && sh.store) sh.store->append(kRecDelta, slice.encode(ct_width_));

  const std::size_t blocks = budget_.blocks();
  auto& acc = sh.deltas[slice.pu_id];
  for (const auto& cell : slice.cells) {
    const std::uint64_t key = cell_key(cell.group, cell.block);
    auto& entry = budget_[cell.group * blocks + cell.block];
    entry = pk_.add(entry, cell.delta);
    auto [pos, inserted] = acc.try_emplace(key, cell.delta);
    if (!inserted) pos->second = pk_.add(pos->second, cell.delta);
    if (live) sh.dirty.insert(key);
  }
  if (live) sh.delta_cells_folded += slice.cells.size();
  sh.delta_seqs[slice.pu_id] = slice.delta_seq;
}

void SdcStateEngine::recompute() {
  budget_ = encrypt_matrix_packed_deterministic(e_matrix_, pk_, codec_,
                                                /*tail_fill=*/1, pool());
  const std::size_t blocks = budget_.blocks();
  auto add_deltas = [&](std::size_t s) {
    for (const auto& [id, cells] : shards_[s].deltas)
      for (const auto& [key, ct] : cells) {
        const std::size_t g = key >> 32, b = key & 0xffffffffu;
        budget_[g * blocks + b] = pk_.add(budget_[g * blocks + b], ct);
      }
  };
  if (map_.shards() == 1) {
    for (const auto& [id, col] : shards_[0].columns)
      add_column(budget_, col.block, col.w_column, pk_, pool());
    add_deltas(0);
  } else {
    // Per-shard lanes again; Paillier addition is commutative over
    // canonical residues, so per-shard column order cannot change bytes.
    exec::parallel_for(pool(), 0, map_.shards(), [&](std::size_t s) {
      const std::size_t g0 = map_.begin(s), n = map_.size(s);
      for (const auto& [id, col] : shards_[s].columns)
        add_column_range(budget_, col.block, col.w_column, pk_, g0, g0 + n);
      add_deltas(s);
    });
  }
}

std::uint64_t SdcStateEngine::next_serial() {
  ++serial_;
  if (durable() && serial_ > reserved_floor_) {
    do {
      reserved_floor_ += cfg_.durability.serial_reserve;
    } while (reserved_floor_ < serial_);
    net::Encoder enc;
    enc.put_u64(reserved_floor_);
    // Shard 0 is the serial authority; a recovered engine resumes at the
    // floor, skipping at most the unissued tail of the last chunk.
    shards_[0].store->append(kRecSerial, enc.take());
  }
  return serial_;
}

std::optional<std::uint32_t> SdcStateEngine::pu_block(
    std::uint32_t pu_id) const {
  const auto& cols = shards_.front().columns;
  auto it = cols.find(pu_id);
  if (it == cols.end()) return std::nullopt;
  return it->second.block;
}

SdcStateEngine::FilterProbe SdcStateEngine::probe_exhausted(
    std::uint32_t group, std::uint32_t block) const {
  FilterProbe probe;
  if (!filter_on_ || group >= map_.groups()) return probe;
  const auto& sh = shards_[map_.shard_of(group)];
  if (!sh.filter->contains(filter_item(group, block))) return probe;
  probe.cuckoo_hit = true;
  auto it = sh.exhausted.find(block);
  probe.confirmed = it != sh.exhausted.end() && it->second.contains(group);
  return probe;
}

void SdcStateEngine::set_block_exhaustion(
    std::uint32_t block, const std::vector<std::uint32_t>& groups) {
  if (!filter_on_) return;
  if (block >= budget_.blocks())
    throw std::out_of_range("SdcStateEngine: exhaustion block out of range");
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t g0 = map_.begin(s), g1 = map_.end(s);
    std::vector<std::uint32_t> mine;
    for (std::uint32_t g : groups)
      if (g >= g0 && g < g1) mine.push_back(g);
    std::sort(mine.begin(), mine.end());
    mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
    replace_block_exhaustion(s, block, mine);
  }
}

void SdcStateEngine::update_block_exhaustion(
    std::uint32_t block, const std::vector<std::uint32_t>& probed,
    const std::vector<std::uint32_t>& exhausted) {
  if (!filter_on_) return;
  if (block >= budget_.blocks())
    throw std::out_of_range("SdcStateEngine: exhaustion block out of range");
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto& sh = shards_[s];
    const std::size_t g0 = map_.begin(s), g1 = map_.end(s);
    // Start from the recorded set; only probed groups may change state.
    std::set<std::uint32_t> next;
    if (auto it = sh.exhausted.find(block); it != sh.exhausted.end())
      next = it->second;
    for (std::uint32_t g : probed)
      if (g >= g0 && g < g1) next.erase(g);
    for (std::uint32_t g : exhausted)
      if (g >= g0 && g < g1) next.insert(g);
    replace_block_exhaustion(
        s, block, std::vector<std::uint32_t>(next.begin(), next.end()));
  }
}

void SdcStateEngine::replace_block_exhaustion(
    std::size_t s, std::uint32_t block,
    const std::vector<std::uint32_t>& mine) {
  auto& sh = shards_[s];
  auto it = sh.exhausted.find(block);
  const bool unchanged =
      it == sh.exhausted.end()
          ? mine.empty()
          : std::equal(mine.begin(), mine.end(), it->second.begin(),
                       it->second.end());
  if (unchanged) return;

  // Journal before apply, like the PU folds: the record carries the full
  // new set so replay applies the identical erase/insert diff in the
  // identical order against the same prior table.
  if (sh.store) {
    net::Encoder enc;
    enc.put_u32(block);
    enc.put_u32(static_cast<std::uint32_t>(mine.size()));
    for (std::uint32_t g : mine) enc.put_u32(g);
    sh.store->append(kRecExhaust, enc.take());
  }
  apply_exhaust(s, block, mine);
  maybe_compact(s);
}

void SdcStateEngine::apply_exhaust(std::size_t s, std::uint32_t block,
                                   const std::vector<std::uint32_t>& groups) {
  auto& sh = shards_[s];
  auto& cur = sh.exhausted[block];
  const std::set<std::uint32_t> next(groups.begin(), groups.end());
  for (std::uint32_t g : cur) {
    if (!next.contains(g) && !sh.filter->erase(filter_item(g, block)))
      throw std::runtime_error("SdcStateEngine: filter erase of a live cell failed");
  }
  for (std::uint32_t g : next) {
    if (!cur.contains(g) && !sh.filter->insert(filter_item(g, block)))
      throw std::runtime_error(
          "SdcStateEngine: cuckoo filter saturated (more exhausted cells "
          "than the shard's grid it was sized for)");
  }
  if (next.empty())
    sh.exhausted.erase(block);
  else
    cur = next;
}

std::size_t SdcStateEngine::exhausted_entries() const {
  std::size_t total = 0;
  for (const auto& sh : shards_)
    for (const auto& [block, groups] : sh.exhausted) total += groups.size();
  return total;
}

std::vector<std::uint8_t> SdcStateEngine::filter_state_bytes() const {
  net::Encoder enc;
  enc.put_u8(filter_on_ ? 1 : 0);
  if (!filter_on_) return enc.take();
  for (const auto& sh : shards_) {
    enc.put_u32(static_cast<std::uint32_t>(sh.exhausted.size()));
    for (const auto& [block, groups] : sh.exhausted) {
      enc.put_u32(block);
      enc.put_u32(static_cast<std::uint32_t>(groups.size()));
      for (std::uint32_t g : groups) enc.put_u32(g);
    }
    auto table = sh.filter->serialize();
    enc.put_bytes(std::span<const std::uint8_t>(table.data(), table.size()));
  }
  return enc.take();
}

std::vector<std::uint8_t> SdcStateEngine::exhausted_state_bytes() const {
  net::Encoder enc;
  enc.put_u8(filter_on_ ? 1 : 0);
  if (!filter_on_) return enc.take();
  for (const auto& sh : shards_) {
    enc.put_u32(static_cast<std::uint32_t>(sh.exhausted.size()));
    for (const auto& [block, groups] : sh.exhausted) {
      enc.put_u32(block);
      enc.put_u32(static_cast<std::uint32_t>(groups.size()));
      for (std::uint32_t g : groups) enc.put_u32(g);
    }
  }
  return enc.take();
}

void SdcStateEngine::test_inject_filter_collision(std::uint32_t group,
                                                  std::uint32_t block) {
  if (!filter_on_) throw std::logic_error("denial filter is off");
  auto& sh = shards_[map_.shard_of(group)];
  if (!sh.filter->insert(filter_item(group, block)))
    throw std::runtime_error("test collision insert failed");
}

void SdcStateEngine::checkpoint() {
  if (!durable()) return;
  exec::parallel_for(pool(), 0, shards_.size(),
                     [&](std::size_t s) { compact_shard(s); });
}

void SdcStateEngine::maybe_compact(std::size_t s) {
  const auto every = cfg_.durability.snapshot_every;
  if (every == 0 || !shards_[s].store) return;
  if (shards_[s].store->wal_records() >= every) compact_shard(s);
}

void SdcStateEngine::compact_shard(std::size_t s) {
  shards_[s].store->compact(snapshot_payload(s));
  // Everything dirty is now inside the sealed snapshot.
  shards_[s].dirty.clear();
}

std::vector<std::uint8_t> SdcStateEngine::snapshot_payload(std::size_t s) const {
  const auto& sh = shards_[s];
  const std::size_t g0 = map_.begin(s), n = map_.size(s);
  const std::size_t blocks = budget_.blocks();

  net::Encoder enc;
  // Configuration fingerprint: durable state is only valid under the exact
  // shape/packing/sharding/key it was written with.
  enc.put_u32(static_cast<std::uint32_t>(s));
  enc.put_u32(static_cast<std::uint32_t>(map_.shards()));
  enc.put_u32(static_cast<std::uint32_t>(map_.groups()));
  enc.put_u32(static_cast<std::uint32_t>(blocks));
  enc.put_u32(static_cast<std::uint32_t>(codec_.slots()));
  enc.put_u32(static_cast<std::uint32_t>(codec_.slot_bits()));
  enc.put_u32(static_cast<std::uint32_t>(ct_width_));
  enc.put_u64(crypto::key_fingerprint(pk_));
  enc.put_u64(reserved_floor_);

  std::vector<crypto::PaillierCiphertext> rows;
  rows.reserve(n * blocks);
  for (std::size_t g = g0; g < g0 + n; ++g)
    for (std::size_t b = 0; b < blocks; ++b)
      rows.push_back(budget_[g * blocks + b]);
  put_ciphertexts(enc, rows, ct_width_);

  enc.put_u32(static_cast<std::uint32_t>(sh.columns.size()));
  for (const auto& [id, col] : sh.columns) {
    enc.put_u32(id);
    enc.put_u32(col.block);
    put_ciphertexts(enc, col.w_column, ct_width_);
  }

  // §3.9 delta state: per PU the last applied delta_seq (the exactly-once
  // guard must survive compaction even when a full column cleared the
  // cells) plus the net accumulated delta ciphertext per cell.
  enc.put_u32(static_cast<std::uint32_t>(sh.delta_seqs.size()));
  for (const auto& [id, seq] : sh.delta_seqs) {
    enc.put_u32(id);
    enc.put_u64(seq);
    auto dit = sh.deltas.find(id);
    const std::size_t ncells = dit == sh.deltas.end() ? 0 : dit->second.size();
    enc.put_u32(static_cast<std::uint32_t>(ncells));
    if (dit != sh.deltas.end()) {
      for (const auto& [key, ct] : dit->second) {
        enc.put_u64(key);
        enc.put_raw(ct.value.to_bytes_be(ct_width_));
      }
    }
  }

  // §3.8 prefilter state: the exact exhausted map plus the cuckoo table
  // verbatim, so a recovered shard resumes with byte-identical filter bytes
  // (not merely an equivalent set — the kick history matters).
  enc.put_u8(filter_on_ ? 1 : 0);
  if (filter_on_) {
    enc.put_u32(static_cast<std::uint32_t>(sh.exhausted.size()));
    for (const auto& [block, groups] : sh.exhausted) {
      enc.put_u32(block);
      enc.put_u32(static_cast<std::uint32_t>(groups.size()));
      for (std::uint32_t g : groups) enc.put_u32(g);
    }
    auto table = sh.filter->serialize();
    enc.put_bytes(std::span<const std::uint8_t>(table.data(), table.size()));
  }
  return enc.take();
}

void SdcStateEngine::restore_snapshot(std::size_t s,
                                      const std::vector<std::uint8_t>& payload) {
  auto& sh = shards_[s];
  const std::size_t g0 = map_.begin(s), n = map_.size(s);
  const std::size_t blocks = budget_.blocks();

  net::Decoder dec{payload};
  bool ok = dec.get_u32() == s && dec.get_u32() == map_.shards() &&
            dec.get_u32() == map_.groups() && dec.get_u32() == blocks &&
            dec.get_u32() == codec_.slots() &&
            dec.get_u32() == codec_.slot_bits() && dec.get_u32() == ct_width_ &&
            dec.get_u64() == crypto::key_fingerprint(pk_);
  if (!ok)
    throw std::runtime_error(
        "SdcStateEngine: durable state was written under a different "
        "configuration (shape, packing, shard count or group key)");
  std::uint64_t floor = dec.get_u64();
  if (floor > serial_) serial_ = floor;
  if (floor > reserved_floor_) reserved_floor_ = floor;

  auto rows = get_ciphertexts(dec);
  if (rows.size() != n * blocks)
    throw std::runtime_error("SdcStateEngine: snapshot row count mismatch");
  for (std::size_t i = 0; i < rows.size(); ++i)
    budget_[(g0 + i / blocks) * blocks + (i % blocks)] = std::move(rows[i]);

  std::uint32_t count = dec.get_u32();
  sh.columns.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    PuUpdateMsg col;
    col.pu_id = dec.get_u32();
    col.block = dec.get_u32();
    col.w_column = get_ciphertexts(dec);
    if (col.w_column.size() != n)
      throw std::runtime_error("SdcStateEngine: snapshot column size mismatch");
    sh.columns.insert_or_assign(col.pu_id, std::move(col));
  }

  sh.deltas.clear();
  sh.delta_seqs.clear();
  std::uint32_t npus = dec.get_u32();
  for (std::uint32_t i = 0; i < npus; ++i) {
    std::uint32_t pu_id = dec.get_u32();
    std::uint64_t seq = dec.get_u64();
    std::uint32_t ncells = dec.get_u32();
    sh.delta_seqs[pu_id] = seq;
    for (std::uint32_t j = 0; j < ncells; ++j) {
      std::uint64_t key = dec.get_u64();
      const std::size_t g = key >> 32, b = key & 0xffffffffu;
      if (g < g0 || g >= g0 + n || b >= blocks)
        throw std::runtime_error(
            "SdcStateEngine: snapshot delta cell out of shard range");
      sh.deltas[pu_id][key] = {bn::BigUint::from_bytes_be(dec.get_raw(ct_width_))};
    }
  }

  if ((dec.get_u8() != 0) != filter_on_)
    throw std::runtime_error(
        "SdcStateEngine: durable state was written with a different "
        "denial_filter setting");
  if (filter_on_) {
    sh.exhausted.clear();
    std::uint32_t nblocks = dec.get_u32();
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      std::uint32_t block = dec.get_u32();
      std::uint32_t ngroups = dec.get_u32();
      auto& groups = sh.exhausted[block];
      for (std::uint32_t j = 0; j < ngroups; ++j) groups.insert(dec.get_u32());
    }
    auto table = dec.get_bytes();
    sh.filter->deserialize(table);
  }
  dec.expect_done();
}

void SdcStateEngine::replay_record(std::size_t s, const store::WalRecord& rec) {
  const std::size_t g0 = map_.begin(s), n = map_.size(s);
  if (rec.type == kRecPuColumn) {
    auto slice = PuUpdateMsg::decode(rec.payload);
    if (slice.w_column.size() != n || slice.block >= budget_.blocks())
      throw std::runtime_error("SdcStateEngine: WAL column shape mismatch");
    auto& sh = shards_[s];
    auto it = sh.columns.find(slice.pu_id);
    if (it != sh.columns.end())
      sub_column_range(budget_, it->second.block, it->second.w_column, pk_, g0,
                       g0 + n);
    add_column_range(budget_, slice.block, slice.w_column, pk_, g0, g0 + n);
    // Mirror the live path: a full column retracts the PU's accumulated
    // §3.9 delta cells along with its previous column.
    retract_deltas(s, slice.pu_id);
    sh.columns.insert_or_assign(slice.pu_id, std::move(slice));
  } else if (rec.type == kRecDelta) {
    auto slice = PuDeltaMsg::decode(rec.payload);
    for (const auto& cell : slice.cells) {
      if (cell.group < g0 || cell.group >= g0 + n ||
          cell.block >= budget_.blocks())
        throw std::runtime_error("SdcStateEngine: WAL delta cell mismatch");
    }
    apply_delta_slice(s, slice, /*live=*/false);
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
    apply_exhaust(s, block, groups);
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
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    auto& sh = shards_[s];
    sh.store = std::make_unique<store::ShardStore>(
        std::filesystem::path(cfg_.durability.dir), s);
    auto rec = sh.store->open();
    if (rec.snapshot) {
      recovery_.from_snapshot = true;
      restore_snapshot(s, *rec.snapshot);
    }
    for (const auto& r : rec.wal) replay_record(s, r);
    recovery_.wal_records_replayed += rec.wal.size();
    recovery_.torn_tails_dropped += rec.torn_tail_dropped ? 1 : 0;
    recovery_.stale_logs_removed += rec.stale_logs_removed;
  }
  recovery_.recover_ms = ms_since(t0);
}

std::uint64_t SdcStateEngine::wal_records() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_)
    if (sh.store) total += sh.store->wal_records();
  return total;
}

std::uint64_t SdcStateEngine::wal_bytes() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_)
    if (sh.store) total += sh.store->wal_bytes();
  return total;
}

std::uint64_t SdcStateEngine::snapshots_written() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_)
    if (sh.store) total += sh.store->snapshots_written();
  return total;
}

std::size_t SdcStateEngine::dirty_cells() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh.dirty.size();
  return total;
}

std::vector<std::uint64_t> SdcStateEngine::dirty_cells(std::size_t shard) const {
  const auto& d = shards_.at(shard).dirty;
  return {d.begin(), d.end()};
}

std::uint64_t SdcStateEngine::delta_cells_folded() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh.delta_cells_folded;
  return total;
}

}  // namespace pisa::core

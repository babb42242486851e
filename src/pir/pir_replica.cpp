#include "pir/pir_replica.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "exec/thread_pool.hpp"
#include "net/bus.hpp"
#include "net/codec.hpp"

namespace pisa::pir {

PirReplica::PirReplica(watch::QMatrix e_matrix, std::size_t pack_slots,
                       const PirDurability& durability)
    : e_(std::move(e_matrix)), pack_slots_(pack_slots == 0 ? 1 : pack_slots),
      n_(e_), db_(e_.channels(), e_.blocks()) {
  for (std::size_t c = 0; c < n_.channels(); ++c)
    for (std::size_t b = 0; b < n_.blocks(); ++b)
      db_.set_cell(c, b, n_.at(radio::ChannelId{static_cast<std::uint32_t>(c)},
                               radio::BlockId{static_cast<std::uint32_t>(b)}));
  if (durability.enabled) recover(durability);
}

void PirReplica::fold_cell(std::size_t channel, std::size_t block,
                           std::int64_t delta) {
  if (delta == 0) return;
  auto& cell = n_.at(radio::ChannelId{static_cast<std::uint32_t>(channel)},
                     radio::BlockId{static_cast<std::uint32_t>(block)});
  cell += delta;
  db_.set_cell(channel, block, cell);
  ++cells_refreshed_;
}

void PirReplica::apply(const PirUpdateMsg& update, bool journal) {
  if (update.block >= n_.blocks())
    throw std::invalid_argument("PirReplica: update block out of range");
  if (update.w_column.size() != n_.channels())
    throw std::invalid_argument("PirReplica: update column shape mismatch");
  if (journal && store_) store_->append(kRecPirColumn, update.encode());

  // Diff-proportional refresh: retract the stored column's nonzero cells,
  // fold the incoming ones — only rows whose budget actually moved are
  // rewritten (both sides of a (group, block) cell key, §3.9 discipline).
  auto it = columns_.find(update.pu_id);
  if (it != columns_.end()) {
    for (std::size_t c = 0; c < it->second.values.size(); ++c)
      fold_cell(c, it->second.block, -it->second.values[c]);
  }
  for (std::size_t c = 0; c < update.w_column.size(); ++c)
    fold_cell(c, update.block, update.w_column[c]);
  columns_[update.pu_id] = Column{update.block, update.w_column};
  ++version_;

  if (journal && store_ && snapshot_every_ > 0 &&
      store_->wal_records() >= snapshot_every_)
    checkpoint();
}

void PirReplica::apply_update(const PirUpdateMsg& update) {
  apply(update, /*journal=*/true);
}

PirReplyMsg PirReplica::answer(const PirQueryMsg& query,
                               exec::ThreadPool* pool) const {
  if (query.db_rows != db_.rows())
    throw std::invalid_argument("PirReplica: query row count mismatch");
  PirReplyMsg reply;
  reply.request_id = query.request_id;
  reply.db_version = version_;
  reply.row_bytes = static_cast<std::uint32_t>(db_.row_bytes());
  reply.row_data = db_.scan(query.share_data, pool);
  return reply;
}

std::vector<std::uint8_t> PirReplica::snapshot_payload() const {
  net::Encoder enc;
  enc.put_u32(static_cast<std::uint32_t>(n_.channels()));
  enc.put_u32(static_cast<std::uint32_t>(n_.blocks()));
  enc.put_u32(static_cast<std::uint32_t>(pack_slots_));
  enc.put_u64(version_);
  enc.put_u32(static_cast<std::uint32_t>(columns_.size()));
  for (const auto& [pu_id, col] : columns_) {
    enc.put_u32(pu_id);
    enc.put_u32(col.block);
    for (std::int64_t v : col.values) enc.put_i64(v);
  }
  return enc.take();
}

void PirReplica::restore_snapshot(const std::vector<std::uint8_t>& payload) {
  net::Decoder dec{payload};
  if (dec.get_u32() != n_.channels() || dec.get_u32() != n_.blocks() ||
      dec.get_u32() != pack_slots_)
    throw std::runtime_error(
        "PirReplica: durable state written under a different configuration");
  version_ = dec.get_u64();
  std::uint32_t count = dec.get_u32();
  columns_.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t pu_id = dec.get_u32();
    Column col;
    col.block = dec.get_u32();
    col.values.resize(n_.channels());
    for (auto& v : col.values) v = dec.get_i64();
    columns_[pu_id] = std::move(col);
  }
  dec.expect_done();
  // Full rebuild: N = E + Σ columns, then every database row. Produces the
  // same bytes the incremental path maintained (pads are never written), so
  // snapshot recovery is byte-identical to the pre-crash database.
  n_ = e_;
  for (const auto& [pu_id, col] : columns_) {
    for (std::size_t c = 0; c < col.values.size(); ++c)
      n_.at(radio::ChannelId{static_cast<std::uint32_t>(c)},
            radio::BlockId{col.block}) += col.values[c];
  }
  for (std::size_t c = 0; c < n_.channels(); ++c)
    for (std::size_t b = 0; b < n_.blocks(); ++b)
      db_.set_cell(c, b, n_.at(radio::ChannelId{static_cast<std::uint32_t>(c)},
                               radio::BlockId{static_cast<std::uint32_t>(b)}));
}

void PirReplica::recover(const PirDurability& durability) {
  snapshot_every_ = durability.snapshot_every;
  store_ = std::make_unique<store::ShardStore>(durability.dir, 0);
  auto recovered = store_->open();
  if (recovered.snapshot) restore_snapshot(*recovered.snapshot);
  for (const auto& rec : recovered.wal) {
    if (rec.type != kRecPirColumn)
      throw std::runtime_error("PirReplica: unknown WAL record type");
    apply(PirUpdateMsg::decode(rec.payload), /*journal=*/false);
  }
}

void PirReplica::checkpoint() {
  if (!store_) return;
  store_->compact(snapshot_payload());
}

PirServer::PirServer(watch::QMatrix e_matrix, std::size_t pack_slots,
                     const PirDurability& durability)
    : replica_(std::move(e_matrix), pack_slots, durability) {}

void PirServer::set_thread_pool(std::shared_ptr<exec::ThreadPool> pool) {
  exec_ = std::move(pool);
}

void PirServer::attach(net::Transport& net, const std::string& name) {
  net.register_endpoint(name, [this, &net, name](const net::Message& msg) {
    handle(net, name, msg);
  });
}

void PirServer::handle(net::Transport& net, const std::string& name,
                       const net::Message& msg) {
  if (!seen_frames_.first_time(msg.from, msg.net_seq)) return;
  try {
    if (msg.type == kMsgPirUpdate) {
      replica_.apply_update(PirUpdateMsg::decode(msg.payload));
      ++stats_.updates;
    } else if (msg.type == kMsgPirQuery) {
      auto query = PirQueryMsg::decode(msg.payload);
      auto t0 = std::chrono::steady_clock::now();
      auto reply = replica_.answer(query, exec_.get());
      stats_.scan_last_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
      stats_.scan_total_ms += stats_.scan_last_ms;
      ++stats_.queries;
      net.send({name, msg.from, kMsgPirReply, reply.encode()});
    } else {
      throw std::invalid_argument("PirServer: unexpected message " + msg.type);
    }
  } catch (const net::DecodeError&) {
    // Hostile or corrupted payload: count and drop — a replica must never
    // crash (or reply with garbage) on untrusted bytes.
    ++stats_.rejected;
  } catch (const std::invalid_argument&) {
    ++stats_.rejected;
  }
}

}  // namespace pisa::pir

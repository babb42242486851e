#include "pir/pir_messages.hpp"

#include <string>

namespace pisa::pir {

std::string replica_name(std::size_t index) {
  return "pir_" + std::to_string(index);
}

std::vector<std::uint8_t> PirUpdateMsg::encode() const {
  net::Encoder enc;
  enc.put_u32(pu_id);
  enc.put_u32(block);
  enc.put_u32(static_cast<std::uint32_t>(w_column.size()));
  for (std::int64_t v : w_column) enc.put_i64(v);
  return enc.take();
}

PirUpdateMsg PirUpdateMsg::decode(const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  PirUpdateMsg m;
  m.pu_id = dec.get_u32();
  m.block = dec.get_u32();
  std::uint32_t count = dec.get_u32();
  if (count == 0) throw net::DecodeError("PirUpdateMsg: empty column");
  if (static_cast<std::uint64_t>(count) * 8 > dec.remaining())
    throw net::DecodeError("PirUpdateMsg: column exceeds remaining input");
  m.w_column.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) m.w_column.push_back(dec.get_i64());
  dec.expect_done();
  return m;
}

std::vector<std::uint8_t> PirQueryMsg::encode() const {
  net::Encoder enc;
  enc.put_u32(su_id);
  enc.put_u64(request_id);
  enc.put_u32(db_rows);
  enc.put_u32(static_cast<std::uint32_t>(share_count()));
  enc.put_raw(share_data);
  return enc.take();
}

PirQueryMsg PirQueryMsg::decode(const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  PirQueryMsg m;
  m.su_id = dec.get_u32();
  m.request_id = dec.get_u64();
  m.db_rows = dec.get_u32();
  if (m.db_rows == 0 || m.db_rows > kMaxRows)
    throw net::DecodeError("PirQueryMsg: implausible db_rows");
  std::uint32_t count = dec.get_u32();
  if (count == 0) throw net::DecodeError("PirQueryMsg: no shares");
  if (count > kMaxShares)
    throw net::DecodeError("PirQueryMsg: implausible share count");
  const std::size_t sb = share_bytes(m.db_rows);
  if (static_cast<std::uint64_t>(count) * sb > dec.remaining())
    throw net::DecodeError("PirQueryMsg: shares exceed remaining input");
  auto raw = dec.get_raw(count * sb);
  m.share_data.assign(raw.begin(), raw.end());
  // Unused tail bits of every share must be zero: the scan kernel trusts
  // them, and allowing garbage there would give a hostile sender a covert
  // channel through an otherwise shape-checked message.
  const std::size_t tail_bits = sb * 8 - m.db_rows;
  if (tail_bits > 0) {
    const std::uint8_t mask =
        static_cast<std::uint8_t>(0xFFu << (8 - tail_bits));
    for (std::uint32_t i = 0; i < count; ++i)
      if ((m.share_data[(i + 1) * sb - 1] & mask) != 0)
        throw net::DecodeError("PirQueryMsg: nonzero tail bits in share");
  }
  dec.expect_done();
  return m;
}

std::vector<std::uint8_t> PirReplyMsg::encode() const {
  net::Encoder enc;
  enc.put_u64(request_id);
  enc.put_u64(db_version);
  enc.put_u32(row_bytes);
  enc.put_u32(static_cast<std::uint32_t>(row_count()));
  enc.put_raw(row_data);
  return enc.take();
}

PirReplyMsg PirReplyMsg::decode(const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  PirReplyMsg m;
  m.request_id = dec.get_u64();
  m.db_version = dec.get_u64();
  m.row_bytes = dec.get_u32();
  if (m.row_bytes == 0 || m.row_bytes > kMaxRowBytes || m.row_bytes % 64 != 0)
    throw net::DecodeError("PirReplyMsg: implausible row width");
  std::uint32_t count = dec.get_u32();
  if (count == 0) throw net::DecodeError("PirReplyMsg: no rows");
  if (count > kMaxRowsPerReply)
    throw net::DecodeError("PirReplyMsg: implausible row count");
  if (static_cast<std::uint64_t>(count) * m.row_bytes > dec.remaining())
    throw net::DecodeError("PirReplyMsg: rows exceed remaining input");
  auto raw = dec.get_raw(std::size_t{count} * m.row_bytes);
  m.row_data.assign(raw.begin(), raw.end());
  dec.expect_done();
  return m;
}

}  // namespace pisa::pir

#include "core/messages.hpp"

#include <stdexcept>

namespace pisa::core {

void put_ciphertexts(net::Encoder& enc,
                     const std::vector<crypto::PaillierCiphertext>& cts,
                     std::size_t ct_width_bytes) {
  enc.put_u32(static_cast<std::uint32_t>(cts.size()));
  enc.put_u32(static_cast<std::uint32_t>(ct_width_bytes));
  for (const auto& ct : cts) {
    // Fixed width: no per-entry length prefix needed.
    enc.put_raw(ct.value.to_bytes_be(ct_width_bytes));
  }
}

std::vector<crypto::PaillierCiphertext> get_ciphertexts(net::Decoder& dec) {
  std::uint32_t count = dec.get_u32();
  std::uint32_t width = dec.get_u32();
  if (width == 0 || width > (1u << 20))
    throw net::DecodeError("get_ciphertexts: implausible ciphertext width");
  // Bound allocations by the actual input size before reserving anything —
  // a mutated count field must not become a giant allocation.
  if (static_cast<std::uint64_t>(count) * width > dec.remaining())
    throw net::DecodeError("get_ciphertexts: count exceeds remaining input");
  std::vector<crypto::PaillierCiphertext> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    out.push_back({bn::BigUint::from_bytes_be(dec.get_raw(width))});
  }
  return out;
}

std::vector<std::uint8_t> PuUpdateMsg::encode(std::size_t ct_width) const {
  net::Encoder enc;
  enc.put_u32(pu_id);
  enc.put_u32(block);
  put_ciphertexts(enc, w_column, ct_width);
  return enc.take();
}

PuUpdateMsg PuUpdateMsg::decode(const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  PuUpdateMsg m;
  m.pu_id = dec.get_u32();
  m.block = dec.get_u32();
  m.w_column = get_ciphertexts(dec);
  dec.expect_done();
  return m;
}

std::vector<std::uint8_t> PuDeltaMsg::encode(std::size_t ct_width) const {
  net::Encoder enc;
  enc.put_u32(pu_id);
  enc.put_u64(delta_seq);
  enc.put_u32(static_cast<std::uint32_t>(cells.size()));
  enc.put_u32(static_cast<std::uint32_t>(ct_width));
  for (const auto& cell : cells) {
    enc.put_u32(cell.group);
    enc.put_u32(cell.block);
    enc.put_raw(cell.delta.value.to_bytes_be(ct_width));
  }
  return enc.take();
}

PuDeltaMsg PuDeltaMsg::decode(const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  PuDeltaMsg m;
  m.pu_id = dec.get_u32();
  m.delta_seq = dec.get_u64();
  if (m.delta_seq == 0)
    throw net::DecodeError("PuDeltaMsg: zero delta_seq");
  std::uint32_t count = dec.get_u32();
  std::uint32_t width = dec.get_u32();
  if (count == 0) throw net::DecodeError("PuDeltaMsg: empty delta");
  if (width == 0 || width > (1u << 20))
    throw net::DecodeError("PuDeltaMsg: implausible ciphertext width");
  // Each cell is an 8-byte coordinate header plus one fixed-width
  // ciphertext — bound the allocation by the actual input before reserving.
  if (static_cast<std::uint64_t>(count) * (8 + static_cast<std::uint64_t>(width)) >
      dec.remaining())
    throw net::DecodeError("PuDeltaMsg: cell count exceeds remaining input");
  m.cells.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Cell cell;
    cell.group = dec.get_u32();
    cell.block = dec.get_u32();
    cell.delta = {bn::BigUint::from_bytes_be(dec.get_raw(width))};
    m.cells.push_back(std::move(cell));
  }
  dec.expect_done();
  return m;
}

std::vector<std::uint8_t> SuRequestMsg::encode(std::size_t ct_width) const {
  net::Encoder enc;
  enc.put_u32(su_id);
  enc.put_u64(request_id);
  enc.put_u32(block_lo);
  enc.put_u32(block_hi);
  put_ciphertexts(enc, f, ct_width);
  return enc.take();
}

SuRequestMsg SuRequestMsg::decode(const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  SuRequestMsg m;
  m.su_id = dec.get_u32();
  m.request_id = dec.get_u64();
  m.block_lo = dec.get_u32();
  m.block_hi = dec.get_u32();
  if (m.block_hi <= m.block_lo)
    throw net::DecodeError("SuRequestMsg: empty block range");
  m.f = get_ciphertexts(dec);
  dec.expect_done();
  return m;
}

void ConvertRequestMsg::encode_into(net::Encoder& enc,
                                    std::size_t ct_width) const {
  enc.put_u64(request_id);
  enc.put_u32(su_id);
  put_ciphertexts(enc, v, ct_width);
  put_ciphertexts(enc, partials, ct_width);
}

ConvertRequestMsg ConvertRequestMsg::decode_from(net::Decoder& dec) {
  ConvertRequestMsg m;
  m.request_id = dec.get_u64();
  m.su_id = dec.get_u32();
  m.v = get_ciphertexts(dec);
  m.partials = get_ciphertexts(dec);
  if (m.v.empty()) throw net::DecodeError("ConvertRequestMsg: empty item");
  if (!m.partials.empty() && m.partials.size() != m.v.size())
    throw net::DecodeError("ConvertRequestMsg: partials/v size mismatch");
  return m;
}

std::vector<std::uint8_t> ConvertRequestMsg::encode(std::size_t ct_width) const {
  net::Encoder enc;
  encode_into(enc, ct_width);
  return enc.take();
}

ConvertRequestMsg ConvertRequestMsg::decode(const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  auto m = decode_from(dec);
  dec.expect_done();
  return m;
}

void ConvertResponseMsg::encode_into(net::Encoder& enc,
                                     std::size_t ct_width) const {
  enc.put_u64(request_id);
  put_ciphertexts(enc, x, ct_width);
}

ConvertResponseMsg ConvertResponseMsg::decode_from(net::Decoder& dec) {
  ConvertResponseMsg m;
  m.request_id = dec.get_u64();
  m.x = get_ciphertexts(dec);
  if (m.x.empty()) throw net::DecodeError("ConvertResponseMsg: empty item");
  return m;
}

std::vector<std::uint8_t> ConvertResponseMsg::encode(std::size_t ct_width) const {
  net::Encoder enc;
  encode_into(enc, ct_width);
  return enc.take();
}

ConvertResponseMsg ConvertResponseMsg::decode(const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  auto m = decode_from(dec);
  dec.expect_done();
  return m;
}

std::vector<std::uint8_t> ConvertBatchMsg::encode(std::size_t ct_width) const {
  net::Encoder enc;
  enc.put_u64(batch_id);
  enc.put_u32(static_cast<std::uint32_t>(items.size()));
  for (const auto& it : items) it.encode_into(enc, ct_width);
  return enc.take();
}

ConvertBatchMsg ConvertBatchMsg::decode(const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  ConvertBatchMsg m;
  m.batch_id = dec.get_u64();
  std::uint32_t count = dec.get_u32();
  // Every item carries at least its 12-byte header, so a mutated count
  // cannot grow past the actual input.
  if (static_cast<std::uint64_t>(count) * 12 > dec.remaining())
    throw net::DecodeError("ConvertBatchMsg: item count exceeds input");
  m.items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    m.items.push_back(ConvertRequestMsg::decode_from(dec));
  dec.expect_done();
  return m;
}

std::vector<std::uint8_t> ConvertBatchResponseMsg::encode(
    const std::vector<std::size_t>& ct_widths) const {
  if (ct_widths.size() != items.size())
    throw std::invalid_argument(
        "ConvertBatchResponseMsg: one ciphertext width per item required");
  net::Encoder enc;
  enc.put_u64(batch_id);
  enc.put_u32(static_cast<std::uint32_t>(items.size()));
  for (std::size_t i = 0; i < items.size(); ++i)
    items[i].encode_into(enc, ct_widths[i]);
  return enc.take();
}

ConvertBatchResponseMsg ConvertBatchResponseMsg::decode(
    const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  ConvertBatchResponseMsg m;
  m.batch_id = dec.get_u64();
  std::uint32_t count = dec.get_u32();
  if (static_cast<std::uint64_t>(count) * 8 > dec.remaining())
    throw net::DecodeError("ConvertBatchResponseMsg: item count exceeds input");
  m.items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    m.items.push_back(ConvertResponseMsg::decode_from(dec));
  dec.expect_done();
  return m;
}

std::vector<std::uint8_t> KeyRegisterMsg::encode() const {
  net::Encoder enc;
  enc.put_u32(su_id);
  enc.put_bytes(public_key);
  return enc.take();
}

KeyRegisterMsg KeyRegisterMsg::decode(const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  KeyRegisterMsg m;
  m.su_id = dec.get_u32();
  m.public_key = dec.get_bytes();
  dec.expect_done();
  return m;
}

std::vector<std::uint8_t> KeyLookupMsg::encode() const {
  net::Encoder enc;
  enc.put_u32(su_id);
  return enc.take();
}

KeyLookupMsg KeyLookupMsg::decode(const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  KeyLookupMsg m;
  m.su_id = dec.get_u32();
  dec.expect_done();
  return m;
}

std::vector<std::uint8_t> KeyLookupResponseMsg::encode() const {
  net::Encoder enc;
  enc.put_u32(su_id);
  enc.put_u8(found ? 1 : 0);
  enc.put_bytes(public_key);
  return enc.take();
}

KeyLookupResponseMsg KeyLookupResponseMsg::decode(
    const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  KeyLookupResponseMsg m;
  m.su_id = dec.get_u32();
  m.found = dec.get_u8() != 0;
  m.public_key = dec.get_bytes();
  if (m.found == m.public_key.empty())
    throw net::DecodeError("KeyLookupResponseMsg: found flag/key mismatch");
  dec.expect_done();
  return m;
}

std::vector<std::uint8_t> LicenseBody::signing_bytes() const {
  net::Encoder enc;
  enc.put_string("PISA-LICENSE-V1");
  encode_into(enc);
  return enc.take();
}

void LicenseBody::encode_into(net::Encoder& enc) const {
  enc.put_u32(su_id);
  enc.put_string(issuer);
  enc.put_u64(serial);
  enc.put_bytes(std::span<const std::uint8_t>(request_digest.data(),
                                              request_digest.size()));
}

LicenseBody LicenseBody::decode_from(net::Decoder& dec) {
  LicenseBody b;
  b.su_id = dec.get_u32();
  b.issuer = dec.get_string();
  b.serial = dec.get_u64();
  auto digest = dec.get_bytes();
  if (digest.size() != b.request_digest.size())
    throw net::DecodeError("LicenseBody: bad digest length");
  std::copy(digest.begin(), digest.end(), b.request_digest.begin());
  return b;
}

std::vector<std::uint8_t> FastDenyMsg::encode() const {
  net::Encoder enc;
  enc.put_u64(request_id);
  const std::array<std::uint8_t, kPadBytes> pad{};
  enc.put_raw(std::span<const std::uint8_t>(pad.data(), pad.size()));
  return enc.take();
}

FastDenyMsg FastDenyMsg::decode(const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  FastDenyMsg m;
  m.request_id = dec.get_u64();
  auto pad = dec.get_raw(kPadBytes);
  for (std::uint8_t b : pad)
    if (b != 0) throw net::DecodeError("FastDenyMsg: nonzero pad byte");
  dec.expect_done();
  return m;
}

std::vector<std::uint8_t> BudgetProbeMsg::encode(std::size_t ct_width) const {
  net::Encoder enc;
  enc.put_u64(probe_id);
  put_ciphertexts(enc, v, ct_width);
  put_ciphertexts(enc, partials, ct_width);
  return enc.take();
}

BudgetProbeMsg BudgetProbeMsg::decode(const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  BudgetProbeMsg m;
  m.probe_id = dec.get_u64();
  m.v = get_ciphertexts(dec);
  m.partials = get_ciphertexts(dec);
  if (!m.partials.empty() && m.partials.size() != m.v.size())
    throw net::DecodeError("BudgetProbeMsg: partials/v size mismatch");
  dec.expect_done();
  return m;
}

std::vector<std::uint8_t> BudgetProbeResponseMsg::encode() const {
  net::Encoder enc;
  enc.put_u64(probe_id);
  enc.put_bytes(std::span<const std::uint8_t>(signs.data(), signs.size()));
  return enc.take();
}

BudgetProbeResponseMsg BudgetProbeResponseMsg::decode(
    const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  BudgetProbeResponseMsg m;
  m.probe_id = dec.get_u64();
  auto signs = dec.get_bytes();
  m.signs.assign(signs.begin(), signs.end());
  dec.expect_done();
  return m;
}

std::vector<std::uint8_t> SuResponseMsg::encode(std::size_t ct_width) const {
  net::Encoder enc;
  enc.put_u64(request_id);
  license.encode_into(enc);
  put_ciphertexts(enc, {g}, ct_width);
  return enc.take();
}

SuResponseMsg SuResponseMsg::decode(const std::vector<std::uint8_t>& bytes) {
  net::Decoder dec{bytes};
  SuResponseMsg m;
  m.request_id = dec.get_u64();
  m.license = LicenseBody::decode_from(dec);
  auto cts = get_ciphertexts(dec);
  if (cts.size() != 1) throw net::DecodeError("SuResponseMsg: expected one ciphertext");
  m.g = std::move(cts[0]);
  dec.expect_done();
  return m;
}

}  // namespace pisa::core

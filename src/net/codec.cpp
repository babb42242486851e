#include "net/codec.hpp"

#include <array>
#include <cstring>

namespace pisa::net {

void Encoder::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Encoder::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Encoder::put_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  put_u64(bits);
}

void Encoder::put_bytes(std::span<const std::uint8_t> bytes) {
  if (bytes.size() > UINT32_MAX) throw std::length_error("Encoder: bytes too long");
  put_u32(static_cast<std::uint32_t>(bytes.size()));
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void Encoder::put_raw(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void Encoder::put_string(std::string_view s) {
  put_bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void Encoder::put_biguint(const bn::BigUint& v) {
  auto bytes = v.to_bytes_be();
  put_bytes(bytes);
}

std::span<const std::uint8_t> Decoder::need(std::size_t n) {
  if (remaining() < n) throw DecodeError("Decoder: truncated input");
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::uint8_t Decoder::get_u8() { return need(1)[0]; }

std::uint32_t Decoder::get_u32() {
  auto b = need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t Decoder::get_u64() {
  auto b = need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

double Decoder::get_f64() {
  std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

std::vector<std::uint8_t> Decoder::get_bytes() {
  std::uint32_t len = get_u32();
  auto b = need(len);
  return {b.begin(), b.end()};
}

std::span<const std::uint8_t> Decoder::get_raw(std::size_t n) { return need(n); }

std::string Decoder::get_string() {
  std::uint32_t len = get_u32();
  auto b = need(len);
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

bn::BigUint Decoder::get_biguint() {
  auto bytes = get_bytes();
  return bn::BigUint::from_bytes_be(bytes);
}

void Decoder::expect_done() const {
  if (!done()) throw DecodeError("Decoder: trailing bytes");
}

namespace {

// Slicing-by-8 tables for the reflected IEEE polynomial: kCrcTables[0] is
// the classic byte table, and kCrcTables[j][b] is the CRC of byte b followed
// by j zero bytes, so eight table lookups advance the register by 8 bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t j = 1; j < 8; ++j)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFF];
  return t;
}();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const auto& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p), hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void seal_frame(std::vector<std::uint8_t>& frame) {
  std::uint32_t c = crc32(frame);
  for (int i = 0; i < 4; ++i)
    frame.push_back(static_cast<std::uint8_t>(c >> (8 * i)));
}

bool open_frame(std::vector<std::uint8_t>& frame) {
  if (frame.size() < 4) return false;
  std::size_t body = frame.size() - 4;
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i)
    stored |= static_cast<std::uint32_t>(frame[body + static_cast<std::size_t>(i)])
              << (8 * i);
  if (crc32(std::span<const std::uint8_t>(frame.data(), body)) != stored)
    return false;
  frame.resize(body);
  return true;
}

}  // namespace pisa::net

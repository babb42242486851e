// Binary serialization for protocol messages.
//
// Little-endian fixed-width integers, length-prefixed byte strings and
// big-endian magnitude encoding for BigUint (length-prefixed). Every PISA
// message body is produced by an Encoder and consumed by a Decoder; the
// byte counts these produce are what the Figure 6 communication-overhead
// numbers are measured from.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/biguint.hpp"

namespace pisa::net {

class Encoder {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);

  /// Length-prefixed (u32) raw bytes.
  void put_bytes(std::span<const std::uint8_t> bytes);

  /// Unprefixed raw bytes — for fixed-width records whose framing the
  /// caller already encoded (put_ciphertexts' |n²|-wide entries). One
  /// memcpy instead of a per-byte loop; matters at Figure-6 message sizes.
  void put_raw(std::span<const std::uint8_t> bytes);

  /// Length-prefixed UTF-8 string.
  void put_string(std::string_view s);

  /// Length-prefixed big-endian magnitude.
  void put_biguint(const bn::BigUint& v);

  std::size_t size() const { return buf_.size(); }

  /// Move the accumulated buffer out; the encoder is empty afterwards.
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Throws DecodeError on truncated or malformed input.
struct DecodeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  std::vector<std::uint8_t> get_bytes();

  /// Unprefixed fixed-width read, mirroring Encoder::put_raw. The returned
  /// span aliases the decoder's input buffer; consume it before the buffer
  /// goes away.
  std::span<const std::uint8_t> get_raw(std::size_t n);
  std::string get_string();
  bn::BigUint get_biguint();

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// Throws DecodeError unless all input was consumed.
  void expect_done() const;

 private:
  std::span<const std::uint8_t> need(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// --- frame checksums --------------------------------------------------------
// Network frames carry a CRC-32 trailer so link corruption is rejected at
// the transport layer instead of reaching a Message handler (or worse, a
// Paillier decryption) as well-formed-looking garbage.

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), computed 8 bytes
/// per step by slicing-by-8; the values are those of the byte-wise loop.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Append a little-endian CRC-32 trailer over the current contents.
void seal_frame(std::vector<std::uint8_t>& frame);

/// Verify and strip a seal_frame() trailer. Returns false — leaving `frame`
/// untouched — when the trailer is missing or does not match.
bool open_frame(std::vector<std::uint8_t>& frame);

}  // namespace pisa::net

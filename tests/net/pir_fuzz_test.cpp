// Hostile-byte battery for the §3.10 PIR wire messages. Replicas and SUs
// parse these off real sockets, so every decoder must turn truncation,
// mutation, oversize counts, share-width mismatches and tail-bit smuggling
// into clean net::DecodeError — never a crash, an over-allocation or a
// silently accepted malformed frame. Mirrors the PuDeltaMsg fuzz style of
// tests/core/fuzz_decode_test.cpp.
#include <gtest/gtest.h>

#include "bigint/random_source.hpp"
#include "net/codec.hpp"
#include "pir/pir_messages.hpp"

namespace pisa::pir {
namespace {

struct PirFuzzFixture : ::testing::Test {
  bn::SplitMix64Random fuzz{0x919A};

  template <typename M>
  void fuzz_decode(const std::vector<std::uint8_t>& valid, int rounds) {
    // Truncations at every length.
    for (std::size_t len = 0; len < valid.size(); ++len) {
      std::vector<std::uint8_t> cut(
          valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
      try {
        (void)M::decode(cut);
      } catch (const net::DecodeError&) {
        // expected
      }
    }
    // Random byte mutations.
    for (int i = 0; i < rounds; ++i) {
      auto mutated = valid;
      std::size_t nflips = fuzz.next_u64() % 4 + 1;
      for (std::size_t f = 0; f < nflips; ++f) {
        std::size_t pos = fuzz.next_u64() % mutated.size();
        mutated[pos] ^= static_cast<std::uint8_t>(fuzz.next_u64() | 1);
      }
      try {
        auto msg = M::decode(mutated);
        (void)msg;  // structurally valid decode of mutated bytes is fine
      } catch (const net::DecodeError&) {
        // expected
      }
    }
    // Random garbage of assorted sizes.
    for (int i = 0; i < rounds; ++i) {
      std::vector<std::uint8_t> garbage(fuzz.next_u64() % 300);
      fuzz.fill(garbage);
      try {
        (void)M::decode(garbage);
      } catch (const net::DecodeError&) {
        // expected
      }
    }
  }
};

TEST_F(PirFuzzFixture, PirUpdateMsgSurvivesHostileBytes) {
  PirUpdateMsg m;
  m.pu_id = 3;
  m.block = 7;
  m.w_column = {-5, 0, 123456789, -1};
  fuzz_decode<PirUpdateMsg>(m.encode(), 200);
}

TEST_F(PirFuzzFixture, PirUpdateMsgRejectsTargetedMalformations) {
  auto frame = [](std::uint32_t count, std::size_t values_emitted) {
    net::Encoder enc;
    enc.put_u32(1);  // pu_id
    enc.put_u32(2);  // block
    enc.put_u32(count);
    for (std::size_t i = 0; i < values_emitted; ++i)
      enc.put_i64(static_cast<std::int64_t>(i));
    return enc.take();
  };
  // Empty column: an update must carry at least one channel value.
  EXPECT_THROW(PirUpdateMsg::decode(frame(0, 0)), net::DecodeError);
  // Claimed count must be bounded by the actual input before any reserve.
  EXPECT_THROW(PirUpdateMsg::decode(frame(0xFFFFFFFFu, 1)), net::DecodeError);
  EXPECT_THROW(PirUpdateMsg::decode(frame(3, 2)), net::DecodeError);
  // Trailing garbage after the last value.
  auto padded = frame(2, 2);
  padded.push_back(0x00);
  EXPECT_THROW(PirUpdateMsg::decode(padded), net::DecodeError);
  // Round trip of a well-formed frame.
  auto ok = PirUpdateMsg::decode(frame(2, 2));
  EXPECT_EQ(ok.encode(), frame(2, 2));
}

TEST_F(PirFuzzFixture, PirQueryMsgSurvivesHostileBytes) {
  PirQueryMsg m;
  m.su_id = 9;
  m.request_id = 1234;
  m.db_rows = 20;  // 3 share bytes, 4 tail bits
  for (int i = 0; i < 3; ++i) {
    std::vector<std::uint8_t> s(PirQueryMsg::share_bytes(20));
    fuzz.fill(s);
    s.back() &= 0x0F;  // keep tail bits zero so the base frame is valid
    m.share_data.insert(m.share_data.end(), s.begin(), s.end());
  }
  fuzz_decode<PirQueryMsg>(m.encode(), 200);
}

TEST_F(PirFuzzFixture, PirQueryMsgRejectsTargetedMalformations) {
  auto frame = [](std::uint32_t db_rows, std::uint32_t count,
                  std::size_t shares_emitted, std::uint8_t last_byte) {
    net::Encoder enc;
    enc.put_u32(9);    // su_id
    enc.put_u64(77);   // request_id
    enc.put_u32(db_rows);
    enc.put_u32(count);
    const std::size_t sb = PirQueryMsg::share_bytes(db_rows);
    for (std::size_t i = 0; i < shares_emitted; ++i) {
      std::vector<std::uint8_t> s(sb, 0x00);
      if (!s.empty()) s.back() = last_byte;
      enc.put_raw(s);
    }
    return enc.take();
  };
  // Implausible database shapes.
  EXPECT_THROW(PirQueryMsg::decode(frame(0, 1, 1, 0)), net::DecodeError);
  EXPECT_THROW(PirQueryMsg::decode(frame(PirQueryMsg::kMaxRows + 1, 1, 1, 0)),
               net::DecodeError);
  // A query with no shares fetches nothing: refuse it.
  EXPECT_THROW(PirQueryMsg::decode(frame(20, 0, 0, 0)), net::DecodeError);
  // Count bounds before allocation, and share-length mismatch: the frame
  // claims more (or fewer) fixed-width shares than the bytes present.
  EXPECT_THROW(PirQueryMsg::decode(frame(20, PirQueryMsg::kMaxShares + 1, 1, 0)),
               net::DecodeError);
  EXPECT_THROW(PirQueryMsg::decode(frame(20, 3, 1, 0)), net::DecodeError);
  EXPECT_THROW(PirQueryMsg::decode(frame(20, 1, 2, 0)), net::DecodeError);
  // Tail-bit smuggling: db_rows = 20 leaves 4 unused high bits in the last
  // share byte; any of them set is a covert channel, not a valid share.
  EXPECT_THROW(PirQueryMsg::decode(frame(20, 1, 1, 0x10)), net::DecodeError);
  EXPECT_THROW(PirQueryMsg::decode(frame(20, 1, 1, 0x80)), net::DecodeError);
  // The low (valid) bits of the same byte are fine.
  auto ok = PirQueryMsg::decode(frame(20, 1, 1, 0x0F));
  EXPECT_EQ(ok.share_count(), 1u);
  EXPECT_EQ(ok.encode(), frame(20, 1, 1, 0x0F));
  // Byte-aligned databases have no tail: 0xFF in the last byte is legal.
  EXPECT_NO_THROW(PirQueryMsg::decode(frame(24, 1, 1, 0xFF)));
}

TEST_F(PirFuzzFixture, PirReplyMsgSurvivesHostileBytes) {
  PirReplyMsg m;
  m.request_id = 42;
  m.db_version = 17;
  m.row_bytes = 64;
  for (int i = 0; i < 4; ++i) {
    std::vector<std::uint8_t> r(64);
    fuzz.fill(r);
    m.row_data.insert(m.row_data.end(), r.begin(), r.end());
  }
  fuzz_decode<PirReplyMsg>(m.encode(), 200);
}

TEST_F(PirFuzzFixture, PirReplyMsgRejectsTargetedMalformations) {
  auto frame = [](std::uint32_t row_bytes, std::uint32_t count,
                  std::size_t rows_emitted, std::size_t emit_bytes) {
    net::Encoder enc;
    enc.put_u64(42);  // request_id
    enc.put_u64(17);  // db_version
    enc.put_u32(row_bytes);
    enc.put_u32(count);
    for (std::size_t i = 0; i < rows_emitted; ++i)
      enc.put_raw(std::vector<std::uint8_t>(emit_bytes, 0xCD));
    return enc.take();
  };
  // Row width must be a positive 64-byte multiple within the global bound
  // (the database pads every row to a cache-line multiple).
  EXPECT_THROW(PirReplyMsg::decode(frame(0, 1, 1, 0)), net::DecodeError);
  EXPECT_THROW(PirReplyMsg::decode(frame(24, 1, 1, 24)), net::DecodeError);
  EXPECT_THROW(PirReplyMsg::decode(frame(PirReplyMsg::kMaxRowBytes + 64, 1, 0, 0)),
               net::DecodeError);
  // Empty and oversize row counts.
  EXPECT_THROW(PirReplyMsg::decode(frame(64, 0, 0, 0)), net::DecodeError);
  EXPECT_THROW(PirReplyMsg::decode(frame(64, PirReplyMsg::kMaxRowsPerReply + 1,
                                         1, 64)),
               net::DecodeError);
  // Claimed rows exceeding the bytes present (truncated reply).
  EXPECT_THROW(PirReplyMsg::decode(frame(64, 3, 2, 64)), net::DecodeError);
  // Trailing garbage after the last row.
  auto padded = frame(64, 2, 2, 64);
  padded.push_back(0xEE);
  EXPECT_THROW(PirReplyMsg::decode(padded), net::DecodeError);
  auto ok = PirReplyMsg::decode(frame(64, 2, 2, 64));
  EXPECT_EQ(ok.encode(), frame(64, 2, 2, 64));
}

}  // namespace
}  // namespace pisa::pir

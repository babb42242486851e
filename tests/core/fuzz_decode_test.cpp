// Hostile-input robustness: the SDC, STP and SU endpoints parse bytes that
// arrive over the network. Random truncations and mutations of every
// message type must produce clean DecodeError exceptions (or decode to a
// structurally valid message) — never crashes, hangs or silent garbage
// acceptance at the codec layer.
#include <gtest/gtest.h>

#include "bigint/random_source.hpp"
#include "core/messages.hpp"
#include "crypto/chacha_rng.hpp"
#include "net/codec.hpp"

namespace pisa::core {
namespace {

struct FuzzFixture : ::testing::Test {
  crypto::ChaChaRng rng{std::uint64_t{0xF022}};
  crypto::PaillierKeyPair kp = crypto::paillier_generate(256, rng, 8);
  std::size_t width = kp.pk.ciphertext_bytes();
  bn::SplitMix64Random fuzz{0xFA22};

  crypto::PaillierCiphertext ct() {
    return kp.pk.encrypt(bn::BigUint{fuzz.next_u64() % 1000}, rng);
  }

  template <typename M>
  void fuzz_decode(const std::vector<std::uint8_t>& valid, int rounds) {
    // Truncations at every length.
    for (std::size_t len = 0; len < valid.size(); ++len) {
      std::vector<std::uint8_t> cut(valid.begin(),
                                    valid.begin() + static_cast<std::ptrdiff_t>(len));
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

TEST_F(FuzzFixture, PuUpdateMsgSurvivesHostileBytes) {
  PuUpdateMsg m;
  m.pu_id = 3;
  m.block = 7;
  for (int i = 0; i < 3; ++i) m.w_column.push_back(ct());
  fuzz_decode<PuUpdateMsg>(m.encode(width), 150);
}

TEST_F(FuzzFixture, PuDeltaMsgSurvivesHostileBytes) {
  PuDeltaMsg m;
  m.pu_id = 2;
  m.delta_seq = 7;
  m.cells.push_back({0, 3, ct()});
  m.cells.push_back({1, 0, ct()});
  m.cells.push_back({4, 9, ct()});
  fuzz_decode<PuDeltaMsg>(m.encode(width), 150);
}

TEST_F(FuzzFixture, PuDeltaMsgRejectsTargetedMalformations) {
  // Hand-built frames hitting each decoder guard exactly: the fuzz loop
  // above finds these probabilistically, this pins them deterministically.
  auto frame = [&](std::uint64_t seq, std::uint32_t count, std::uint32_t w,
                   std::size_t cells_emitted) {
    net::Encoder enc;
    enc.put_u32(1);  // pu_id
    enc.put_u64(seq);
    enc.put_u32(count);
    enc.put_u32(w);
    for (std::size_t i = 0; i < cells_emitted; ++i) {
      enc.put_u32(static_cast<std::uint32_t>(i));  // group
      enc.put_u32(0);                              // block
      enc.put_raw(std::vector<std::uint8_t>(w, 0xAB));
    }
    return enc.take();
  };
  const auto w32 = static_cast<std::uint32_t>(width);

  // Zero sequence number: the exactly-once guard needs seq >= 1.
  EXPECT_THROW(PuDeltaMsg::decode(frame(0, 1, w32, 1)), net::DecodeError);
  // Empty cell list: a delta must change something.
  EXPECT_THROW(PuDeltaMsg::decode(frame(5, 0, w32, 0)), net::DecodeError);
  // Implausible ciphertext widths (zero, and far beyond any real modulus).
  EXPECT_THROW(PuDeltaMsg::decode(frame(5, 1, 0, 0)), net::DecodeError);
  EXPECT_THROW(PuDeltaMsg::decode(frame(5, 1, (1u << 20) + 1, 0)),
               net::DecodeError);
  // Oversize cell count: the claimed count must be bounded by the actual
  // input before any allocation happens.
  EXPECT_THROW(PuDeltaMsg::decode(frame(5, 0xFFFFFFFFu, w32, 1)),
               net::DecodeError);
  EXPECT_THROW(PuDeltaMsg::decode(frame(5, 3, w32, 2)), net::DecodeError);
  // Trailing garbage after the last cell.
  auto padded = frame(5, 2, w32, 2);
  padded.push_back(0x00);
  EXPECT_THROW(PuDeltaMsg::decode(padded), net::DecodeError);

  // Out-of-range coordinates are NOT a codec concern — the decoder has no
  // grid shape. They decode fine and the state engine rejects them at
  // apply (see delta_update_test.cpp), so a hostile PU cannot smuggle a
  // fold outside the budget matrix.
  auto wild = PuDeltaMsg::decode(frame(5, 2, w32, 2));
  EXPECT_EQ(wild.cells.size(), 2u);
  auto valid = frame(5, 2, w32, 2);
  EXPECT_EQ(wild.encode(width), valid) << "decode/encode round-trip";
}

TEST_F(FuzzFixture, SuRequestMsgSurvivesHostileBytes) {
  SuRequestMsg m;
  m.su_id = 1;
  m.request_id = 99;
  m.block_lo = 0;
  m.block_hi = 2;
  for (int i = 0; i < 4; ++i) m.f.push_back(ct());
  fuzz_decode<SuRequestMsg>(m.encode(width), 150);
}

TEST_F(FuzzFixture, ConvertMessagesSurviveHostileBytes) {
  ConvertRequestMsg req;
  req.request_id = 1;
  req.su_id = 2;
  req.v.push_back(ct());
  req.partials.push_back(ct());
  fuzz_decode<ConvertRequestMsg>(req.encode(width), 150);

  ConvertResponseMsg resp;
  resp.request_id = 1;
  resp.x.push_back(ct());
  fuzz_decode<ConvertResponseMsg>(resp.encode(width), 150);
}

TEST_F(FuzzFixture, ConvertBatchMessagesSurviveHostileBytes) {
  ConvertBatchMsg batch;
  batch.batch_id = 4;
  for (std::uint32_t i = 0; i < 2; ++i) {
    ConvertRequestMsg item;
    item.request_id = 50 + i;
    item.su_id = i + 1;
    item.v = {ct(), ct()};
    item.partials = {ct(), ct()};
    batch.items.push_back(std::move(item));
  }
  fuzz_decode<ConvertBatchMsg>(batch.encode(width), 150);

  ConvertBatchResponseMsg resp;
  resp.batch_id = 4;
  resp.items.resize(2);
  resp.items[0] = {50, {ct()}};
  resp.items[1] = {51, {ct(), ct()}};
  fuzz_decode<ConvertBatchResponseMsg>(resp.encode({width, width}), 150);
}

TEST_F(FuzzFixture, SuResponseMsgSurvivesHostileBytes) {
  SuResponseMsg m;
  m.request_id = 5;
  m.license = LicenseBody{9, "sdc", 2, {}};
  m.g = ct();
  fuzz_decode<SuResponseMsg>(m.encode(width), 150);
}

TEST_F(FuzzFixture, SealedFramesRoundTripAndRejectCorruption) {
  // The reliability layer's last line of defence: a CRC-32 trailer sealed
  // over every wire frame. Clean frames round-trip; any small bit-flip
  // burst (the fault injector flips at most 3 bits) must be rejected —
  // CRC-32 guarantees detection of <=3-bit errors at these frame sizes.
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> payload(fuzz.next_u64() % 400 + 1);
    fuzz.fill(payload);
    auto frame = payload;
    net::seal_frame(frame);
    ASSERT_EQ(frame.size(), payload.size() + 4);

    auto clean = frame;
    ASSERT_TRUE(net::open_frame(clean));
    EXPECT_EQ(clean, payload) << "opening must strip exactly the trailer";

    auto mutated = frame;
    std::size_t nflips = fuzz.next_u64() % 3 + 1;
    for (std::size_t f = 0; f < nflips; ++f) {
      std::size_t bit = fuzz.next_u64() % (mutated.size() * 8);
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    auto before = mutated;
    EXPECT_FALSE(net::open_frame(mutated));
    EXPECT_EQ(mutated, before) << "failed open must leave the frame intact";
  }
}

TEST_F(FuzzFixture, OpenFrameSurvivesTruncationAndGarbage) {
  std::vector<std::uint8_t> payload(128);
  fuzz.fill(payload);
  auto frame = payload;
  net::seal_frame(frame);
  // Truncations: below 4 bytes there is no trailer at all; above, the
  // trailing bytes are payload data masquerading as a checksum.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    std::vector<std::uint8_t> cut(frame.begin(),
                                  frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(net::open_frame(cut)) << "truncated to " << len;
  }
  // Random garbage of assorted sizes never crashes.
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> garbage(fuzz.next_u64() % 64);
    fuzz.fill(garbage);
    (void)net::open_frame(garbage);
  }
}

TEST_F(FuzzFixture, MutatedCiphertextsStillDecryptToSomething) {
  // Beyond parsing: a mutated-but-parseable ciphertext must decrypt without
  // crashing (Paillier decryption is total on [1, n²)) or throw the
  // documented out_of_range. The *value* is garbage — that is the blinding
  // layer's problem, not the codec's.
  for (int i = 0; i < 50; ++i) {
    auto c = ct();
    auto bytes = c.value.to_bytes_be(width);
    bytes[fuzz.next_u64() % bytes.size()] ^= 0xFF;
    crypto::PaillierCiphertext mutated{bn::BigUint::from_bytes_be(bytes)};
    try {
      (void)kp.sk.decrypt(mutated);
    } catch (const std::out_of_range&) {
      // value >= n² after mutation — acceptable
    }
  }
}

}  // namespace
}  // namespace pisa::core

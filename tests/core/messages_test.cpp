#include "core/messages.hpp"

#include <gtest/gtest.h>

#include "crypto/chacha_rng.hpp"

namespace pisa::core {
namespace {

struct MessagesFixture : ::testing::Test {
  crypto::ChaChaRng rng{std::uint64_t{11}};
  crypto::PaillierKeyPair kp = crypto::paillier_generate(256, rng, 8);
  std::size_t width = kp.pk.ciphertext_bytes();

  crypto::PaillierCiphertext ct(std::uint64_t m) {
    return kp.pk.encrypt(bn::BigUint{m}, rng);
  }
};

TEST_F(MessagesFixture, PuUpdateRoundTrip) {
  PuUpdateMsg m;
  m.pu_id = 42;
  m.block = 17;
  for (int i = 0; i < 5; ++i) m.w_column.push_back(ct(static_cast<std::uint64_t>(i)));
  auto bytes = m.encode(width);
  auto back = PuUpdateMsg::decode(bytes);
  EXPECT_EQ(back.pu_id, 42u);
  EXPECT_EQ(back.block, 17u);
  ASSERT_EQ(back.w_column.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(back.w_column[i], m.w_column[i]);
}

TEST_F(MessagesFixture, PuUpdateSizeIsFixedWidth) {
  // C ciphertexts at |n²| each plus a small header: the Figure 6 PU-update
  // size is channel-count-proportional and block-count-independent.
  PuUpdateMsg m;
  for (int i = 0; i < 8; ++i) m.w_column.push_back(ct(1));
  auto bytes = m.encode(width);
  EXPECT_EQ(bytes.size(), 8 * width + /*header*/ 4 + 4 + 4 + 4);
}

TEST_F(MessagesFixture, SuRequestRoundTrip) {
  SuRequestMsg m;
  m.su_id = 7;
  m.request_id = 1234567890123ULL;
  m.block_lo = 3;
  m.block_hi = 9;
  for (int i = 0; i < 12; ++i) m.f.push_back(ct(static_cast<std::uint64_t>(100 + i)));
  auto back = SuRequestMsg::decode(m.encode(width));
  EXPECT_EQ(back.su_id, 7u);
  EXPECT_EQ(back.request_id, 1234567890123ULL);
  EXPECT_EQ(back.block_lo, 3u);
  EXPECT_EQ(back.block_hi, 9u);
  EXPECT_EQ(back.range(), 6u);
  EXPECT_EQ(back.f, m.f);
}

TEST_F(MessagesFixture, SuRequestRejectsEmptyRange) {
  SuRequestMsg m;
  m.block_lo = 5;
  m.block_hi = 5;
  auto bytes = m.encode(width);
  EXPECT_THROW(SuRequestMsg::decode(bytes), net::DecodeError);
}

TEST_F(MessagesFixture, ConvertMessagesRoundTrip) {
  ConvertRequestMsg req;
  req.request_id = 99;
  req.su_id = 3;
  req.v.push_back(ct(5));
  req.v.push_back(ct(6));
  auto req2 = ConvertRequestMsg::decode(req.encode(width));
  EXPECT_EQ(req2.request_id, 99u);
  EXPECT_EQ(req2.su_id, 3u);
  EXPECT_EQ(req2.v, req.v);

  ConvertResponseMsg resp;
  resp.request_id = 99;
  resp.x.push_back(ct(1));
  auto resp2 = ConvertResponseMsg::decode(resp.encode(width));
  EXPECT_EQ(resp2.request_id, 99u);
  EXPECT_EQ(resp2.x, resp.x);
}

TEST_F(MessagesFixture, ConvertBatchRoundTrip) {
  ConvertBatchMsg m;
  m.batch_id = 31337;
  for (std::uint32_t i = 0; i < 3; ++i) {
    ConvertRequestMsg it;
    it.request_id = 1000 + i;
    it.su_id = i + 1;
    for (std::uint32_t j = 0; j <= i; ++j) it.v.push_back(ct(10 * i + j));
    m.items.push_back(std::move(it));
  }
  EXPECT_EQ(m.total_entries(), 6u);
  auto back = ConvertBatchMsg::decode(m.encode(width));
  EXPECT_EQ(back.batch_id, 31337u);
  ASSERT_EQ(back.items.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.items[i].request_id, m.items[i].request_id);
    EXPECT_EQ(back.items[i].su_id, m.items[i].su_id);
    EXPECT_EQ(back.items[i].v, m.items[i].v);
    EXPECT_TRUE(back.items[i].partials.empty());
  }
}

TEST_F(MessagesFixture, ConvertBatchCarriesThresholdPartials) {
  ConvertBatchMsg m;
  m.batch_id = 1;
  ConvertRequestMsg it;
  it.request_id = 5;
  it.su_id = 2;
  it.v = {ct(1), ct(2)};
  it.partials = {ct(3), ct(4)};
  m.items.push_back(it);
  auto back = ConvertBatchMsg::decode(m.encode(width));
  EXPECT_EQ(back.items[0].partials, it.partials);

  it.partials.pop_back();  // mismatched partials must not decode
  ConvertBatchMsg bad;
  bad.items.push_back(std::move(it));
  EXPECT_THROW(ConvertBatchMsg::decode(bad.encode(width)), net::DecodeError);
}

TEST_F(MessagesFixture, ConvertBatchResponseUsesPerItemWidths) {
  // Each item's X̃ is under its own SU's key, so every item gets its own
  // ciphertext width on the wire.
  crypto::ChaChaRng other_rng{std::uint64_t{12}};
  auto other = crypto::paillier_generate(320, other_rng, 8);

  ConvertBatchResponseMsg m;
  m.batch_id = 8;
  m.items.resize(2);
  m.items[0].request_id = 100;
  m.items[0].x = {ct(7)};
  m.items[1].request_id = 101;
  m.items[1].x = {other.pk.encrypt(bn::BigUint{9}, other_rng)};
  auto bytes = m.encode({width, other.pk.ciphertext_bytes()});
  auto back = ConvertBatchResponseMsg::decode(bytes);
  EXPECT_EQ(back.batch_id, 8u);
  ASSERT_EQ(back.items.size(), 2u);
  EXPECT_EQ(back.items[0].x, m.items[0].x);
  EXPECT_EQ(back.items[1].x, m.items[1].x);

  EXPECT_THROW(m.encode({width}), std::invalid_argument)
      << "one width per item is mandatory";
}

TEST_F(MessagesFixture, ConvertBatchRejectsImplausibleCounts) {
  net::Encoder enc;
  enc.put_u64(1);           // batch_id
  enc.put_u32(0xFFFFFF);    // item count far beyond the input size
  auto bytes = enc.take();
  EXPECT_THROW(ConvertBatchMsg::decode(bytes), net::DecodeError);
  EXPECT_THROW(ConvertBatchResponseMsg::decode(bytes), net::DecodeError);
}

TEST_F(MessagesFixture, LicenseBodySigningBytesAreCanonical) {
  LicenseBody a{7, "sdc", 12, {}};
  LicenseBody b{7, "sdc", 12, {}};
  EXPECT_EQ(a.signing_bytes(), b.signing_bytes());
  b.serial = 13;
  EXPECT_NE(a.signing_bytes(), b.signing_bytes());
  b = a;
  b.request_digest[0] = 0xFF;
  EXPECT_NE(a.signing_bytes(), b.signing_bytes());
  b = a;
  b.issuer = "evil";
  EXPECT_NE(a.signing_bytes(), b.signing_bytes());
}

TEST_F(MessagesFixture, SuResponseRoundTrip) {
  SuResponseMsg m;
  m.request_id = 555;
  m.license = LicenseBody{9, "sdc", 2, {}};
  m.license.request_digest.fill(0xAB);
  m.g = ct(424242);
  auto back = SuResponseMsg::decode(m.encode(width));
  EXPECT_EQ(back.request_id, 555u);
  EXPECT_EQ(back.license, m.license);
  EXPECT_EQ(back.g, m.g);
  // Figure 6: the response is essentially one ciphertext (~4.1 kb at
  // n = 2048); at this key size, width + small header.
  EXPECT_LT(m.encode(width).size(), width + 128);
}

TEST_F(MessagesFixture, TruncationDetected) {
  PuUpdateMsg m;
  m.w_column.push_back(ct(1));
  auto bytes = m.encode(width);
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(PuUpdateMsg::decode(bytes), net::DecodeError);
}

TEST_F(MessagesFixture, ImplausibleWidthRejected) {
  net::Encoder enc;
  enc.put_u32(1);            // count
  enc.put_u32(2u << 20);     // absurd width
  auto bytes = enc.take();
  net::Decoder dec{bytes};
  EXPECT_THROW(get_ciphertexts(dec), net::DecodeError);
}

}  // namespace
}  // namespace pisa::core

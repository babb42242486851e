// PISA wire messages (the flows of Figures 4 and 5).
//
// Every message serializes through net::Encoder/Decoder; ciphertexts are
// encoded at the fixed |n²| width so on-wire sizes match the paper's
// Figure 6 accounting (PU update ≈ 0.05 MB for C=100, SU request ≈ 29 MB
// for C×B = 100×600, SU response ≈ one ciphertext ≈ 4.1 kb).
//
// Slot packing (PisaConfig::pack_slots = k > 1, DESIGN.md §3.4) shrinks
// every per-channel ciphertext vector to one entry per channel *group* of k
// slots — ⌈C/k⌉ instead of C — so the Figure-6 byte counts above drop ~k×
// on the PU-update, SU-request and SDC↔STP links. The wire format itself is
// unchanged (both endpoints derive the slot layout from the shared
// PisaConfig), which is what keeps pack_slots = 1 byte-identical to the
// paper's layout.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/paillier.hpp"
#include "net/codec.hpp"

namespace pisa::core {

/// Message-type strings used on the simulated network.
inline constexpr const char* kMsgPuUpdate = "pu_update";
inline constexpr const char* kMsgPuDelta = "pu_delta";
inline constexpr const char* kMsgSuRequest = "su_request";
inline constexpr const char* kMsgConvertBatch = "stp_convert_batch";
inline constexpr const char* kMsgConvertBatchResponse =
    "stp_convert_batch_response";
inline constexpr const char* kMsgSuResponse = "su_response";
inline constexpr const char* kMsgKeyRegister = "stp_key_register";
inline constexpr const char* kMsgKeyLookup = "stp_key_lookup";
inline constexpr const char* kMsgKeyLookupResponse = "stp_key_lookup_response";
inline constexpr const char* kMsgFastDeny = "su_fast_deny";
inline constexpr const char* kMsgBudgetProbe = "stp_budget_probe";
inline constexpr const char* kMsgBudgetProbeResponse =
    "stp_budget_probe_response";

/// Ciphertext vector codec at fixed width (|n²| bytes per ciphertext).
void put_ciphertexts(net::Encoder& enc,
                     const std::vector<crypto::PaillierCiphertext>& cts,
                     std::size_t ct_width_bytes);
std::vector<crypto::PaillierCiphertext> get_ciphertexts(net::Decoder& dec);

/// Figure 4: PU i announces (encrypted) channel reception. The PU's block
/// is public (registered receiver location), so only the channel column
/// travels: W(c, i_block) = T − E for the tuned channel, 0 elsewhere,
/// packed pack_slots channels per ciphertext under pk_G.
struct PuUpdateMsg {
  std::uint32_t pu_id = 0;
  std::uint32_t block = 0;
  std::vector<crypto::PaillierCiphertext> w_column;  // ⌈C/pack_slots⌉ entries

  std::vector<std::uint8_t> encode(std::size_t ct_width) const;
  static PuUpdateMsg decode(const std::vector<std::uint8_t>& bytes);
};

/// Incremental PU update (DESIGN.md §3.9): only the (channel-group, block)
/// budget cells whose interference contribution changed travel. Each cell
/// carries Ẽ(new_w − old_w) for that packed slot group — the SDC folds it
/// with a single ciphertext multiplication, so a moving PU costs O(diff)
/// instead of a full ⌈C/k⌉-column refold per touched block. `delta_seq` is
/// the PU's per-sender monotonic counter (starting at 1): the SDC persists the
/// last applied seq so at-least-once delivery folds each delta exactly once.
struct PuDeltaMsg {
  struct Cell {
    std::uint32_t group = 0;
    std::uint32_t block = 0;
    crypto::PaillierCiphertext delta;
  };

  std::uint32_t pu_id = 0;
  std::uint64_t delta_seq = 0;
  std::vector<Cell> cells;

  std::vector<std::uint8_t> encode(std::size_t ct_width) const;
  static PuDeltaMsg decode(const std::vector<std::uint8_t>& bytes);
};

/// Figure 5 step 1–2: SU j requests transmission. `block_lo`/`block_hi`
/// implement the §VI-A location-privacy/time trade-off: the SU discloses
/// only that it lies somewhere in [block_lo, block_hi) and ships the F̃
/// submatrix for that range (full privacy = the whole area). Entries are
/// channel-group-major: f[g * range + (b - block_lo)], slot j of group g
/// packing channel g·pack_slots + j (with pack_slots = 1, plain
/// channel-major order).
struct SuRequestMsg {
  std::uint32_t su_id = 0;
  std::uint64_t request_id = 0;
  std::uint32_t block_lo = 0;
  std::uint32_t block_hi = 0;
  std::vector<crypto::PaillierCiphertext> f;

  std::size_t range() const { return block_hi - block_lo; }

  std::vector<std::uint8_t> encode(std::size_t ct_width) const;
  static SuRequestMsg decode(const std::vector<std::uint8_t>& bytes);
};

/// Figure 5 step 5: the blinded indicator matrix Ṽ of one SU request, for
/// key conversion at the STP. In threshold-STP mode
/// (PisaConfig::threshold_stp) `partials` carries the SDC's partial
/// decryption of each Ṽ entry — the STP can only open entries the SDC
/// co-decrypted. On the wire it is one item of a ConvertBatchMsg.
struct ConvertRequestMsg {
  std::uint64_t request_id = 0;
  std::uint32_t su_id = 0;  // tells the STP which pk_j to convert to
  std::vector<crypto::PaillierCiphertext> v;
  std::vector<crypto::PaillierCiphertext> partials;  // empty = classic mode

  /// The item codec: rejects an empty Ṽ and a partials/v size mismatch.
  void encode_into(net::Encoder& enc, std::size_t ct_width) const;
  static ConvertRequestMsg decode_from(net::Decoder& dec);
  std::vector<std::uint8_t> encode(std::size_t ct_width) const;
  static ConvertRequestMsg decode(const std::vector<std::uint8_t>& bytes);
};

/// Figure 5 step 8: X̃ of one request under SU j's own key pk_j; one item
/// of a ConvertBatchResponseMsg on the wire.
struct ConvertResponseMsg {
  std::uint64_t request_id = 0;
  std::vector<crypto::PaillierCiphertext> x;

  /// The item codec: rejects an empty X̃.
  void encode_into(net::Encoder& enc, std::size_t ct_width) const;
  static ConvertResponseMsg decode_from(net::Decoder& dec);
  std::vector<std::uint8_t> encode(std::size_t ct_width) const;
  static ConvertResponseMsg decode(const std::vector<std::uint8_t>& bytes);
};

/// The SDC→STP conversion frame (DESIGN.md §3.5). With batching on, the
/// SDC coalesces the blinded Ṽ entries of several concurrent SU requests
/// into one message so a single SDC↔STP round-trip — and one parallel_for
/// at the STP — serves them all; with convert_batch_max = 0 every request
/// travels as a one-item batch. Items keep their own (request_id, su_id)
/// so the STP re-encrypts each request under the right pk_j; every
/// v/partial entry is under pk_G, so one ciphertext width covers the batch.
struct ConvertBatchMsg {
  std::uint64_t batch_id = 0;
  std::vector<ConvertRequestMsg> items;

  std::size_t total_entries() const {
    std::size_t n = 0;
    for (const auto& it : items) n += it.v.size();
    return n;
  }

  std::vector<std::uint8_t> encode(std::size_t ct_width) const;
  static ConvertBatchMsg decode(const std::vector<std::uint8_t>& bytes);
};

/// Conversion reply: X̃ vectors per request, each under its own SU key
/// pk_j — widths differ per item, so encode takes one width per item
/// (put_ciphertexts embeds the width with each vector).
struct ConvertBatchResponseMsg {
  std::uint64_t batch_id = 0;
  std::vector<ConvertResponseMsg> items;

  std::vector<std::uint8_t> encode(const std::vector<std::size_t>& ct_widths) const;
  static ConvertBatchResponseMsg decode(const std::vector<std::uint8_t>& bytes);
};

/// The cleartext license body whose RSA signature is delivered (blinded)
/// inside G̃. Contains no SU secrets: the operation parameters are bound via
/// the digest of the encrypted request matrix (paper §IV-B step 2: the
/// license "includes ... S̃_j, the ciphertext of SU j's operation
/// parameters").
struct LicenseBody {
  std::uint32_t su_id = 0;
  std::string issuer;
  std::uint64_t serial = 0;
  std::array<std::uint8_t, 32> request_digest{};

  /// Canonical bytes for signing/verification.
  std::vector<std::uint8_t> signing_bytes() const;

  void encode_into(net::Encoder& enc) const;
  static LicenseBody decode_from(net::Decoder& dec);

  bool operator==(const LicenseBody&) const = default;
};

/// Key-directory traffic (paper §III-C: "Each SU i ... uploads pk_i to STP"
/// and "Anyone can retrieve pk_G and SU Paillier public keys from the STP").
/// SUs register their keys with the STP; the SDC looks keys up on demand
/// when it first serves an SU.
struct KeyRegisterMsg {
  std::uint32_t su_id = 0;
  std::vector<std::uint8_t> public_key;  // key_codec serialization

  std::vector<std::uint8_t> encode() const;
  static KeyRegisterMsg decode(const std::vector<std::uint8_t>& bytes);
};

struct KeyLookupMsg {
  std::uint32_t su_id = 0;

  std::vector<std::uint8_t> encode() const;
  static KeyLookupMsg decode(const std::vector<std::uint8_t>& bytes);
};

struct KeyLookupResponseMsg {
  std::uint32_t su_id = 0;
  bool found = false;
  std::vector<std::uint8_t> public_key;  // empty when !found

  std::vector<std::uint8_t> encode() const;
  static KeyLookupResponseMsg decode(const std::vector<std::uint8_t>& bytes);
};

/// One-round denial (DESIGN.md §3.8): the SDC's prefilter proved the
/// request's disclosed block range touches an exhausted budget cell, so the
/// full conversion pipeline is skipped. The payload is a fixed 32 bytes —
/// request id plus an all-zero pad — regardless of grid size, channel
/// count, or which cells were exhausted, so the message reveals exactly the
/// deny bit the full-pipeline response would have revealed and nothing
/// else. decode() enforces the zero pad.
struct FastDenyMsg {
  static constexpr std::size_t kPadBytes = 24;
  static constexpr std::size_t kWireBytes = 8 + kPadBytes;

  std::uint64_t request_id = 0;

  std::vector<std::uint8_t> encode() const;
  static FastDenyMsg decode(const std::vector<std::uint8_t>& bytes);
};

/// SDC → STP budget sign probe (§3.8): blinded ciphertexts ε·(α·Ñ − β̃)
/// for the budget cells touched by a PU fold. Deliberately carries no
/// (group, block) coordinates — the STP sees only which *count* of cells
/// was refreshed, exactly as it sees conversion sizes today. `partials`
/// carries the SDC's threshold co-decryptions in threshold-STP mode.
struct BudgetProbeMsg {
  std::uint64_t probe_id = 0;
  std::vector<crypto::PaillierCiphertext> v;
  std::vector<crypto::PaillierCiphertext> partials;  // empty = classic mode

  std::vector<std::uint8_t> encode(std::size_t ct_width) const;
  static BudgetProbeMsg decode(const std::vector<std::uint8_t>& bytes);
};

/// STP → SDC probe reply: one byte per packed slot of each probed cell,
/// 1 = the decrypted (still ε-masked) slot was positive. The SDC unmasks
/// with its ε to learn sign(N) per slot — one aggregate bit per channel,
/// nothing about magnitudes.
struct BudgetProbeResponseMsg {
  std::uint64_t probe_id = 0;
  std::vector<std::uint8_t> signs;  // v.size() × pack_slots entries

  std::vector<std::uint8_t> encode() const;
  static BudgetProbeResponseMsg decode(const std::vector<std::uint8_t>& bytes);
};

/// Figure 5 step 11: response to the SU — the license body in clear plus
/// G̃^{pk_j}, which decrypts to a *valid* signature iff every interference
/// budget held (eq. (17)).
struct SuResponseMsg {
  std::uint64_t request_id = 0;
  LicenseBody license;
  crypto::PaillierCiphertext g;

  std::vector<std::uint8_t> encode(std::size_t ct_width) const;
  static SuResponseMsg decode(const std::vector<std::uint8_t>& bytes);
};

}  // namespace pisa::core

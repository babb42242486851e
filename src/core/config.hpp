// PISA protocol configuration (paper §III-C, §IV-B).
//
// Validation enforces the arithmetic headroom the blinding tricks need:
// eq. (14) computes α·I − β inside the Paillier plaintext space under the
// centered lift, so |α·I| must stay below n/2. With 60-bit quantized powers
// and an X scalar of ~8 bits, |I| < 2^69; blind_bits more bits of α gives
// |α·I| < 2^(69 + blind_bits), which must fit under paillier_bits − 2.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "watch/config.hpp"

namespace pisa::core {

/// Reliable delivery on the simulated network (net::ReliableTransport).
/// Disabled by default: the perfect-delivery bus reproduces the paper's
/// Figure 6 byte accounting exactly; the chaos suites enable it together
/// with a seeded net::FaultPlan to prove the protocol survives loss,
/// duplication, reordering and corruption. The retry timings are the
/// constants of net::ReliablePolicy{}.
struct ReliabilityConfig {
  bool enabled = false;
};

/// Write-ahead durability for the SDC state engine (DESIGN.md §3.6).
/// Disabled by default: the in-memory engine then behaves exactly like the
/// pre-durability SdcServer, byte for byte. Enabled, every state mutation is
/// journaled to the WAL before it is applied, the engine periodically
/// compacts its log into a sealed snapshot, and a restarted SDC recovers
/// byte-identical Ñ/W̃ state from the store directory.
struct DurabilityConfig {
  bool enabled = false;
  std::string dir;  ///< store directory; required when enabled

  /// Auto-compact after this many WAL records (0 = only explicit
  /// checkpoint() calls compact).
  std::size_t snapshot_every = 256;

  /// License serials are reserved from the WAL in chunks of this size, so
  /// the request hot path journals one tiny record every `serial_reserve`
  /// licenses instead of one per license. A crash skips at most the
  /// unissued remainder of a chunk — serials stay strictly monotonic across
  /// restarts, which is what makes replayed licenses detectable.
  std::size_t serial_reserve = 64;
};

/// Exhausted-cell denial fast path (DESIGN.md §3.8). Disabled by default:
/// the SDC then behaves exactly like the pre-filter server, byte for byte.
/// Enabled, the SDC keeps the exact set of (channel-group, block) cells the
/// STP's budget probes confirmed exhausted, and denies a request whose
/// disclosed block range touches one in one cheap round — no Ṽ blinding, no
/// STP round-trip. Only a confirmed cell denies, so decisions are always
/// identical to the filter-off pipeline (no false denials, ever).
struct DenialFilterConfig {
  bool enabled = false;
};

/// How an SU learns whether its transmission is licensed (DESIGN.md §3.10).
enum class QueryMode {
  /// The paper's pipeline: encrypted F under the group key, blinded Ṽ,
  /// STP conversion, RSA license. Default; every prior suite runs this.
  kPaillier,
  /// XOR multi-server PIR over the plaintext decision database: the SU
  /// splits each row fetch into random shares across non-colluding
  /// replicas and evaluates the margins locally. No modexp on the query
  /// path; the fetched positions are hidden information-theoretically.
  kPir,
};

/// XOR-PIR query path knobs (active when query_mode == kPir).
struct PirConfig {
  /// Non-colluding database replicas (ℓ-of-ℓ XOR sharing). Replica 0 is
  /// hosted inside the SDC process; the rest are standalone servers.
  std::size_t replicas = 2;
};

struct PisaConfig {
  watch::WatchConfig watch;

  std::size_t paillier_bits = 2048;  // group key and SU keys (NIST 112-bit level)
  std::size_t rsa_bits = 1024;       // license signature key
  std::size_t blind_bits = 128;      // α, β, η one-time blinding factors
  int mr_rounds = 16;                // Miller-Rabin rounds for keygen

  /// Compute lanes for the batch homomorphic pipeline (src/exec). 1 =
  /// today's sequential loops. All randomness is sampled sequentially
  /// before the parallel modexp sections, so protocol outputs are
  /// bit-identical at every setting — the knob trades wall-clock only.
  std::size_t num_threads = 1;

  /// Threshold-STP mode (the paper's §VII future-work direction): the group
  /// decryption exponent is 2-of-2 shared between SDC and STP, so the STP
  /// alone can no longer decrypt stored PU/SU ciphertexts — it can only
  /// open the blinded Ṽ values the SDC explicitly co-decrypts during key
  /// conversion. Costs one extra exponentiation per entry at the SDC and
  /// one extra ciphertext per entry on the SDC→STP link.
  bool threshold_stp = false;

  /// Reliable transport over the simulated network (chaos/fault testing).
  ReliabilityConfig reliability;

  /// Write-ahead durability + crash recovery for the SDC state engine.
  DurabilityConfig durability;

  /// One-round denial fast path over confirmed-exhausted cells (§3.8).
  DenialFilterConfig denial_filter;

  /// Spectrum-query transport (§3.10): Paillier round-trip (paper) or the
  /// XOR multi-server PIR fast path. PU provisioning and licensing are
  /// unaffected; only how SUs learn grant/deny changes.
  QueryMode query_mode = QueryMode::kPaillier;

  /// Replica layout for the PIR path.
  PirConfig pir;

  /// Cross-request throughput engine (DESIGN.md §3.5). With
  /// convert_batch_max > 0 the blinded Ṽ entries of concurrent requests are
  /// staged and coalesced into a single ConvertBatchMsg of at most
  /// convert_batch_max entries, so one SDC↔STP round-trip (and one
  /// parallel_for at the STP) serves many SUs. 0 = the paper's per-request
  /// round-trips: each request leaves at once as a one-item batch.
  std::size_t convert_batch_max = 0;

  /// Virtual-time linger before a non-full batch is flushed: the first
  /// staged request arms a timer and later arrivals ride along. 0 still
  /// coalesces requests delivered at the same virtual instant.
  double convert_batch_linger_us = 0.0;

  /// Slot packing (crypto::SlotCodec, DESIGN.md §3.4): fold this many
  /// channel entries into each Paillier plaintext. 1 reproduces the paper's
  /// per-entry layout byte for byte; k > 1 cuts modexps, STP decryptions
  /// and wire bytes by ~k on the PU-update, budget and SDC↔STP paths, at
  /// the cost of one (α, ε) blinding pair covering k channels of the same
  /// request (a privacy/performance dial like the §VI-A block range — see
  /// DESIGN.md §3.4 for the leakage analysis).
  std::size_t pack_slots = 1;

  /// Width of one packed slot: the eq. (14) value envelope |I| < 2^(q+9)
  /// scaled by an α of blind_bits bits, plus β, plus the balanced-digit
  /// sign bit — the guard headroom that keeps homomorphic sums and
  /// α-scaling from ever borrowing across slots.
  std::size_t slot_bits() const {
    return watch.quantizer.max_bits + 9 + blind_bits + 2;
  }

  /// Packed ciphertexts per C-entry channel column: ⌈C / pack_slots⌉.
  std::size_t channel_groups() const {
    return (watch.channels + pack_slots - 1) / pack_slots;
  }

  /// Throws std::invalid_argument when parameter combinations cannot work.
  void validate() const {
    if (paillier_bits < 64 || paillier_bits % 2 != 0)
      throw std::invalid_argument("PisaConfig: bad paillier_bits");
    if (rsa_bits + 2 > paillier_bits)
      throw std::invalid_argument(
          "PisaConfig: rsa_bits must be < paillier_bits (eq. (17) embeds the "
          "signature value in a Paillier plaintext slot)");
    // |I| <= max(N) + X*max(F) < 2^(q+9) with q = quantizer width; every
    // slot must absorb the α-scaled blind of that envelope, and the packed
    // plaintext Σ v_j·B^j must clear the centered lift (|M| < n/2), so the
    // whole slot vector needs paillier_bits − 2 bits of room. This is
    // exactly the "α-scaling overflows a slot" rejection: a config passing
    // here can never borrow across slots in eq. (14).
    if (pack_slots == 0)
      throw std::invalid_argument("PisaConfig: pack_slots must be >= 1");
    if (slot_bits() * pack_slots > paillier_bits - 2)
      throw std::invalid_argument(
          "PisaConfig: slot_bits * pack_slots exceed the plaintext space "
          "(blinding headroom + value width per slot do not fit)");
    if (blind_bits < 8)
      throw std::invalid_argument("PisaConfig: blind_bits too small to hide values");
    if (num_threads == 0)
      throw std::invalid_argument("PisaConfig: num_threads must be >= 1");
    if (durability.enabled && durability.dir.empty())
      throw std::invalid_argument(
          "PisaConfig: durability.dir is required when durability is enabled");
    if (durability.enabled && durability.serial_reserve == 0)
      throw std::invalid_argument(
          "PisaConfig: durability.serial_reserve must be >= 1");
    if (convert_batch_linger_us < 0)
      throw std::invalid_argument(
          "PisaConfig: convert_batch_linger_us must be >= 0");
    if (query_mode == QueryMode::kPir &&
        (pir.replicas < 2 || pir.replicas > 16))
      throw std::invalid_argument(
          "PisaConfig: pir.replicas must be in [2, 16] (one server sees the "
          "query in the clear; more than 16 buys nothing but wire bytes)");
  }
};

}  // namespace pisa::core

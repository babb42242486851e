// Secondary-user client (paper Figure 5, steps 1–2 and the final decrypt).
//
// The SU owns its individual Paillier key pair (pk_j, sk_j); pk_j is
// uploaded to the STP. Requests encrypt the F matrix (eq. (5)) under the
// *group* key pk_G. Preparation has two modes:
//   * fresh      — one full Paillier encryption per entry (paper: ≈221 s at
//                  C×B = 100×600);
//   * pooled     — deterministic encryption times a precomputed r^n factor,
//                  one modular multiplication per entry (paper: ≈11 s after
//                  offline precomputation, §VI-A).
// The response is decrypted with sk_j; the request was granted iff the
// recovered integer is a valid RSA signature over the license body.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "bigint/random_source.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "crypto/paillier.hpp"
#include "crypto/rsa_signature.hpp"
#include "watch/matrices.hpp"

namespace pisa::exec {
class ThreadPool;
}

namespace pisa::core {

/// Request-preparation strategy (§VI-A).
enum class PrepMode {
  kFresh,   ///< full Paillier encryption per entry (paper's 221 s figure)
  kPooled,  ///< deterministic ct × precomputed r^n, all entries (≈11 s figure)
  kHybrid,  ///< fresh for non-zero entries, pooled for the zero bulk — the
            ///< paper's "a portion of the encrypted data is encryptions of 0"
};

class SuClient {
 public:
  SuClient(std::uint32_t su_id, const PisaConfig& cfg,
           crypto::PaillierPublicKey group_pk, bn::RandomSource& rng);

  std::uint32_t su_id() const { return su_id_; }
  const crypto::PaillierPublicKey& public_key() const {
    return keys_.pk;
  }

  /// Precompute `count` r^n randomizer factors (the offline phase). Runs on
  /// the thread pool when one is set.
  void precompute_randomizers(std::size_t count);
  std::size_t randomizers_available() const { return pool_.available(); }

  /// Execution lanes for request preparation (nullptr = sequential).
  void set_thread_pool(std::shared_ptr<exec::ThreadPool> pool);

  /// Build a request from the plaintext F matrix, encrypting columns
  /// [block_lo, block_hi) (full matrix = full location privacy; a narrower
  /// range trades privacy for time, §VI-A). Throws std::invalid_argument if
  /// a non-zero F entry falls outside the disclosed range — that would
  /// silently drop interference the SDC must check.
  SuRequestMsg prepare_request(const watch::QMatrix& f, std::uint64_t request_id,
                               std::uint32_t block_lo, std::uint32_t block_hi,
                               PrepMode mode = PrepMode::kFresh);

  /// Convenience: full-range request.
  SuRequestMsg prepare_request(const watch::QMatrix& f, std::uint64_t request_id,
                               PrepMode mode = PrepMode::kFresh);

  struct Outcome {
    bool granted = false;
    LicenseBody license;
    bn::BigUint signature;  // valid iff granted
  };

  /// Decrypt G̃ and verify the license signature against the issuer's RSA
  /// public key (paper: "SU j decrypts ... if SU j attains a valid
  /// signature ... it can perform WiFi transmission").
  Outcome process_response(const SuResponseMsg& response,
                           const crypto::RsaPublicKey& issuer_key) const;

  /// §3.8 one-round denial: no ciphertext to decrypt, no license to check —
  /// the fixed-size FastDenyMsg *is* the (already-validated) deny bit.
  /// Returns the same denied Outcome the full pipeline would have produced.
  Outcome process_fast_deny(const FastDenyMsg& deny) const;

 private:
  std::uint32_t su_id_;
  PisaConfig cfg_;
  crypto::PaillierPublicKey group_pk_;
  bn::RandomSource& rng_;
  crypto::PaillierKeyPair keys_;
  crypto::RandomizerPool pool_;
  std::shared_ptr<exec::ThreadPool> exec_;
};

}  // namespace pisa::core

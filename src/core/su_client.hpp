// Secondary-user client (paper Figure 5, steps 1–2 and the final decrypt).
//
// The SU owns its individual Paillier key pair (pk_j, sk_j); pk_j is
// uploaded to the STP. Requests encrypt the F matrix (eq. (5)) under the
// *group* key pk_G, each packed entry as E_det(m) times the next r^n factor
// of the SU's crypto::RandomizerSource. A factor computed before the
// request (precompute_randomizers, the paper's ≈11 s pooled preparation,
// §VI-A) costs one modular multiplication at request time; one computed
// inline costs the modexp of a full encryption (≈221 s at C×B = 100×600).
// Either way the request's bytes are the same.
// The response is decrypted with sk_j; the request was granted iff the
// recovered integer is a valid RSA signature over the license body.
#pragma once

#include <cstdint>
#include <memory>

#include "bigint/random_source.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "crypto/paillier.hpp"
#include "crypto/randomizer_source.hpp"
#include "crypto/rsa_signature.hpp"
#include "watch/matrices.hpp"

namespace pisa::exec {
class ThreadPool;
}

namespace pisa::core {

class SuClient {
 public:
  SuClient(std::uint32_t su_id, const PisaConfig& cfg,
           crypto::PaillierPublicKey group_pk, bn::RandomSource& rng);

  std::uint32_t su_id() const { return su_id_; }
  const crypto::PaillierPublicKey& public_key() const {
    return keys_.pk;
  }

  /// The offline phase: compute the next r^n factors until `count` are
  /// cached. Runs on the thread pool when one is set.
  void precompute_randomizers(std::size_t count);
  std::size_t randomizers_available() const { return source_.cached(); }

  /// Execution lanes for request preparation (nullptr = sequential).
  void set_thread_pool(std::shared_ptr<exec::ThreadPool> pool);

  /// Build a request from the plaintext F matrix, encrypting columns
  /// [block_lo, block_hi) (full matrix = full location privacy; a narrower
  /// range trades privacy for time, §VI-A). Throws std::invalid_argument if
  /// a non-zero F entry falls outside the disclosed range — that would
  /// silently drop interference the SDC must check. Takes one source index
  /// per packed entry, in entry order.
  SuRequestMsg prepare_request(const watch::QMatrix& f, std::uint64_t request_id,
                               std::uint32_t block_lo, std::uint32_t block_hi);

  /// Convenience: full-range request.
  SuRequestMsg prepare_request(const watch::QMatrix& f, std::uint64_t request_id);

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
  crypto::PaillierKeyPair keys_;
  /// r^n factors under pk_G; seeded from the construction rng right after
  /// keygen, and the only randomness a request uses.
  crypto::RandomizerSource source_;
  std::shared_ptr<exec::ThreadPool> exec_;
};

}  // namespace pisa::core

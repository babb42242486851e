// One source of Paillier r^n factors per key (paper §VI-A; DESIGN.md §3.5).
//
// The r^n factor is the expensive half of a Paillier encryption and does
// not depend on the plaintext, so it can be computed before the request —
// the paper's "pre-stored ciphertexts times r^n" trick that turns ≈221 s of
// request preparation into ≈11 s. A source numbers its factors: factor k is
// r^n mod n² with r = random_coprime(ChaChaRng{seed, k}, n). Encryptions
// take indices 0, 1, 2, … in order, each factor from the cache when it was
// computed ahead and inline otherwise — the same value either way. A
// ciphertext therefore depends only on (seed, index, plaintext): never on
// how much was precomputed, on the thread count, or on what any other
// party drew. The SU, the PU and the STP (one source per SU key) all
// encrypt through this one type.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "bigint/biguint.hpp"
#include "bigint/random_source.hpp"
#include "crypto/chacha_rng.hpp"
#include "crypto/paillier.hpp"

namespace pisa::exec {
class ThreadPool;
}

namespace pisa::crypto {

class RandomizerSource {
 public:
  using Seed = std::array<std::uint8_t, ChaChaRng::kSeedSize>;

  RandomizerSource(PaillierPublicKey pk, const Seed& seed);
  /// Draws the 32-byte seed from `rng`, once; nothing else ever reads it.
  RandomizerSource(PaillierPublicKey pk, bn::RandomSource& rng);

  const PaillierPublicKey& public_key() const { return pk_; }

  /// Factor `index`. Reads only the key and the seed, so any thread may
  /// call it while the owner takes, offers or precomputes.
  bn::BigUint factor(std::uint64_t index) const;

  /// Factors cached ahead: those of the next cached() indices.
  std::size_t cached() const { return ready_.size(); }
  /// The index the cache takes next (offer() accepts only this one).
  std::uint64_t next_missing() const { return next_ + ready_.size(); }

  /// The next `count` indices, taken in order. The cached factors of the
  /// first of them move into the reservation; factor(r, i) computes the
  /// rest.
  struct Reservation {
    std::uint64_t first = 0;
    std::vector<bn::BigUint> cached;
  };
  Reservation take(std::size_t count);

  /// The factor of index r.first + i: moved out of the reservation when it
  /// was cached, computed now otherwise. Distinct i may run on distinct
  /// threads.
  bn::BigUint factor(Reservation& r, std::size_t i) const;

  /// Cache `f` as factor `index` if that is next_missing(); otherwise drop
  /// it (an encryption took the index inline meanwhile). Returns whether
  /// it was kept.
  bool offer(std::uint64_t index, bn::BigUint f);

  /// Compute the missing factors until `count` are cached, on `pool`.
  void precompute(std::size_t count, exec::ThreadPool* pool = nullptr);

  /// out[i] = E_det(ms[i]) · factor of the i-th of ms.size() taken indices;
  /// uncached factors are computed inside the same parallel_for. Throws
  /// std::out_of_range, taking nothing, if any m ≥ n.
  std::vector<PaillierCiphertext> encrypt(std::span<const bn::BigUint> ms,
                                          exec::ThreadPool* pool = nullptr);

 private:
  PaillierPublicKey pk_;
  Seed seed_;
  std::uint64_t next_ = 0;  ///< first index not yet taken
  std::deque<bn::BigUint> ready_;  ///< factors of next_, next_ + 1, …
};

}  // namespace pisa::crypto

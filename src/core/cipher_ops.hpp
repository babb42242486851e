// Batch homomorphic operations over ciphertext matrices (the SDC's Ñ
// budget, eq. (9)/(10)). Every entry of a column/matrix op is independent,
// so these are the natural parallel_for kernels the SdcServer routes
// through; a null pool degrades to the original sequential loops.
//
// With slot packing (crypto::SlotCodec, DESIGN.md §3.4) the matrices shrink
// from C×B to ⌈C/k⌉×B: each "channel" row is a channel *group* of k packed
// slots, and the column kernels below fold k protocol entries per
// homomorphic multiplication without change — packed addition is ordinary
// ciphertext addition.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/packing.hpp"
#include "crypto/paillier.hpp"
#include "radio/grid.hpp"
#include "watch/matrices.hpp"

namespace pisa::exec {
class ThreadPool;
}

namespace pisa::core {

using CipherMatrix = radio::CbMatrix<crypto::PaillierCiphertext>;

/// m(c, block) ⊕= column[c] for every channel c (one PU update column).
void add_column(CipherMatrix& m, std::uint32_t block,
                std::span<const crypto::PaillierCiphertext> column,
                const crypto::PaillierPublicKey& pk,
                exec::ThreadPool* pool = nullptr);

/// m(c, block) ⊖= column[c] for every channel c (retracting a stale column).
void sub_column(CipherMatrix& m, std::uint32_t block,
                std::span<const crypto::PaillierCiphertext> column,
                const crypto::PaillierPublicKey& pk,
                exec::ThreadPool* pool = nullptr);

/// Deterministic encryption of a public plaintext matrix (budget
/// initialization from E; values must be >= 0), packed: folds the C channel
/// rows of `values` into ⌈C / codec.slots()⌉ channel-group rows,
/// codec.slots() entries per ciphertext (slot j of group g holds channel
/// g·k + j). Unused slots of the last group are seeded with `tail_fill` —
/// the SDC passes 1 so tail slots behave like always-satisfiable budget
/// entries through eq. (14)/(15) instead of tripping the V > 0 check.
CipherMatrix encrypt_matrix_packed_deterministic(
    const watch::QMatrix& values, const crypto::PaillierPublicKey& pk,
    const crypto::SlotCodec& codec, std::int64_t tail_fill,
    exec::ThreadPool* pool = nullptr);

}  // namespace pisa::core

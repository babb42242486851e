// The SDC's Ñ budget matrix (eq. (9)/(10)) and its deterministic
// initialization from the public matrix E. Every entry is independent, so
// the encryption runs as one parallel_for; a null pool degrades to the
// sequential loop.
//
// With slot packing (crypto::SlotCodec, DESIGN.md §3.4) the matrix shrinks
// from C×B to ⌈C/k⌉×B: each "channel" row is a channel *group* of k packed
// slots, and a homomorphic multiplication folds k protocol entries without
// change — packed addition is ordinary ciphertext addition.
#pragma once

#include <cstdint>

#include "crypto/packing.hpp"
#include "crypto/paillier.hpp"
#include "radio/grid.hpp"
#include "watch/matrices.hpp"

namespace pisa::exec {
class ThreadPool;
}

namespace pisa::core {

using CipherMatrix = radio::CbMatrix<crypto::PaillierCiphertext>;

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

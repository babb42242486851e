#include "pir/pir_database.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "exec/thread_pool.hpp"

namespace pisa::pir {

namespace {

// The scan is the GF(2) matrix product Q·D: Q is the S × R matrix of share
// bits, D the R × row_bytes database, and output row s = XOR of the rows
// share s selects. The method of Four Russians cuts the rows into groups of
// kGroupRows; for each group it tabulates all 2^k XOR combinations of the
// group's rows once, and every share then folds the one entry its k bits
// select. The product runs one 64-byte column slice at a time, so slices
// are independent, and within a slice kChunkGroups groups at a time: the
// chunk's tables (kChunkGroups · 2^k · 64 B = 16 KB) stay in L1, and each
// share folds the chunk's entries in a register, loading and storing its
// output line once per chunk instead of once per group. At the paper's
// shape (600 rows × 832 B, 162 shares) that is, per column line, 2 250
// table XORs and 25 920 entry folds but only 3 240 output loads and
// stores, where folding each group's entry into the output took 32 400.
// The constants were chosen by measurement at that shape (DESIGN.md §3.10).
constexpr unsigned kGroupRows = 4;
constexpr std::size_t kChunkGroups = 16;
constexpr std::size_t kTableEntries = std::size_t{1} << kGroupRows;
static_assert(8 % kGroupRows == 0, "a group's bits must sit in one share byte");
constexpr std::size_t kGroupsPerByte = 8 / kGroupRows;
static_assert(kChunkGroups % kGroupsPerByte == 0,
              "a share's last byte must not index past its last chunk");

/// One 64-byte cache line as a compiler vector: XOR of two lines lowers to
/// four SSE2 XORs in the portable build and to one under AVX-512F. memcpy
/// keeps the loads alignment-safe (outputs are plain heap rows).
typedef std::uint64_t Line __attribute__((vector_size(64)));

[[gnu::always_inline]] inline void xor_line(Line& acc, const std::uint8_t* p) {
  Line x;
  std::memcpy(&x, p, 64);
  acc ^= x;
}

struct Product {
  const std::uint8_t* data;  // the database, rows × row_bytes
  std::size_t rows, row_bytes;
  const std::uint8_t* idx;   // [share][group] table indices
  std::size_t shares;
  std::size_t idx_stride;    // groups, rounded up to whole chunks
  std::uint8_t* out;         // shares × row_bytes
};

/// Fold column line [off, off + 64) of every output. The single source body
/// of the kernel; instantiated below for the portable target and, on
/// x86-64, for AVX-512F.
[[gnu::always_inline]] inline void product_slice_body(const Product& p,
                                                      std::size_t off) {
  alignas(64) std::uint8_t tables[kChunkGroups * kTableEntries * 64];
  // Entry 0 of every table is the empty combination. Gray-code order never
  // rewrites it, so it stays zero: the padding groups of a short last chunk
  // carry index 0 and fold nothing.
  for (std::size_t t = 0; t < kChunkGroups; ++t)
    std::memset(tables + t * kTableEntries * 64, 0, 64);
  const std::size_t groups = (p.rows + kGroupRows - 1) / kGroupRows;
  for (std::size_t g0 = 0; g0 < groups; g0 += kChunkGroups) {
    const std::size_t in_chunk = std::min(kChunkGroups, groups - g0);
    for (std::size_t t = 0; t < in_chunk; ++t) {
      const std::size_t base = (g0 + t) * kGroupRows;
      const auto k = static_cast<unsigned>(
          std::min<std::size_t>(kGroupRows, p.rows - base));
      // Gray-code order: entry gray(i) is entry gray(i-1) plus one row, so
      // the running combination stays in a register and every entry costs
      // one line XOR.
      const std::uint8_t* group = p.data + base * p.row_bytes + off;
      std::uint8_t* table = tables + t * kTableEntries * 64;
      Line acc{};
      for (unsigned i = 1; i < (1u << k); ++i) {
        xor_line(acc, group + static_cast<std::size_t>(__builtin_ctz(i)) *
                                  p.row_bytes);
        std::memcpy(table + (i ^ (i >> 1)) * 64, &acc, 64);
      }
    }
    const std::uint8_t* idx = p.idx + g0;
    for (std::size_t s = 0; s < p.shares; ++s, idx += p.idx_stride) {
      std::uint8_t* out = p.out + s * p.row_bytes + off;
      Line acc{};
      if (g0 != 0) std::memcpy(&acc, out, 64);
      for (std::size_t t = 0; t < kChunkGroups; ++t)
        xor_line(acc, tables + (t * kTableEntries + idx[t]) * 64);
      std::memcpy(out, &acc, 64);
    }
  }
}

using SliceFn = void (*)(const Product&, std::size_t);

void product_slice_portable(const Product& p, std::size_t off) {
  product_slice_body(p, off);
}

#if defined(__x86_64__)
__attribute__((target("avx512f"))) void product_slice_avx512(
    const Product& p, std::size_t off) {
  product_slice_body(p, off);
}

/// The AVX-512F instantiation where the CPU has it (probed once, like the
/// Montgomery IFMA backend); the bytes are the same either way.
SliceFn pick_slice_kernel() {
  static const SliceFn fn = __builtin_cpu_supports("avx512f")
                                ? product_slice_avx512
                                : product_slice_portable;
  return fn;
}
#else
SliceFn pick_slice_kernel() { return product_slice_portable; }
#endif

}  // namespace

PirDatabase::PirDatabase(std::size_t channels, std::size_t blocks)
    : channels_(channels), blocks_(blocks), row_bytes_(stride(channels)),
      data_(blocks * row_bytes_, 0) {
  if (channels == 0 || blocks == 0)
    throw std::invalid_argument("PirDatabase: empty grid");
}

void PirDatabase::set_cell(std::size_t channel, std::size_t block,
                           std::int64_t value) {
  if (channel >= channels_ || block >= blocks_)
    throw std::out_of_range("PirDatabase: bad (channel, block)");
  std::uint64_t le = static_cast<std::uint64_t>(value);
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i)
    buf[i] = static_cast<std::uint8_t>(le >> (8 * i));
  std::memcpy(&data_[block * row_bytes_ + channel * 8], buf, 8);
}

std::int64_t PirDatabase::cell(std::size_t channel, std::size_t block) const {
  if (channel >= channels_ || block >= blocks_)
    throw std::out_of_range("PirDatabase: bad (channel, block)");
  return row_budget(&data_[block * row_bytes_], channel);
}

std::vector<std::uint8_t> PirDatabase::scan(
    std::span<const std::uint8_t> shares, exec::ThreadPool* pool) const {
  const std::size_t sb = share_bytes();
  if (shares.size() % sb != 0)
    throw std::invalid_argument("PirDatabase::scan: ragged shares");
  const std::size_t count = shares.size() / sb;
  if (count == 0) return {};

  // Transpose the share bits once into per-group table indices,
  // idx[share][group], a share byte at a time. Bits past rows() never reach
  // an index, exactly as a row-by-row sweep ignores them: the last group is
  // masked to its rows, and the padding groups up to the last whole chunk,
  // which a share's last byte may have filled, are cleared.
  const std::size_t groups = (blocks_ + kGroupRows - 1) / kGroupRows;
  const std::size_t stride =
      (groups + kChunkGroups - 1) / kChunkGroups * kChunkGroups;
  const unsigned tail_rows = blocks_ % kGroupRows;
  std::vector<std::uint8_t> idx(count * stride);
  for (std::size_t s = 0; s < count; ++s) {
    const std::uint8_t* share = shares.data() + s * sb;
    std::uint8_t* dst = idx.data() + s * stride;
    for (std::size_t j = 0; j < sb; ++j)
      for (std::size_t q = 0; q < kGroupsPerByte; ++q)
        dst[j * kGroupsPerByte + q] = static_cast<std::uint8_t>(
            (share[j] >> (q * kGroupRows)) & (kTableEntries - 1));
    if (tail_rows != 0) dst[groups - 1] &= (1u << tail_rows) - 1;
    std::fill(dst + groups, dst + stride, 0);
  }

  std::vector<std::uint8_t> out(count * row_bytes_);
  const Product p{data_.data(), blocks_, row_bytes_, idx.data(), count,
                  stride, out.data()};
  const SliceFn slice = pick_slice_kernel();
  exec::parallel_for(pool, 0, row_bytes_ / 64,
                     [&](std::size_t j) { slice(p, j * 64); });
  return out;
}

std::vector<std::vector<std::uint8_t>> PirDatabase::scan_many(
    const std::vector<std::vector<std::uint8_t>>& shares,
    exec::ThreadPool* pool) const {
  const std::size_t sb = share_bytes();
  std::vector<std::uint8_t> flat;
  flat.reserve(shares.size() * sb);
  for (const auto& s : shares) {
    if (s.size() < sb)
      throw std::invalid_argument("PirDatabase::scan_many: share too short");
    flat.insert(flat.end(), s.begin(),
                s.begin() + static_cast<std::ptrdiff_t>(sb));
  }
  const auto rows = scan(flat, pool);
  std::vector<std::vector<std::uint8_t>> out(shares.size());
  for (std::size_t s = 0; s < out.size(); ++s) {
    const auto* row = rows.data() + s * row_bytes_;
    out[s].assign(row, row + row_bytes_);
  }
  return out;
}

std::vector<std::int64_t> PirDatabase::decode_row(
    const std::vector<std::uint8_t>& row) const {
  if (row.size() != row_bytes_)
    throw std::invalid_argument("PirDatabase::decode_row: bad row width");
  return decode_budget_row(row, channels_);
}

std::vector<std::int64_t> decode_budget_row(const std::vector<std::uint8_t>& row,
                                            std::size_t channels) {
  if (row.size() < channels * 8)
    throw std::invalid_argument("decode_budget_row: row too short");
  std::vector<std::int64_t> values(channels);
  for (std::size_t c = 0; c < channels; ++c)
    values[c] = row_budget(row.data(), c);
  return values;
}

}  // namespace pisa::pir

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
// select. The product is computed one column slice of kSliceLines cache
// lines at a time, so a slice's table (2^k · 128 B = 8 KB) and the S output
// slices it feeds stay in L1/L2. Both constants were chosen by measurement
// at the paper's shape (600 rows × 832 B, 162 shares).
constexpr unsigned kGroupRows = 6;
constexpr std::size_t kSliceLines = 2;
constexpr std::size_t kSliceBytes = kSliceLines * 64;
constexpr std::size_t kTableEntries = std::size_t{1} << kGroupRows;
static_assert(kGroupRows <= 8, "a group's bits must fit one uint8_t index "
                                "read from at most two share bytes");

/// One 64-byte cache line as a compiler vector: XOR of two lines lowers to
/// four SSE2 XORs in the portable build and to one under AVX-512F. memcpy
/// keeps the loads alignment-safe (outputs are plain heap rows).
typedef std::uint64_t Line __attribute__((vector_size(64)));

[[gnu::always_inline]] inline void xor_line(std::uint8_t* dst,
                                            const std::uint8_t* a,
                                            const std::uint8_t* b) {
  Line x, y;
  std::memcpy(&x, a, 64);
  std::memcpy(&y, b, 64);
  x ^= y;
  std::memcpy(dst, &x, 64);
}

struct Product {
  const std::uint8_t* data;  // the database, rows × row_bytes
  std::size_t rows, row_bytes;
  const std::uint8_t* idx;   // [group][share] k-bit table indices
  std::size_t shares;
  std::uint8_t* const* out;  // one zeroed row_bytes output per share
};

/// Fold column slice [off, off + kSliceBytes) of every output. The single
/// source body of the kernel; instantiated below for the portable target
/// and, on x86-64, for AVX-512F.
[[gnu::always_inline]] inline void product_slice_body(const Product& p,
                                                      std::size_t off) {
  const std::size_t lines = std::min(kSliceBytes, p.row_bytes - off) / 64;
  alignas(64) std::uint8_t table[kTableEntries * kSliceBytes];
  std::memset(table, 0, kSliceBytes);  // entry 0: the empty combination
  for (std::size_t base = 0, g = 0; base < p.rows; base += kGroupRows, ++g) {
    const auto k = static_cast<unsigned>(
        std::min<std::size_t>(kGroupRows, p.rows - base));
    // Gray-code order: entry gray(i) is entry gray(i-1) plus one row, so
    // every entry costs one line XOR per line of the slice.
    const std::uint8_t* group = p.data + base * p.row_bytes + off;
    for (unsigned i = 1; i < (1u << k); ++i) {
      const unsigned cur = i ^ (i >> 1), prev = (i - 1) ^ ((i - 1) >> 1);
      const std::uint8_t* row =
          group + static_cast<std::size_t>(__builtin_ctz(i)) * p.row_bytes;
      for (std::size_t l = 0; l < lines; ++l)
        xor_line(table + cur * kSliceBytes + l * 64,
                 table + prev * kSliceBytes + l * 64, row + l * 64);
    }
    const std::uint8_t* idx = p.idx + g * p.shares;
    for (std::size_t s = 0; s < p.shares; ++s) {
      const std::uint8_t* entry = table + std::size_t{idx[s]} * kSliceBytes;
      std::uint8_t* acc = p.out[s] + off;
      for (std::size_t l = 0; l < lines; ++l)
        xor_line(acc + l * 64, acc + l * 64, entry + l * 64);
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
    : channels_(channels), blocks_(blocks),
      row_bytes_((channels * 8 + 63) / 64 * 64),
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
  const std::uint8_t* p = &data_[block * row_bytes_ + channel * 8];
  std::uint64_t le = 0;
  for (int i = 0; i < 8; ++i)
    le |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return static_cast<std::int64_t>(le);
}

std::vector<std::vector<std::uint8_t>> PirDatabase::scan_many(
    const std::vector<std::vector<std::uint8_t>>& shares,
    exec::ThreadPool* pool) const {
  const std::size_t share_bytes = (blocks_ + 7) / 8;
  for (const auto& s : shares)
    if (s.size() < share_bytes)
      throw std::invalid_argument("PirDatabase::scan_many: share too short");
  if (shares.empty()) return {};

  // Transpose the share bits once into per-group table indices. Bits past
  // rows() never reach an index, exactly as a row-by-row sweep ignores them.
  const std::size_t groups = (blocks_ + kGroupRows - 1) / kGroupRows;
  std::vector<std::uint8_t> idx(groups * shares.size());
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t bit = g * kGroupRows, byte = bit >> 3, shift = bit & 7;
    const std::size_t k = std::min<std::size_t>(kGroupRows, blocks_ - bit);
    const unsigned mask = (1u << k) - 1;
    for (std::size_t s = 0; s < shares.size(); ++s) {
      unsigned v = shares[s][byte] >> shift;
      if (shift + k > 8) v |= unsigned{shares[s][byte + 1]} << (8 - shift);
      idx[g * shares.size() + s] = static_cast<std::uint8_t>(v & mask);
    }
  }

  std::vector<std::vector<std::uint8_t>> out(shares.size());
  std::vector<std::uint8_t*> acc(shares.size());
  for (std::size_t s = 0; s < shares.size(); ++s) {
    out[s].assign(row_bytes_, 0);
    acc[s] = out[s].data();
  }
  const Product p{data_.data(), blocks_, row_bytes_,
                  idx.data(), shares.size(), acc.data()};
  const SliceFn slice = pick_slice_kernel();
  const std::size_t slices = (row_bytes_ + kSliceBytes - 1) / kSliceBytes;
  exec::parallel_for(pool, 0, slices,
                     [&](std::size_t j) { slice(p, j * kSliceBytes); });
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
  for (std::size_t c = 0; c < channels; ++c) {
    std::uint64_t le = 0;
    for (int i = 0; i < 8; ++i)
      le |= static_cast<std::uint64_t>(row[c * 8 + i]) << (8 * i);
    values[c] = static_cast<std::int64_t>(le);
  }
  return values;
}

}  // namespace pisa::pir

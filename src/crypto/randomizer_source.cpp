#include "crypto/randomizer_source.hpp"

#include <stdexcept>
#include <utility>

#include "exec/thread_pool.hpp"

namespace pisa::crypto {

namespace {

RandomizerSource::Seed draw_seed(bn::RandomSource& rng) {
  RandomizerSource::Seed seed{};
  rng.fill(seed);
  return seed;
}

}  // namespace

RandomizerSource::RandomizerSource(PaillierPublicKey pk, const Seed& seed)
    : pk_(std::move(pk)), seed_(seed) {}

RandomizerSource::RandomizerSource(PaillierPublicKey pk, bn::RandomSource& rng)
    : RandomizerSource(std::move(pk), draw_seed(rng)) {}

bn::BigUint RandomizerSource::factor(std::uint64_t index) const {
  ChaChaRng r_stream{seed_, index};
  return pk_.make_randomizer(r_stream);
}

RandomizerSource::Reservation RandomizerSource::take(std::size_t count) {
  Reservation r{next_, {}};
  while (r.cached.size() < count && !ready_.empty()) {
    r.cached.push_back(std::move(ready_.front()));
    ready_.pop_front();
  }
  next_ += count;
  return r;
}

bn::BigUint RandomizerSource::factor(Reservation& r, std::size_t i) const {
  if (i < r.cached.size()) return std::move(r.cached[i]);
  return factor(r.first + i);
}

bool RandomizerSource::offer(std::uint64_t index, bn::BigUint f) {
  if (index != next_missing()) return false;
  ready_.push_back(std::move(f));
  return true;
}

void RandomizerSource::precompute(std::size_t count, exec::ThreadPool* pool) {
  if (ready_.size() >= count) return;
  const std::uint64_t first = next_missing();
  std::vector<bn::BigUint> factors(count - ready_.size());
  exec::parallel_for(pool, 0, factors.size(),
                     [&](std::size_t i) { factors[i] = factor(first + i); });
  for (auto& f : factors) ready_.push_back(std::move(f));
}

std::vector<PaillierCiphertext> RandomizerSource::encrypt(
    std::span<const bn::BigUint> ms, exec::ThreadPool* pool) {
  for (const auto& m : ms)
    if (m >= pk_.n()) throw std::out_of_range("RandomizerSource: m >= n");
  auto r = take(ms.size());
  std::vector<PaillierCiphertext> out(ms.size());
  exec::parallel_for(pool, 0, ms.size(), [&](std::size_t i) {
    out[i] = pk_.rerandomize_with(pk_.encrypt_deterministic(ms[i]), factor(r, i));
  });
  return out;
}

}  // namespace pisa::crypto

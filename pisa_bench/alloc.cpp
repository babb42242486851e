// Cache-line-aligned global operator new for the benchmark's process.
//
// The AVX-512 IFMA Montgomery kernel (src/bigint/montgomery_ifma.cpp) reads
// and writes its accumulator and operands with unaligned 64-byte vector
// loads and stores, on std::vector buffers that malloc aligns to 16 bytes
// only. Whether a thread's scratch buffers straddle cache lines then depends
// on the heap's state when they were first allocated, so it changes from one
// process to the next: with the default allocator, about two in five
// paillier_open processes ran their SDC phases and PU folds 1.5-1.8 times
// slower and served half the requests per second for their whole run, with
// the same seed and inputs. Aligning every allocation of a cache line or
// more to 64 bytes makes every process take the aligned path, so a run's
// numbers depend on the code and the inputs, not on where the heap happened
// to put a buffer.
//
// The alignment is done over malloc, not with posix_memalign: glibc serves
// memalign from the arena under its lock, past the per-thread cache, which
// made a town PIR request's preparation 60% slower. Each block carries the
// pointer malloc returned in the word just below the address handed out.
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

constexpr std::size_t kCacheLine = 64;
constexpr std::size_t kMallocAlign = 16;  // what glibc's malloc guarantees

void* allocate(std::size_t n) {
  const std::size_t align = n >= kCacheLine ? kCacheLine : kMallocAlign;
  // malloc's 16-byte alignment puts the first aligned address with room for
  // the header word at most `align` bytes in.
  void* raw = std::malloc(n + align);
  if (raw == nullptr) throw std::bad_alloc();
  const auto at = (reinterpret_cast<std::uintptr_t>(raw) + sizeof(void*) +
                   align - 1) & ~(align - 1);
  reinterpret_cast<void**>(at)[-1] = raw;
  return reinterpret_cast<void*>(at);
}

void* allocate_nothrow(std::size_t n) noexcept {
  try {
    return allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void release(void* p) noexcept {
  if (p != nullptr) std::free(static_cast<void**>(p)[-1]);
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate_nothrow(n);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

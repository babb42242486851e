// net::DedupWindow: the compact (interned sender, seq) ring + open-addressed
// index must answer exactly like the set-plus-FIFO window it replaced —
// global FIFO eviction at capacity included — and a frame from a sender
// that already has frames in the window must not allocate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <new>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/reliable_channel.hpp"

// --- global allocator hook ---------------------------------------------
// Counts every heap allocation in the test binary; only the steady-state
// test below looks at the counter.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pisa::net {
namespace {

// The reference model: the std::set + std::deque window.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(std::size_t cap) : cap_(cap) {}

  bool first_time(const std::string& sender, std::uint64_t seq) {
    if (seq == 0) return true;
    auto [it, inserted] = seen_.emplace(sender, seq);
    if (!inserted) return false;
    order_.push_back(*it);
    while (order_.size() > cap_) {
      seen_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

 private:
  std::size_t cap_;
  std::set<std::pair<std::string, std::uint64_t>> seen_;
  std::deque<std::pair<std::string, std::uint64_t>> order_;
};

TEST(DedupWindow, MatchesReferenceModelOnSeededStreams) {
  for (std::size_t cap : {1u, 2u, 3u, 7u, 64u, 500u}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      std::mt19937_64 rng{seed * 1000 + cap};
      DedupWindow win{cap};
      ReferenceWindow ref{cap};
      // Few senders and a seq range near the capacity: plenty of replays,
      // of both remembered and already-evicted frames, and senders that
      // drop out of the window entirely and come back.
      const std::size_t senders = 1 + seed * 2;
      const std::uint64_t seq_range = 2 * cap + 3;
      for (int step = 0; step < 6000; ++step) {
        const std::string sender = "node" + std::to_string(rng() % senders);
        const std::uint64_t seq = rng() % seq_range;  // 0 = raw delivery
        ASSERT_EQ(win.first_time(sender, seq), ref.first_time(sender, seq))
            << "cap " << cap << " seed " << seed << " step " << step;
      }
    }
  }
}

TEST(DedupWindow, EvictsGloballyOldestAcrossSenders) {
  DedupWindow win{3};
  EXPECT_TRUE(win.first_time("a", 1));
  EXPECT_TRUE(win.first_time("b", 1));
  EXPECT_TRUE(win.first_time("b", 2));
  EXPECT_FALSE(win.first_time("a", 1)) << "still inside the window";
  EXPECT_TRUE(win.first_time("c", 9));   // evicts ("a", 1)
  EXPECT_TRUE(win.first_time("a", 1)) << "evicted: forgotten";
  EXPECT_FALSE(win.first_time("c", 9));
  EXPECT_TRUE(win.first_time("b", 1)) << "evicted by the re-insert above";
}

TEST(DedupWindow, ZeroCapacityRemembersNothing) {
  DedupWindow win{0};
  EXPECT_TRUE(win.first_time("a", 1));
  EXPECT_TRUE(win.first_time("a", 1));
}

TEST(DedupWindow, KnownSendersDoNotAllocateAfterConstruction) {
  DedupWindow win{256};
  const std::vector<std::string> senders = {"sdc", "stp", "pir_replica_0",
                                            "a-much-longer-sender-name-x"};
  std::uint64_t seq = 1;
  // Warm-up: every sender gets frames in the window and the ring fills.
  for (int i = 0; i < 512; ++i) (void)win.first_time(senders[i % 4], seq++);

  const std::uint64_t before = g_alloc_count.load();
  std::size_t fresh = 0, replays = 0;
  for (int i = 0; i < 4096; ++i) {
    // Round-robin keeps every sender's frames in the window while the
    // ring evicts; every 5th call replays a recent frame.
    if (i % 5 == 4) {
      replays += win.first_time(senders[(seq - 2) % 4], seq - 2) ? 0 : 1;
    } else {
      fresh += win.first_time(senders[seq % 4], seq) ? 1 : 0;
      ++seq;
    }
  }
  EXPECT_EQ(g_alloc_count.load(), before);
  EXPECT_EQ(replays, 4096u / 5);
  EXPECT_EQ(fresh, 4096u - 4096u / 5);
}

}  // namespace
}  // namespace pisa::net

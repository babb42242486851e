// Work-stealing pool contract tests: every index visited exactly once at
// any lane count, exceptions propagate to the caller, and the free-function
// wrapper degrades to a plain loop with a null pool. The stress tests run
// many tiny jobs back to back, the PIR scan among them, for the ASan job.
#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "bigint/random_source.hpp"
#include "pir/pir_database.hpp"

namespace pisa::exec {
namespace {

TEST(ThreadPool, NullPoolRunsSequentially) {
  std::vector<std::size_t> order;
  parallel_for(nullptr, 3, 8, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 4, 5, 6, 7}));
}

TEST(ThreadPool, SingleLaneRunsSequentiallyInOrder) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<std::size_t> order;
  parallel_for(&pool, 0, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce) {
  for (std::size_t threads : {2u, 4u, 7u}) {
    ThreadPool pool{threads};
    EXPECT_EQ(pool.num_threads(), threads);
    constexpr std::size_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    parallel_for(&pool, 0, kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool{4};
  std::atomic<int> calls{0};
  parallel_for(&pool, 5, 5, [&](std::size_t) { ++calls; });
  parallel_for(&pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool{4};
  EXPECT_THROW(
      parallel_for(&pool, 0, 100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool survives a throwing job and remains usable.
  std::atomic<int> count{0};
  parallel_for(&pool, 0, 50, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool{3};
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    parallel_for(&pool, 0, 100,
                 [&](std::size_t i) { sum.fetch_add(i + 1); });
    ASSERT_EQ(sum.load(), 5050u);
  }
}

TEST(ThreadPool, ManyTinyJobsNeverOutliveTheirCaller) {
  // Regression for a use-after-scope: the Job lives on the caller's stack,
  // and a finishing task once decremented its counter before locking its
  // mutex, so the caller could see zero, return and destroy the Job while
  // the task still reached for it. Tiny jobs make that window common.
  // ThreadSanitizer reports the old order here as a data race on the
  // Job's mutex; the late accesses sit inside pthread calls, which ASan
  // does not check.
  constexpr int kRounds = 100'000;
  for (std::size_t lanes : {2, 4}) {
    ThreadPool pool{lanes};
    std::vector<int> hits(lanes, 0);
    for (int round = 0; round < kRounds; ++round)
      parallel_for(&pool, 0, lanes, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < lanes; ++i)
      EXPECT_EQ(hits[i], kRounds) << lanes << " lanes, slot " << i;
  }
}

TEST(ThreadPool, ManyPooledPirScansMatchSequential) {
  // The PIR answer path under the same stress. The town shape (6 rows of
  // one cache line) is a single column slice and runs on the caller; the
  // 64-channel rows are four slices and spread over the lanes.
  bn::SplitMix64Random r{17};
  for (std::size_t channels : {4, 64}) {
    pir::PirDatabase db{channels, 6};
    for (std::size_t b = 0; b < 6; ++b)
      for (std::size_t c = 0; c < channels; ++c)
        db.set_cell(c, b, static_cast<std::int64_t>(r.next_u64()));
    std::vector<std::vector<std::uint8_t>> shares(6,
                                                  std::vector<std::uint8_t>(1));
    for (auto& s : shares)
      s[0] = static_cast<std::uint8_t>(r.next_u64() & 0x3F);  // 6 row bits
    const auto expect = db.scan_many(shares, nullptr);
    for (std::size_t lanes : {2, 4}) {
      ThreadPool pool{lanes};
      for (int round = 0; round < 5'000; ++round)
        ASSERT_EQ(db.scan_many(shares, &pool), expect)
            << channels << " channels, " << lanes << " lanes, round " << round;
    }
  }
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

}  // namespace
}  // namespace pisa::exec

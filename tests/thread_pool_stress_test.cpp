// parallel_for stress: many indices racing for the shared counter, and
// exception propagation under contention. The assertions are ordinary, but
// the real consumer is the TSan preset (cmake --preset tsan) — these tests
// provoke the orderings a data race would need: workers racing for the next
// index, slot writes racing the join, and the rethrow racing the last bodies.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "harness/thread_pool.h"

namespace dynreg::harness {
namespace {

TEST(ThreadPoolStress, ParallelForAllIndicesOnceUnderContention) {
  // Every index runs exactly once, whatever the worker count.
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    constexpr std::size_t kCount = 10'000;
    std::vector<unsigned char> hit(kCount, 0);
    parallel_for(jobs, kCount, [&hit](std::size_t i) { ++hit[i]; });
    EXPECT_EQ(std::accumulate(hit.begin(), hit.end(), std::size_t{0}), kCount)
        << "jobs=" << jobs;
  }
}

TEST(ThreadPoolStress, ParallelForPropagatesExceptionUnderContention) {
  // The first thrown exception must surface on the calling thread after all
  // bodies finish — the rethrow path synchronizes with every worker.
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      parallel_for(4, 1'000,
                   [&ran](std::size_t i) {
                     ran.fetch_add(1, std::memory_order_relaxed);
                     if (i % 250 == 100) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 1'000u);
}

}  // namespace
}  // namespace dynreg::harness

#include "harness/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace dynreg::harness {

std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void parallel_for(std::size_t jobs, std::size_t count, const IndexBody& body) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  // The caller is one of the workers, so jobs == 1 runs in index order on it.
  const std::size_t workers = std::min(resolve_jobs(jobs), count);
  std::vector<std::thread> threads;
  threads.reserve(workers);  // emplace_back below then never reallocates
  try {
    for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(drain);
  } catch (const std::system_error&) {
    // Out of threads: the workers already started and the caller finish.
  }
  drain();
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dynreg::harness

// sim::EventQueue — time ordering and FIFO stability at equal timestamps.
// Stability is part of the contract: the Figure 3 bench pins a race exactly
// at a window boundary and relies on insertion order breaking the tie.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"

namespace dynreg::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&order] { order.push_back(3); });
  q.push(10, [&order] { order.push_back(1); });
  q.push(20, [&order] { order.push_back(2); });

  ASSERT_EQ(q.size(), 3u);
  std::vector<Time> times;
  while (!q.empty()) {
    Time now = 0;
    q.run_top(&now);
    times.push_back(now);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(times, (std::vector<Time>{10, 20, 30}));
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    q.push(7, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_top();

  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(5, [&order] { order.push_back(1); });
  q.push(5, [&order] { order.push_back(2); });
  EXPECT_EQ(q.next_time(), 5u);
  Time now = 0;
  q.run_top(&now);                             // runs the first t=5 event
  EXPECT_EQ(now, 5u);
  q.push(5, [&order] { order.push_back(3); });  // later insertion, same time
  q.push(1, [&order] { order.push_back(0); });  // earlier time wins regardless
  while (!q.empty()) q.run_top();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3}));
}

}  // namespace
}  // namespace dynreg::sim

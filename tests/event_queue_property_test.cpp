// Property test: EventQueue against a naive sorted-vector reference model.
//
// The queue's contract is total order by (time, push order). The production
// structure is a two-tier timing wheel + far heap, so this test hammers the
// seams: duplicate times, pushes past the wheel window, pushes into the
// wheel's past after pops, and interleaved push/pop bursts. The reference
// model keeps a plain vector ordered by (time, insertion seq) — insertion
// order IS the tie-break, so any divergence is a stability bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/event_queue.h"

namespace dynreg::sim {
namespace {

class ReferenceModel {
 public:
  void push(Time time, int id) { events_.push_back({time, seq_++, id}); }

  int pop() {
    const auto it = min_it();
    const int id = it->id;
    events_.erase(it);
    return id;
  }

  Time next_time() const { return min_it()->time; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    int id;
  };

  std::vector<Entry>::const_iterator min_it() const {
    return std::min_element(events_.begin(), events_.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.time != b.time ? a.time < b.time : a.seq < b.seq;
                            });
  }
  // erase needs a mutable iterator
  std::vector<Entry>::iterator min_it() {
    return std::min_element(events_.begin(), events_.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.time != b.time ? a.time < b.time : a.seq < b.seq;
                            });
  }

  std::vector<Entry> events_;
  std::uint64_t seq_ = 0;
};

/// Runs one randomized trace; `max_jump` > EventQueue::kWindow exercises the
/// far tier and the wheel/heap tie-breaking.
void run_random_trace(std::uint32_t seed, Time max_jump) {
  std::mt19937 rng(seed);
  EventQueue queue;
  ReferenceModel model;
  std::vector<int> queue_order;
  std::vector<int> model_order;
  int next_id = 0;
  Time now = 0;  // mirrors a simulation clock: pushes land at now + delta

  const auto pop_one = [&] {
    ASSERT_EQ(queue.next_time(), model.next_time());
    const Time expected_time = model.next_time();
    now = std::max(now, expected_time);
    Time popped_at = 0;
    queue.run_top(&popped_at);
    EXPECT_EQ(popped_at, expected_time);
    model_order.push_back(model.pop());
  };

  for (int step = 0; step < 4000; ++step) {
    const bool do_push = model.empty() || rng() % 10 < 6;
    if (do_push) {
      // Delay distribution with heavy duplication plus occasional jumps far
      // beyond the wheel window to force the far tier. A few pushes go
      // strictly into the wheel's past (allowed for the standalone queue).
      Time at = now;
      switch (rng() % 8) {
        case 0:
          break;  // same tick as the clock
        case 1:
          at = now + rng() % 4;
          break;
        case 6:
          at = now > 10 ? now - 1 - rng() % 10 : now;  // behind the wheel base
          break;
        case 7:
          at = now + rng() % max_jump;  // may exceed the wheel window
          break;
        default:
          at = now + 1 + rng() % 16;
          break;
      }
      const int id = next_id++;
      queue.push(at, [&queue_order, id] { queue_order.push_back(id); });
      model.push(at, id);
    } else {
      pop_one();
    }
    ASSERT_EQ(queue.size(), model.size());
    ASSERT_EQ(queue.empty(), model.empty());
  }

  while (!model.empty()) pop_one();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue_order, model_order);
  EXPECT_EQ(queue_order.size(), static_cast<std::size_t>(next_id));
}

TEST(EventQueueProperty, MatchesReferenceWithinWheelWindow) {
  run_random_trace(/*seed=*/1, /*max_jump=*/EventQueue::kWindow / 2);
  run_random_trace(/*seed=*/2, /*max_jump=*/EventQueue::kWindow / 2);
}

TEST(EventQueueProperty, MatchesReferenceAcrossFarTier) {
  // Jumps up to 4x the wheel span: events constantly cross between tiers.
  run_random_trace(/*seed=*/3, /*max_jump=*/4 * EventQueue::kWindow);
  run_random_trace(/*seed=*/4, /*max_jump=*/4 * EventQueue::kWindow);
}

// The 1e6-entry regression pin for the timing-wheel scaling work: a
// million-event adversarial spread (hot duplicate ticks, dense near-window
// clusters, far-tier jumps, and a mid-stream drain/refill that lands new
// events across the survivors' times). The naive per-pop reference above is
// O(n) per operation, so at this size the model is a sorted snapshot
// instead: pop order must equal the (time, push-seq) sort exactly. This
// walks ~31 task slabs, so it also covers the lazy slab construction and
// drain-on-destroy paths at the scale the 8.6M items/s cliff appeared.
TEST(EventQueueProperty, MillionEntryAdversarialSpreadMatchesSortedModel) {
  struct Entry {
    Time time;
    std::uint64_t seq;
    int id;
  };
  const auto by_time_seq = [](const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  };

  std::mt19937 rng(2026);
  EventQueue queue;
  std::vector<int> popped;
  popped.reserve(1'000'000);
  std::uint64_t seq = 0;
  int next_id = 0;
  Time now = 0;

  const auto adversarial_time = [&](Time base) -> Time {
    switch (rng() % 8) {
      case 0:
      case 1:
        return base + rng() % 16;  // hot duplicate ticks
      case 2:
      case 3:
        return base + rng() % 64;  // dense near cluster
      case 4:
        return base > 32 ? base - 1 - rng() % 32 : base;  // wheel's past
      case 5:
      case 6:
        return base + rng() % EventQueue::kWindow;  // spread across the wheel
      default:
        return base + EventQueue::kWindow + rng() % (8 * EventQueue::kWindow);
    }
  };
  const auto push_n = [&](std::size_t n, std::vector<Entry>& into) {
    for (std::size_t i = 0; i < n; ++i) {
      const Time at = adversarial_time(now);
      const int id = next_id++;
      queue.push(at, [&popped, id] { popped.push_back(id); });
      into.push_back({at, seq++, id});
    }
  };
  const auto pop_n = [&](std::size_t n, const std::vector<Entry>& sorted,
                         std::size_t offset) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 10000 == 0) {
        ASSERT_EQ(queue.next_time(), sorted[offset + i].time);
      }
      now = std::max(now, sorted[offset + i].time);
      queue.run_top();
    }
  };

  std::vector<Entry> pending;
  pending.reserve(1'000'000);
  push_n(600'000, pending);
  ASSERT_EQ(queue.size(), 600'000u);
  std::sort(pending.begin(), pending.end(), by_time_seq);
  pop_n(300'000, pending, 0);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < 300'000; ++i) {
    if (popped[i] != pending[i].id) ++mismatches;
  }
  ASSERT_EQ(mismatches, 0u) << "pop order diverged in the first drain";

  // Refill while 300k survivors are still queued: the new events' times
  // interleave with the survivors', and ties must resolve by push order.
  pending.erase(pending.begin(), pending.begin() + 300'000);
  push_n(400'000, pending);
  ASSERT_EQ(queue.size(), 700'000u);
  std::sort(pending.begin(), pending.end(), by_time_seq);
  pop_n(pending.size(), pending, 0);

  ASSERT_TRUE(queue.empty());
  ASSERT_EQ(popped.size(), 1'000'000u);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (popped[300'000 + i] != pending[i].id) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << "pop order diverged after the refill";
}

TEST(EventQueueProperty, ManyDuplicateTimesStayFifo) {
  EventQueue queue;
  ReferenceModel model;
  std::vector<int> queue_order;
  std::vector<int> model_order;
  std::mt19937 rng(99);
  // 2000 events over just 5 distinct times, pushed in random time order.
  for (int id = 0; id < 2000; ++id) {
    const Time t = rng() % 5;
    queue.push(t, [&queue_order, id] { queue_order.push_back(id); });
    model.push(t, id);
  }
  while (!model.empty()) {
    queue.run_top();
    model_order.push_back(model.pop());
  }
  EXPECT_EQ(queue_order, model_order);
}

}  // namespace
}  // namespace dynreg::sim

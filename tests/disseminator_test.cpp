// Tree fan-out: direct and tree broadcasts must be interchangeable at the
// protocol's level of observation — every broadcast reaches exactly the
// processes attached at send time, exactly once each, with the LOGICAL
// broadcaster as the observed sender. The tree pays latency, never
// correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <vector>

#include "net/delay_model.h"
#include "net/disseminator.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace dynreg::net {
namespace {

struct Ping final : Payload {
  std::string_view type_name() const override { return "test.ping"; }
};

struct Delivery {
  sim::ProcessId to;
  sim::ProcessId from;
  sim::Time at;
};

/// Runs one broadcast from `sender` over `n` attached processes and returns
/// every delivery observed, in delivery order.
std::vector<Delivery> run_broadcast(std::unique_ptr<TreeDisseminator> d,
                                    std::size_t n, sim::ProcessId sender) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<net::FixedDelay>(3));
  net.set_disseminator(std::move(d));
  std::vector<Delivery> log;
  for (sim::ProcessId id = 0; id < n; ++id) {
    net.attach(id, [&log, id, &sim](sim::ProcessId from, const Payload&) {
      log.push_back({id, from, sim.now()});
    });
  }
  net.broadcast(sender, make_payload<Ping>());
  sim.run();
  return log;
}

std::set<sim::ProcessId> recipients(const std::vector<Delivery>& log) {
  std::set<sim::ProcessId> out;
  for (const Delivery& d : log) out.insert(d.to);
  return out;
}

TEST(Disseminator, TreeDeliversExactlyOnceToTheFlatRecipientSet) {
  for (const std::uint32_t fanout : {1u, 2u, 3u, 4u, 8u}) {
    SCOPED_TRACE(fanout);
    const auto flat = run_broadcast(nullptr, 33, /*sender=*/7);
    const auto tree =
        run_broadcast(std::make_unique<TreeDisseminator>(fanout), 33, 7);

    // Same recipient set, and exactly one copy each — no duplicate reaches
    // any process however the tree partitions the forwarding.
    EXPECT_EQ(recipients(tree), recipients(flat));
    std::map<sim::ProcessId, int> copies;
    for (const Delivery& d : tree) ++copies[d.to];
    EXPECT_EQ(copies.size(), 32u);
    for (const auto& [id, count] : copies) {
      EXPECT_EQ(count, 1) << "process " << id;
      EXPECT_NE(id, 7u);  // no self-delivery
    }
  }
}

TEST(Disseminator, TreeHandlersObserveTheLogicalSender) {
  const auto tree = run_broadcast(std::make_unique<TreeDisseminator>(2), 20, 4);
  ASSERT_EQ(tree.size(), 19u);
  for (const Delivery& d : tree) {
    // Relays are transparent: replies must target the broadcaster, so every
    // handler sees process 4 — never the parent that physically forwarded.
    EXPECT_EQ(d.from, 4u) << "delivery to " << d.to;
  }
}

TEST(Disseminator, TreeAccumulatesLatencyByDepthFlatDoesNot) {
  const auto flat = run_broadcast(nullptr, 32, 0);
  for (const Delivery& d : flat) EXPECT_EQ(d.at, 3u);  // one hop for everyone

  const auto tree = run_broadcast(std::make_unique<TreeDisseminator>(2), 32, 0);
  sim::Time max_at = 0;
  for (const Delivery& d : tree) max_at = std::max(max_at, d.at);
  // Binary tree over 31 recipients: the deepest positions sit >= 4 hops down.
  EXPECT_GE(max_at, 4u * 3u);
}

TEST(Disseminator, TreeLossDropsOnlyThatRecipientsCopy) {
  // With loss, a lost interior edge must not silence its subtree: across
  // many broadcasts the delivered+lost accounting stays per-copy Bernoulli,
  // i.e. every broadcast accounts for exactly n-1 copies.
  sim::Simulation sim(11);
  Network net(sim, std::make_unique<net::FixedDelay>(2));
  net.set_disseminator(std::make_unique<TreeDisseminator>(2));
  net.set_loss_rate(0.4);
  constexpr std::size_t kN = 25;
  std::map<sim::ProcessId, int> copies;
  for (sim::ProcessId id = 0; id < kN; ++id) {
    net.attach(id, [&copies, id](sim::ProcessId, const Payload&) { ++copies[id]; });
  }
  constexpr int kBroadcasts = 50;
  for (int i = 0; i < kBroadcasts; ++i) net.broadcast(0, make_payload<Ping>());
  sim.run();

  EXPECT_EQ(net.stats().delivered + net.stats().dropped_loss,
            kBroadcasts * (kN - 1));
  EXPECT_GT(net.stats().dropped_loss, 0u);
  EXPECT_EQ(copies.count(0), 0u);  // no self-delivery to the broadcaster
  for (sim::ProcessId id = 1; id < kN; ++id) {
    EXPECT_LE(copies[id], kBroadcasts) << "duplicate copies at " << id;
    // A permanently-silenced subtree would show a node with zero deliveries
    // across 50 independent 0.4-loss draws (p ~ 1e-20).
    EXPECT_GT(copies[id], 0) << "process " << id << " never reached";
  }
}

sim::Time last_arrival(const std::vector<Delivery>& log) {
  sim::Time last = 0;
  for (const Delivery& d : log) last = std::max(last, d.at);
  return last;
}

TEST(Disseminator, DepthIsTheDeepestPositionOfTheBuiltTree) {
  // depth(n) sizes the ES retransmit timer; it must be the deepest BFS
  // position under the parent rule, i.e. the hop count of the last copy
  // the installed tree delivers (FixedDelay(3): 3 ticks per hop).
  for (std::size_t fanout = 1; fanout <= 8; ++fanout) {
    const TreeDisseminator tree(fanout);
    std::vector<std::size_t> hops{0};  // by BFS position; 0 is the sender
    for (std::size_t n = 2; n <= 200; ++n) {
      hops.push_back(hops[(n - 2) / fanout] + 1);  // position n-1
      SCOPED_TRACE(testing::Message() << "fanout " << fanout << ", n " << n);
      ASSERT_EQ(tree.depth(n), hops.back());
      const auto log =
          run_broadcast(std::make_unique<TreeDisseminator>(fanout), n, /*sender=*/0);
      ASSERT_EQ(last_arrival(log), 3 * tree.depth(n));
    }
  }
  EXPECT_EQ(TreeDisseminator(4).depth(1), 1u);  // no recipient: like direct
}

TEST(Disseminator, HugeFanoutIsOneLevelNotAChain) {
  // A trace file's config varint can carry any 64-bit fanout, and the tree
  // and its depth must read the same value: narrowed to 32 bits, 2^32 would
  // turn 0, clamp to 1 and build a chain under a depth-1 retransmit timer.
  if constexpr (sizeof(std::size_t) > 4) {
    const std::size_t fanout = std::size_t{1} << 32;
    EXPECT_EQ(TreeDisseminator(fanout).depth(50), 1u);
    const auto log = run_broadcast(std::make_unique<TreeDisseminator>(fanout), 50, 0);
    ASSERT_EQ(log.size(), 49u);
    EXPECT_EQ(last_arrival(log), 3u);
  }
}

}  // namespace
}  // namespace dynreg::net

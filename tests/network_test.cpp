// net::Network — delivery, broadcast membership semantics, the
// drop-on-departure rule churn depends on, point-to-point messages carried
// by value in their events, and the batched broadcast delivery (one queued
// event per arrival tick) reproducing per-copy delivery exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "churn/churn_model.h"
#include "churn/system.h"
#include "dynreg/sync_register.h"
#include "net/delay_model.h"
#include "net/disseminator.h"
#include "net/fault_hook.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace dynreg::net {
namespace {

struct Ping final : Payload {
  std::string_view type_name() const override { return "test.ping"; }
};

struct Pong final : Payload {
  std::string_view type_name() const override { return "test.pong"; }
};

/// A point-to-point message with fields, to check that a by-value copy
/// arrives intact.
struct Numbered final : Payload {
  Numbered(std::uint64_t s, std::uint32_t t) : seq(s), tag(t) {}
  std::string_view type_name() const override { return "test.numbered"; }
  std::uint64_t seq;
  std::uint32_t tag;
};

/// Cuts every copy towards `cut_to` and rewrites every copy towards an id in
/// `forge_to` into a Pong.
class ScriptedHook final : public FaultHook {
 public:
  ScriptedHook(sim::ProcessId cut_to, std::vector<sim::ProcessId> forge_to)
      : cut_to_(cut_to), forge_to_(std::move(forge_to)) {}
  bool link_cut(sim::Time, sim::ProcessId, sim::ProcessId to) override {
    return to == cut_to_;
  }
  PayloadPtr transform(sim::Time, sim::ProcessId, sim::ProcessId to,
                       const Payload&) override {
    for (const sim::ProcessId f : forge_to_) {
      if (f == to) return make_payload<Pong>();
    }
    return nullptr;
  }

 private:
  sim::ProcessId cut_to_;
  std::vector<sim::ProcessId> forge_to_;
};

TEST(Network, DeliversWithModelDelayAndRecordsType) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(4));
  std::vector<sim::Time> arrivals;
  net.attach(1, [&](sim::ProcessId from, const Payload& p) {
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(p.type_name(), "test.ping");
    arrivals.push_back(sim.now());
  });
  net.send(0, 1, Ping{});
  sim.run();

  EXPECT_EQ(arrivals, (std::vector<sim::Time>{4}));
  EXPECT_EQ(net.stats().delivered, 1u);
  EXPECT_EQ(net.delivered_by_type().at("test.ping"), 1u);
}

TEST(Network, BroadcastReachesEveryoneAttachedExceptSender) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  std::map<sim::ProcessId, int> received;
  for (sim::ProcessId id = 0; id < 4; ++id) {
    net.attach(id, [&received, id](sim::ProcessId, const Payload&) { ++received[id]; });
  }
  net.broadcast(2, make_payload<Ping>());
  sim.run();

  EXPECT_EQ(received[0], 1);
  EXPECT_EQ(received[1], 1);
  EXPECT_EQ(received[2], 0);  // no self-delivery
  EXPECT_EQ(received[3], 1);
}

TEST(Network, InFlightMessageToDepartedProcessIsDropped) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(10));
  int delivered = 0;
  net.attach(1, [&delivered](sim::ProcessId, const Payload&) { ++delivered; });
  net.send(0, 1, Ping{});
  sim.run_until(5);
  net.detach(1);  // leaves while the message is in flight
  sim.run();

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().dropped_departed, 1u);
  EXPECT_EQ(net.stats().delivered, 0u);
}

TEST(Network, LateJoinerDoesNotReceiveEarlierBroadcasts) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(10));
  int delivered = 0;
  net.attach(0, [](sim::ProcessId, const Payload&) {});
  net.broadcast(0, make_payload<Ping>());  // nobody else attached yet
  net.attach(1, [&delivered](sim::ProcessId, const Payload&) { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 0);
}

TEST(Network, GenerationDistinguishesIncarnationsOfAReusedId) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  EXPECT_EQ(net.generation(7), 0u);  // never-seen id

  net.attach(7, [](sim::ProcessId, const Payload&) {});
  const auto first = net.generation(7);
  net.detach(7);
  net.attach(7, [](sim::ProcessId, const Payload&) {});
  EXPECT_GT(net.generation(7), first);  // re-attach is a new incarnation

  // Delivery deliberately ignores generations: whoever holds the id at
  // delivery time receives in-flight messages, as with the old map dispatch.
  int delivered = 0;
  net.attach(1, [](sim::ProcessId, const Payload&) { FAIL() << "old incarnation"; });
  net.send(0, 1, Ping{});
  net.detach(1);
  net.attach(1, [&delivered](sim::ProcessId, const Payload&) { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Network, SparseIdsAndReattachKeepBroadcastMembershipExact) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  std::map<sim::ProcessId, int> received;
  const auto handler = [&received](sim::ProcessId id) {
    return [&received, id](sim::ProcessId, const Payload&) { ++received[id]; };
  };
  // Out-of-order, sparse attach pattern with a detach in the middle.
  for (const sim::ProcessId id : {9u, 2u, 40u, 5u}) net.attach(id, handler(id));
  net.detach(9);
  EXPECT_FALSE(net.attached(9));
  EXPECT_TRUE(net.attached(40));

  net.broadcast(5, make_payload<Ping>());
  sim.run();
  EXPECT_EQ(received[2], 1);
  EXPECT_EQ(received[40], 1);
  EXPECT_EQ(received[9], 0);  // detached
  EXPECT_EQ(received[5], 0);  // sender
  EXPECT_EQ(net.stats().delivered, 2u);
}

TEST(Network, LossRateDropsMessages) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  int delivered = 0;
  net.attach(1, [&delivered](sim::ProcessId, const Payload&) { ++delivered; });
  net.set_loss_rate(1.0);
  for (int i = 0; i < 10; ++i) net.send(0, 1, Ping{});
  sim.run();

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().dropped_loss, 10u);
}

// Point-to-point messages travel inside their delivery event: sending costs
// the arena nothing, in flight or after, and each copy arrives with its own
// fields, in send order.
TEST(NetworkValue, PointToPointSendLeavesTheArenaUntouched) {
  constexpr std::uint32_t kCopies = 10000;
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(2));
  std::vector<std::pair<std::uint64_t, std::uint32_t>> got;
  net.attach(1, [&](sim::ProcessId from, const Payload& p) {
    EXPECT_EQ(from, 0u);
    ASSERT_EQ(p.type_name(), "test.numbered");
    const auto& m = static_cast<const Numbered&>(p);
    got.emplace_back(m.seq, m.tag);
  });
  for (std::uint32_t i = 0; i < kCopies; ++i) net.send(0, 1, Numbered(i, i * 7 + 3));

  sim.run_until(1);  // every copy still in flight
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(sim.arena().live_allocations(), 0u);
  EXPECT_EQ(sim.arena().chunks_created(), 0u);
  std::uint32_t events = 0;
  while (sim.step()) ++events;

  EXPECT_EQ(events, kCopies);  // one event per copy, each at tick 2
  ASSERT_EQ(got.size(), kCopies);
  for (std::uint32_t i = 0; i < kCopies; ++i) {
    EXPECT_EQ(got[i], std::make_pair(std::uint64_t{i}, i * 7 + 3)) << "copy " << i;
  }
  EXPECT_EQ(net.stats().delivered, kCopies);
  EXPECT_EQ(sim.arena().chunks_created(), 0u);
}

TEST(NetworkBatch, SameTickEventsInterleaveAsPerCopyDelivery) {
  // Per-copy delivery queued each copy at its arrival tick in the order the
  // fan-out pushed it; a batch must slot in exactly there: after what was
  // queued for that tick before the broadcast, before what was queued
  // after it — including events the copies' own handlers push for `now`.
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(2));
  std::vector<std::string> log;
  for (sim::ProcessId id = 0; id < 4; ++id) {
    net.attach(id, [&, id](sim::ProcessId, const Payload&) {
      log.push_back("copy" + std::to_string(id));
      if (id == 1) sim.schedule_after(0, [&log] { log.push_back("nested"); });
    });
  }
  sim.schedule_at(2, [&log] { log.push_back("before"); });
  net.broadcast(0, make_payload<Ping>());
  sim.schedule_at(2, [&log] { log.push_back("after"); });
  net.send(3, 1, Ping{});  // a later point-to-point copy
  sim.run();

  EXPECT_EQ(log, (std::vector<std::string>{"before", "copy1", "copy2", "copy3",
                                           "after", "copy1", "nested", "nested"}));
}

TEST(NetworkBatch, RandomDelaysDeliverEachCopyAtItsDrawnTickInIdOrder) {
  // The verdicts are drawn per copy in ascending id order, exactly as the
  // per-copy fan-out drew them: a twin Rng replaying those draws predicts
  // every arrival tick, and within a tick the copies run in id order.
  constexpr sim::Duration kDelta = 3;
  constexpr sim::ProcessId kN = 40;
  sim::Simulation sim(11);
  Network net(sim, std::make_unique<SynchronousDelay>(kDelta));
  std::vector<std::pair<sim::Time, sim::ProcessId>> got;
  for (sim::ProcessId id = 0; id < kN; ++id) {
    net.attach(id, [&, id](sim::ProcessId, const Payload&) { got.emplace_back(sim.now(), id); });
  }
  net.broadcast(0, make_payload<Ping>());
  sim.run();

  sim::Rng twin(11);
  std::vector<std::pair<sim::Time, sim::ProcessId>> want;
  for (sim::ProcessId id = 1; id < kN; ++id) want.emplace_back(twin.uniform_int(1, kDelta), id);
  std::stable_sort(want.begin(), want.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(got, want);
}

TEST(NetworkBatch, InterleavedDelaysGroupByTickInIdOrder) {
  // Arrival ticks that alternate along the id order, far apart: each tick
  // gets one event, and each event delivers in id order.
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<AsyncAdversarialDelay>(
                       1, [](sim::Time, sim::ProcessId, sim::ProcessId to, const Payload&) {
                         return std::optional<sim::Duration>(to % 2 == 0 ? 1000 : 7);
                       }));
  std::vector<std::pair<sim::Time, sim::ProcessId>> got;
  for (sim::ProcessId id = 0; id < 7; ++id) {
    net.attach(id, [&, id](sim::ProcessId, const Payload&) { got.emplace_back(sim.now(), id); });
  }
  net.broadcast(0, make_payload<Ping>());
  int events = 0;
  while (sim.step()) ++events;

  EXPECT_EQ(events, 2);
  EXPECT_EQ(got, (std::vector<std::pair<sim::Time, sim::ProcessId>>{
                     {7, 1}, {7, 3}, {7, 5}, {1000, 2}, {1000, 4}, {1000, 6}}));
}

TEST(NetworkBatch, DetachInsideBatchDropsTheLaterCopyAsDeparted) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  std::vector<sim::ProcessId> reached;
  for (sim::ProcessId id = 0; id < 4; ++id) {
    net.attach(id, [&, id](sim::ProcessId, const Payload&) {
      reached.push_back(id);
      if (id == 1) net.detach(3);  // a later recipient of the same batch
    });
  }
  net.broadcast(0, make_payload<Ping>());
  sim.run();

  EXPECT_EQ(reached, (std::vector<sim::ProcessId>{1, 2}));
  EXPECT_EQ(net.stats().delivered, 2u);
  EXPECT_EQ(net.stats().dropped_departed, 1u);
}

TEST(NetworkBatch, CutConsumesNoDrawAndTransformAppliesPerCopy) {
  // Run A cuts every copy towards 2; run B never attaches 2. A cut copy
  // draws nothing, so both runs see the same verdict stream: same arrival
  // ticks for everyone else, same Rng state afterwards.
  using Arrival = std::tuple<sim::Time, sim::ProcessId, std::string_view>;
  const auto run = [](bool cut) {
    sim::Simulation sim(5);
    Network net(sim, std::make_unique<SynchronousDelay>(2));
    ScriptedHook hook(2, {3, 5});
    net.set_fault_hook(&hook);
    std::vector<Arrival> got;
    for (sim::ProcessId id = 0; id < 8; ++id) {
      if (id == 2 && !cut) continue;
      net.attach(id, [&, id](sim::ProcessId, const Payload& p) {
        got.emplace_back(sim.now(), id, p.type_name());
      });
    }
    net.broadcast(0, make_payload<Ping>());
    sim.run();
    return std::make_tuple(got, net.stats(), sim.rng().next());
  };
  const auto [cut_log, cut_stats, cut_rng] = run(true);
  const auto [ref_log, ref_stats, ref_rng] = run(false);

  EXPECT_EQ(cut_log, ref_log);
  EXPECT_EQ(cut_rng, ref_rng);
  EXPECT_EQ(cut_stats.dropped_partition, 1u);
  EXPECT_EQ(cut_stats.sent, 6u);
  EXPECT_EQ(cut_stats.delivered, 6u);
  EXPECT_EQ(cut_stats.transformed, 2u);
  ASSERT_EQ(cut_log.size(), 6u);
  for (const auto& [time, id, type] : cut_log) {
    EXPECT_EQ(type, id == 3 || id == 5 ? "test.pong" : "test.ping") << "p" << id << " at " << time;
    // Each forged copy shares its tick with an untouched one: one batch.
    const auto same_tick = std::count_if(cut_log.begin(), cut_log.end(), [&](const Arrival& a) {
      return std::get<0>(a) == time;
    });
    EXPECT_GE(same_tick, 2) << "p" << id << " arrived alone at " << time;
  }
}

TEST(NetworkBatch, BroadcastFromInsideABatchKeepsBothRecipientSets) {
  // Every recipient of the first broadcast rebroadcasts once; the nested
  // broadcasts queue their own batches while the outer one is mid-loop.
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  constexpr sim::ProcessId kN = 6;
  std::map<sim::ProcessId, int> pings;
  std::map<sim::ProcessId, int> pongs;
  for (sim::ProcessId id = 0; id < kN; ++id) {
    net.attach(id, [&, id](sim::ProcessId, const Payload& p) {
      if (p.type_name() == "test.ping") {
        ++pings[id];
        net.broadcast(id, make_payload<Pong>());
      } else {
        ++pongs[id];
      }
    });
  }
  net.broadcast(0, make_payload<Ping>());
  sim.run();

  for (sim::ProcessId id = 1; id < kN; ++id) {
    EXPECT_EQ(pings[id], 1) << id;
    EXPECT_EQ(pongs[id], static_cast<int>(kN) - 2) << id;  // every other relay
  }
  EXPECT_EQ(pongs[0], static_cast<int>(kN) - 1);
  EXPECT_EQ(net.stats().delivered, (kN - 1) + (kN - 1) * (kN - 1));
}

TEST(NetworkBatch, FixedDelayBroadcastToAThousandIsOneEvent) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  constexpr sim::ProcessId kN = 1000;
  for (sim::ProcessId id = 0; id < kN; ++id) {
    net.attach(id, [](sim::ProcessId, const Payload&) {});
  }
  net.broadcast(0, make_payload<Ping>());
  int events = 0;
  while (sim.step()) ++events;

  EXPECT_EQ(events, 1);
  EXPECT_EQ(net.stats().delivered, kN - 1);
  EXPECT_EQ(sim.arena().live_allocations(), 0u);  // the recipient span is freed
}

TEST(NetworkBatch, FixedDelayTreeBroadcastIsOneEventPerDepth) {
  // Binary tree over 31 recipients: depths 1..5 arrive at ticks 3..15, and
  // every copy of one depth shares its tick — one event each, not 31.
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(3));
  net.set_disseminator(std::make_unique<TreeDisseminator>(2));
  constexpr sim::ProcessId kN = 32;
  std::vector<sim::Time> ticks;
  for (sim::ProcessId id = 0; id < kN; ++id) {
    net.attach(id, [&](sim::ProcessId, const Payload&) { ticks.push_back(sim.now()); });
  }
  net.broadcast(0, make_payload<Ping>());
  int events = 0;
  while (sim.step()) ++events;

  EXPECT_EQ(events, 5);
  EXPECT_EQ(net.stats().delivered, kN - 1);
  EXPECT_EQ(ticks.back(), 15u);
  EXPECT_TRUE(std::is_sorted(ticks.begin(), ticks.end()));
  EXPECT_EQ(sim.arena().live_allocations(), 0u);
}

TEST(NetworkBatch, TreeLossAndRelayCutDeliverAsPerCopyTreeModelPredicts) {
  // Each tree copy draws its fate on the physical edge parent -> to, in
  // ascending position order; a lost or cut copy still anchors its subtree
  // at the parent's arrival + 1. A twin Rng replaying that per-copy model
  // predicts every arrival tick, and within a tick the copies run in id
  // order. The hook cuts one relay edge (2 -> 8): only the physical edge
  // may match it, never the logical one (0 -> 8).
  constexpr sim::Duration kDelta = 3;
  constexpr sim::ProcessId kN = 40;
  constexpr std::size_t kFanout = 3;
  constexpr double kLoss = 0.2;
  struct RelayCut final : FaultHook {
    std::vector<std::pair<sim::ProcessId, sim::ProcessId>> asked;
    bool link_cut(sim::Time, sim::ProcessId from, sim::ProcessId to) override {
      asked.emplace_back(from, to);
      return from == 2 && to == 8;
    }
    PayloadPtr transform(sim::Time, sim::ProcessId, sim::ProcessId,
                         const Payload&) override {
      return nullptr;
    }
  };
  sim::Simulation sim(11);
  Network net(sim, std::make_unique<SynchronousDelay>(kDelta));
  net.set_disseminator(std::make_unique<TreeDisseminator>(kFanout));
  net.set_loss_rate(kLoss);
  RelayCut hook;
  net.set_fault_hook(&hook);
  std::vector<std::pair<sim::Time, sim::ProcessId>> got;
  for (sim::ProcessId id = 0; id < kN; ++id) {
    net.attach(id, [&, id](sim::ProcessId from, const Payload&) {
      EXPECT_EQ(from, 0u) << "copy to " << id << " names its relay";
      got.emplace_back(sim.now(), id);
    });
  }
  net.broadcast(0, make_payload<Ping>());
  sim.run();

  // Sender 0 holds position 0, so process j holds position j.
  sim::Rng twin(11);
  std::vector<std::pair<sim::ProcessId, sim::ProcessId>> edges;
  std::vector<sim::Time> arrival(kN, 0);
  std::vector<std::pair<sim::Time, sim::ProcessId>> want;
  std::uint64_t lost = 0;
  for (sim::ProcessId j = 1; j < kN; ++j) {
    const auto parent = static_cast<sim::ProcessId>((j - 1) / kFanout);
    edges.emplace_back(parent, j);
    const bool cut = parent == 2 && j == 8;
    const bool dropped = !cut && twin.bernoulli(kLoss);
    if (cut || dropped) {
      lost += dropped ? 1 : 0;
      arrival[j] = arrival[parent] + 1;
      continue;
    }
    arrival[j] = arrival[parent] + twin.uniform_int(1, kDelta);
    want.emplace_back(arrival[j], j);
  }
  std::stable_sort(want.begin(), want.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  EXPECT_EQ(hook.asked, edges);
  EXPECT_EQ(got, want);
  EXPECT_EQ(net.stats().dropped_partition, 1u);
  EXPECT_EQ(net.stats().dropped_loss, lost);
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(sim.rng().next(), twin.next());
}

// Regression gate on the delivery path's event and arena cost, ratios that
// do not depend on the machine: a small fixed sync join-churn world (the
// paper's broadcast-INQUIRY / point-to-point-REPLY join, at 0.9x Theorem 1's
// churn bound) dispatches ~1.36 events per delivered copy with one event per
// copy, and well under one with same-tick broadcast copies batched.
TEST(NetworkBatch, SyncJoinChurnDispatchesUnderPointSevenEventsPerDelivery) {
  constexpr sim::Duration kDelta = 3;
  sim::Simulation sim(7);
  Network net(sim, std::make_unique<SynchronousDelay>(kDelta));
  churn::SystemConfig cfg;
  cfg.initial_size = 200;
  SyncConfig sync;
  sync.delta = kDelta;
  churn::System system(
      sim, net, cfg, std::make_unique<churn::ConstantChurn>(0.9 / (3.0 * kDelta)),
      [sync](sim::ProcessId id, node::Context& ctx, bool initial) {
        return std::make_unique<SyncRegisterNode>(id, ctx, sync, initial);
      });
  system.bootstrap();
  std::uint64_t events = 0;
  for (auto t = sim.next_event_time(); t && *t <= 40; t = sim.next_event_time()) {
    sim.step();
    ++events;
  }

  const std::uint64_t delivered = net.stats().delivered;
  ASSERT_GT(system.joins_started(), 500u);
  ASSERT_GT(delivered, 100000u);
  const double per_delivery = static_cast<double>(events) / static_cast<double>(delivered);
  EXPECT_LT(per_delivery, 0.7) << events << " events for " << delivered << " deliveries";
  // Replies travel inside their events, so the arena only holds the INQUIRY
  // broadcasts and their recipient spans: 2 chunks for ~132k copies (0.015
  // per 1k), where an arena payload per reply took 14 (0.106 per 1k).
  const double chunks_per_1k =
      1000.0 * static_cast<double>(sim.arena().chunks_created()) / static_cast<double>(delivered);
  EXPECT_LT(chunks_per_1k, 0.05) << sim.arena().chunks_created() << " arena chunks for "
                                 << delivered << " deliveries";
}

}  // namespace
}  // namespace dynreg::net

// M1 — substrate microbenchmarks (google-benchmark): event-queue
// throughput, network dispatch (broadcast and point-to-point), consistency
// checking, and a full experiment run as an end-to-end figure of merit.
//
// This binary measures wall-clock performance, not paper claims, so it
// lives outside the ExperimentRegistry / dynreg_exp CLI (its driver is
// google-benchmark's own main). See docs/EXPERIMENTS.md for the mapping of
// the registered experiments to the paper.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "consistency/regularity_checker.h"
#include "dynreg/messages.h"
#include "harness/experiment.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace {

using namespace dynreg;

// Push a batch, then drain it through run_top (the simulation loop's
// consume path), which invokes each callable in place.
void BM_EventQueuePushPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < batch; ++i) {
      q.push(static_cast<sim::Time>(i * 7 % 1000), [] {});
    }
    while (!q.empty()) q.run_top();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

// Random times spread far beyond the wheel window, so pushes constantly land
// in the far (heap) tier — the queue's worst case, kept honest here.
void BM_EventQueuePushPopFarSpread(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;  // cheap deterministic scramble
    for (std::size_t i = 0; i < batch; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      q.push(static_cast<sim::Time>(x % (64 * sim::EventQueue::kWindow)), [] {});
    }
    while (!q.empty()) q.run_top();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueuePushPopFarSpread)->Arg(10000);

void BM_SimulationEventChain(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim(1);
    std::uint64_t remaining = events;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.schedule_after(1, tick);
    };
    sim.schedule_at(0, tick);
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulationEventChain)->Arg(10000);

struct NoopPayload final : net::Payload {
  std::string_view type_name() const override { return "noop"; }
  // Cached like the real protocol messages, so the benchmark measures the
  // dispatch path, not the registry's default per-call interning.
  net::PayloadTypeId type_id() const override {
    static const net::PayloadTypeId id = net::PayloadTypeRegistry::intern("noop");
    return id;
  }
};

// Ten broadcasts from process 0 to n attached processes, stepped to the
// end. items/s counts delivered copies; events_per_broadcast counts the
// queued events each broadcast dispatched (one per arrival tick, so 1 under
// FixedDelay(1) and at most delta under SynchronousDelay(delta)).
template <typename MakeDelays>
void run_broadcasts(benchmark::State& state, MakeDelays make_delays) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr int kBroadcasts = 10;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulation sim(1);
    net::Network network(sim, make_delays());
    for (std::size_t i = 0; i < n; ++i) {
      network.attach(i, [](sim::ProcessId, const net::Payload&) {});
    }
    for (int b = 0; b < kBroadcasts; ++b) network.broadcast(0, net::make_payload<NoopPayload>());
    while (sim.step()) ++events;
    benchmark::DoNotOptimize(network.stats().delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * kBroadcasts);
  state.counters["events_per_broadcast"] =
      static_cast<double>(events) /
      static_cast<double>(static_cast<std::uint64_t>(state.iterations()) * kBroadcasts);
}

void BM_NetworkBroadcast(benchmark::State& state) {
  run_broadcasts(state, [] { return std::make_unique<net::FixedDelay>(1); });
}
BENCHMARK(BM_NetworkBroadcast)->Arg(100)->Arg(1000)->Arg(10000);

// The copies of one broadcast land on up to three ticks, as in the paper's
// synchronous model, and every copy consumes one delay draw.
void BM_NetworkBroadcastSyncDelay(benchmark::State& state) {
  run_broadcasts(state, [] { return std::make_unique<net::SynchronousDelay>(3); });
}
BENCHMARK(BM_NetworkBroadcastSyncDelay)->Arg(100)->Arg(1000)->Arg(10000);

// Point-to-point send plus delivery of the paper's join REPLY (SyncReply)
// through FixedDelay(1), batches of 1000 copies stepped to the end. items/s
// counts delivered copies; bytes_per_message is the message each delivery
// event carries by value; arena_chunks counts the arena chunks the whole run
// created, which stays 0 because a point-to-point message never touches the
// arena.
void BM_NetworkSendReply(benchmark::State& state) {
  constexpr std::uint32_t kBatch = 1000;
  sim::Simulation sim(1);
  net::Network network(sim, std::make_unique<net::FixedDelay>(1));
  Value sum = 0;
  network.attach(1, [&sum](sim::ProcessId, const net::Payload& p) {
    sum += static_cast<const msg::SyncReply&>(p).value;
  });
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < kBatch; ++i) {
      network.send(0, 1, msg::SyncReply(Timestamp{i, 0}, static_cast<Value>(i), true));
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatch);
  state.counters["bytes_per_message"] = static_cast<double>(sizeof(msg::SyncReply));
  state.counters["arena_chunks"] = static_cast<double>(sim.arena().chunks_created());
}
BENCHMARK(BM_NetworkSendReply);

void BM_RegularityChecker(benchmark::State& state) {
  const auto reads = static_cast<std::size_t>(state.range(0));
  consistency::History history(0);
  sim::Time t = 0;
  for (std::size_t w = 1; w <= 50; ++w) {
    const auto id = history.begin_write(0, t, static_cast<Value>(w));
    history.complete_write(id, t + 5);
    t += 10;
  }
  for (std::size_t i = 0; i < reads; ++i) {
    const sim::Time at = (i * 9) % t;
    const auto id = history.begin_read(1, at);
    // Return the latest value completed before `at` (valid history).
    const auto wi = at / 10;
    history.complete_read(id, at, wi == 0 ? 0 : static_cast<Value>(wi));
  }
  for (auto _ : state) {
    const auto report = consistency::RegularityChecker{}.check(history);
    benchmark::DoNotOptimize(report.reads_checked);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(reads));
}
BENCHMARK(BM_RegularityChecker)->Arg(1000)->Arg(10000);

void BM_FullSyncExperiment(benchmark::State& state) {
  for (auto _ : state) {
    harness::ExperimentConfig cfg;
    cfg.protocol = harness::Protocol::kSync;
    cfg.n = 20;
    cfg.delta = 5;
    cfg.duration = 1000;
    cfg.churn_rate = 0.01;
    cfg.workload.read_interval = 5;
    cfg.workload.write_interval = 40;
    const auto r = harness::run_experiment(cfg);
    benchmark::DoNotOptimize(r.reads_completed);
  }
}
BENCHMARK(BM_FullSyncExperiment)->Unit(benchmark::kMillisecond);

// One replica of the registered es_churn_sweep experiment (E4) at the
// paper's churn constraint — the end-to-end unit the seed-parallel sweep
// engine multiplies across seeds and grid points.
void BM_EsChurnSweepReplica(benchmark::State& state) {
  for (auto _ : state) {
    harness::ExperimentConfig cfg;
    cfg.protocol = harness::Protocol::kEventuallySync;
    cfg.timing = harness::Timing::kEventuallySynchronous;
    cfg.gst = 0;
    cfg.n = 21;
    cfg.delta = 5;
    cfg.duration = 5000;
    cfg.workload.read_interval = 10;
    cfg.workload.write_interval = 60;
    cfg.churn_rate = cfg.es_churn_threshold();
    const auto r = harness::run_experiment(cfg);
    benchmark::DoNotOptimize(r.reads_completed);
  }
}
BENCHMARK(BM_EsChurnSweepReplica)->Unit(benchmark::kMillisecond);

void BM_FullEsExperiment(benchmark::State& state) {
  for (auto _ : state) {
    harness::ExperimentConfig cfg;
    cfg.protocol = harness::Protocol::kEventuallySync;
    cfg.timing = harness::Timing::kEventuallySynchronous;
    cfg.gst = 0;
    cfg.n = 15;
    cfg.delta = 5;
    cfg.duration = 1000;
    cfg.churn_rate = cfg.es_churn_threshold();
    cfg.workload.read_interval = 10;
    cfg.workload.write_interval = 60;
    const auto r = harness::run_experiment(cfg);
    benchmark::DoNotOptimize(r.reads_completed);
  }
}
BENCHMARK(BM_FullEsExperiment)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

// Shared helpers for the scripted experiments, which build a
// harness::Replica and drive it step by step: a predicate-pump and a
// blocking read.
#pragma once

#include <optional>

#include "dynreg/register_node.h"
#include "harness/experiment.h"
#include "replay/trace.h"
#include "sim/simulation.h"

namespace dynreg::bench {

/// The config a scripted construction states its world with: `n` static
/// members of `protocol` (set churn_rate for churn), and no workload, so no
/// member is pinned against churn.
inline harness::ExperimentConfig scripted_config(harness::Protocol protocol, std::size_t n,
                                                 sim::Duration delta, std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.n = n;
  cfg.delta = delta;
  cfg.seed = seed;
  cfg.workload.writes_enabled = false;
  return cfg;
}

/// Steps the simulation until pred() holds or the deadline passes.
template <typename Pred>
bool pump_until(sim::Simulation& sim, Pred pred, sim::Time deadline) {
  while (!pred()) {
    const auto next = sim.next_event_time();
    if (!next || *next > deadline) break;
    sim.step();
  }
  return pred();
}

/// Reads at node `id` and steps the replica until the read returns or
/// `max_wait` ticks pass; nullopt if it did not complete.
inline std::optional<Value> read_blocking(harness::Replica& replica, sim::ProcessId id,
                                          sim::Duration max_wait = 10000) {
  std::optional<Value> result;
  RegisterNode* reg = replica.node(id);
  if (reg == nullptr) return std::nullopt;
  sim::Simulation& sim = replica.sim();
  reg->read(OpContext{0, sim.now()}, [&result](OpOutcome o, Value v) {
    if (o == OpOutcome::kOk) result = v;
  });
  pump_until(sim, [&result] { return result.has_value(); }, sim.now() + max_wait);
  return result;
}

}  // namespace dynreg::bench

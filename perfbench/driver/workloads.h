// The benchmark's workloads: each one is a set of replica configs built from
// the workload seed. The library only ever sees these configs; the seed
// never reaches it any other way.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/metrics.h"

namespace perfbench {

enum class Kind {
  kSingle,   ///< single-register worlds through harness::run_experiment
  kSharded,  ///< shard_count > 0: shard::run_sharded behind run_experiment
  kReplay,   ///< record one base run, then replay perturbed variants of it
};

struct Workload {
  std::string name;
  Kind kind = Kind::kSingle;
  /// One config per replica (kSingle, kSharded). For kReplay, the single
  /// config that is recorded and whose perturbed variants are replayed.
  std::vector<dynreg::harness::ExperimentConfig> replicas;
  /// kReplay only: perturbed variants per round and the perturbation root.
  std::size_t variants = 0;
  std::uint64_t search_seed = 0;
};

/// The workload `name` for `seed`, or nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// Deterministic counts of one replica, keyed by name. Two runs of the same
/// config must produce equal maps; the golden digest is taken over them.
using Counts = std::map<std::string, std::uint64_t>;

/// The counts a MetricsReport carries (every untraced path reads these).
Counts counts_of(const dynreg::harness::MetricsReport& report);

}  // namespace perfbench

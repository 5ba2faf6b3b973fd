// The replica grid: run every cell (a config) over several seeds and collect
// the reports, optionally enrolled in a record/replay session.
//
// The grid runs on a ThreadPool. Each replica owns its whole world —
// Simulation, Rng, Network, nodes — so runs never share mutable state, and
// every replica writes its MetricsReport into a pre-assigned slot. The
// collected output is therefore byte-identical for any worker count:
// parallelism changes wall-clock time only.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/aggregate.h"
#include "harness/experiment.h"
#include "harness/metrics.h"

namespace dynreg::replay {
class Session;
}  // namespace dynreg::replay

namespace dynreg::harness {

/// Mean of fn over a set of runs, summed in run order (aggregate_metrics
/// sorts first, so the two may differ in the last bit).
template <typename Fn>
double mean_of(const std::vector<MetricsReport>& runs, Fn fn) {
  if (runs.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : runs) total += static_cast<double>(fn(r));
  return total / static_cast<double>(runs.size());
}

/// The seed used for replica `index` of a cell whose config carries
/// `base_seed`. Part of the determinism contract: results are identified by
/// (config, replica_seed(base, i)), never by execution order.
std::uint64_t replica_seed(std::uint64_t base_seed, std::size_t index);

/// Copies of `base`, one per x in `xs`, with apply(cfg, x) applied — the
/// cells of a one-knob sweep, in xs order.
template <typename Apply>
std::vector<ExperimentConfig> vary(const ExperimentConfig& base,
                                   const std::vector<double>& xs, Apply apply) {
  std::vector<ExperimentConfig> cells(xs.size(), base);
  for (std::size_t i = 0; i < xs.size(); ++i) apply(cells[i], xs[i]);
  return cells;
}

/// Runs `seeds` replicas of every cell — replica s of cell c at
/// replica_seed(cells[c].seed, s) — with up to `jobs` in flight at once
/// (0 = one per hardware thread), and returns the reports as [cell][seed].
/// With a `session`, every replica is enrolled in it under its config
/// fingerprint (recorded or replayed, see replay/session.h); nullptr is a
/// plain run. Throws std::invalid_argument when seeds is 0.
std::vector<std::vector<MetricsReport>> run_grid(const std::vector<ExperimentConfig>& cells,
                                                 std::size_t seeds, std::size_t jobs,
                                                 replay::Session* session);

}  // namespace dynreg::harness

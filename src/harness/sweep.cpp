#include "harness/sweep.h"

#include <stdexcept>

#include "harness/thread_pool.h"
#include "replay/session.h"
#include "replay/trace_io.h"

namespace dynreg::harness {

std::uint64_t replica_seed(std::uint64_t base_seed, std::size_t index) {
  // Keep the original (PR 1) derivation so historical outputs stay valid.
  return base_seed + (static_cast<std::uint64_t>(index) + 1) * 1009;
}

std::vector<std::vector<MetricsReport>> run_grid(const std::vector<ExperimentConfig>& cells,
                                                 std::size_t seeds, std::size_t jobs,
                                                 replay::Session* session) {
  if (seeds == 0) throw std::invalid_argument("run_grid: seeds must be at least 1");
  std::vector<std::vector<MetricsReport>> grid(cells.size(),
                                               std::vector<MetricsReport>(seeds));
  // Flatten the (cell, seed) grid: every replica gets a pre-assigned slot, so
  // the assembled result is independent of scheduling.
  parallel_for(jobs, cells.size() * seeds, [&](std::size_t task) {
    const std::size_t c = task / seeds;
    const std::size_t s = task % seeds;
    ExperimentConfig cfg = cells[c];
    cfg.seed = replica_seed(cells[c].seed, s);
    if (session == nullptr) {
      grid[c][s] = run_experiment(cfg);
      return;
    }
    replay::Trace scratch;
    const replay::RunHooks hooks = session->open(replay::fingerprint(cfg), cfg.seed, scratch);
    grid[c][s] = run_experiment(cfg, hooks);
    session->finish(hooks, grid[c][s].trace_hash);
  });
  return grid;
}

}  // namespace dynreg::harness

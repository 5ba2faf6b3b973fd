// The seed-parallel replica grid: worker-count independence (the
// determinism contract), the cross-seed aggregates, and the rule that
// violation counts are never silently averaged away.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "harness/aggregate.h"
#include "harness/sweep.h"
#include "harness/thread_pool.h"
#include "stats/json_writer.h"

namespace dynreg::harness {
namespace {

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 100;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(/*jobs=*/4, kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  EXPECT_THROW(parallel_for(3, 8,
                            [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForRunsAllBodiesDespiteExceptionAtAnyJobCount) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(8);
    EXPECT_THROW(parallel_for(jobs, hits.size(),
                              [&](std::size_t i) {
                                hits[i].fetch_add(1);
                                if (i == 2) throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(ThreadPool, ResolveJobsZeroMeansHardware) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(3), 3u);
}

TEST(Aggregate, SummarizesKnownSamples) {
  const Aggregate a = aggregate({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(a.mean, 2.5);
  EXPECT_DOUBLE_EQ(a.stddev, std::sqrt(5.0 / 3.0));  // sample stddev
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 4.0);
  EXPECT_DOUBLE_EQ(a.p50, 3.0);  // nearest-rank: sorted[floor(0.5*4)]
  EXPECT_DOUBLE_EQ(a.p99, 4.0);
}

TEST(Aggregate, EmptyAndSingletonAreDefined) {
  const Aggregate empty = aggregate({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  const Aggregate one = aggregate({7.0});
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);  // not NaN
  EXPECT_DOUBLE_EQ(one.p99, 7.0);
}

TEST(Aggregate, ViolationsReportedAsTotalAndWorstSeedNotMean) {
  // Three seeds: clean, clean, catastrophic. A mean would say "1.67
  // violations"; the aggregate must preserve both the total and the max.
  std::vector<MetricsReport> runs(3);
  for (auto& r : runs) r.regularity.reads_checked = 100;
  runs[2].regularity.violations.resize(5);
  runs[2].atomicity.inversion_count = 4;
  runs[0].majority_active_always = runs[1].majority_active_always = true;
  runs[2].majority_active_always = false;

  const AggregatedMetrics m = aggregate_metrics(runs);
  EXPECT_EQ(m.seeds, 3u);
  EXPECT_EQ(m.violations_total, 5u);
  EXPECT_EQ(m.violations_max_seed, 5u);
  EXPECT_EQ(m.inversions_total, 4u);
  EXPECT_EQ(m.inversions_max_seed, 4u);
  EXPECT_NEAR(m.majority_active_fraction, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.violation_rate.mean, (0.05) / 3.0, 1e-12);
}

ExperimentConfig cheap_config() {
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kSync;
  cfg.n = 6;
  cfg.delta = 3;
  cfg.duration = 300;
  cfg.workload.read_interval = 5;
  cfg.workload.write_interval = 20;
  return cfg;
}

/// Serializes every aggregate field of every cell — any nondeterminism
/// (scheduling-dependent result placement, float accumulation order) shows
/// up as a byte difference.
std::string serialize(const std::vector<std::vector<MetricsReport>>& grid) {
  stats::JsonWriter w;
  w.begin_array();
  for (const auto& runs : grid) {
    const AggregatedMetrics m = aggregate_metrics(runs);
    w.begin_object();
    w.key("seeds");
    w.value(static_cast<std::uint64_t>(m.seeds));
    const std::vector<std::pair<const char*, Aggregate>> metrics{
        {"read_completion", m.read_completion},
        {"join_completion", m.join_completion},
        {"read_latency", m.read_latency},
        {"violation_rate", m.violation_rate},
        {"min_active_3delta", m.min_active_3delta}};
    for (const auto& [name, agg] : metrics) {
      w.key(name);
      w.begin_array();
      w.value(agg.mean);
      w.value(agg.stddev);
      w.value(agg.min);
      w.value(agg.max);
      w.value(agg.p50);
      w.value(agg.p99);
      w.end_array();
    }
    w.key("violations_total");
    w.value(m.violations_total);
    w.key("violations_max_seed");
    w.value(m.violations_max_seed);
    w.end_object();
  }
  w.end_array();
  return w.str();
}

TEST(RunGrid, OutputIndependentOfWorkerCount) {
  const auto cells = vary(cheap_config(), {0.0, 0.01, 0.03},
                          [](ExperimentConfig& cfg, double c) { cfg.churn_rate = c; });

  const auto serial = run_grid(cells, /*seeds=*/4, /*jobs=*/1, nullptr);
  const auto parallel = run_grid(cells, /*seeds=*/4, /*jobs=*/8, nullptr);
  EXPECT_EQ(serialize(serial), serialize(parallel));
}

TEST(RunGrid, ReplicaSeedsMatchHistoricalDerivation) {
  EXPECT_EQ(replica_seed(1, 0), 1u + 1009u);
  EXPECT_EQ(replica_seed(1, 2), 1u + 3 * 1009u);
}

TEST(RunGrid, SeedOrderIsStable) {
  const std::vector<ExperimentConfig> cells{cheap_config()};
  const auto serial = run_grid(cells, 4, /*jobs=*/1, nullptr);
  const auto pooled = run_grid(cells, 4, /*jobs=*/4, nullptr);
  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(serial[0].size(), pooled[0].size());
  for (std::size_t i = 0; i < serial[0].size(); ++i) {
    EXPECT_EQ(serial[0][i].reads_completed, pooled[0][i].reads_completed) << i;
    EXPECT_EQ(serial[0][i].writes_completed, pooled[0][i].writes_completed) << i;
    EXPECT_DOUBLE_EQ(serial[0][i].read_latency_mean, pooled[0][i].read_latency_mean) << i;
  }
}

TEST(RunGrid, ReplicaRunsAtItsCellsReplicaSeed) {
  ExperimentConfig cell = cheap_config();
  cell.seed = 77;
  const auto grid = run_grid({cell}, 2, /*jobs=*/1, nullptr);
  cell.seed = replica_seed(77, 1);
  const MetricsReport direct = run_experiment(cell);
  EXPECT_EQ(grid[0][1].trace_hash, direct.trace_hash);
  EXPECT_EQ(grid[0][1].reads_completed, direct.reads_completed);
}

TEST(RunGrid, RejectsZeroSeeds) {
  EXPECT_THROW(run_grid({cheap_config()}, 0, /*jobs=*/1, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace dynreg::harness

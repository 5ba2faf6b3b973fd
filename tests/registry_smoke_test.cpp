// The experiment registry: every paper experiment is registered, lookup
// works, a cheap experiment runs end to end through the registry, its JSON
// serialization is independent of the worker count, and the scripted
// constructions reproduce their golden JSON byte for byte.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "emit.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

TEST(Registry, AllTwentyExperimentsRegistered) {
  const auto all = ExperimentRegistry::instance().list();
  ASSERT_EQ(all.size(), 20u);
  // Ordered by paper-experiment id (numerically: E2 before E10).
  EXPECT_EQ(all.front()->id, "E1");
  EXPECT_EQ(all.back()->id, "E20");
  for (const Experiment* e : all) {
    EXPECT_FALSE(e->name.empty());
    EXPECT_FALSE(e->paper_ref.empty());
    EXPECT_FALSE(e->grid.empty());
    EXPECT_TRUE(static_cast<bool>(e->run)) << e->name;
  }
}

TEST(Registry, FindByName) {
  EXPECT_NE(ExperimentRegistry::instance().find("sync_churn_sweep"), nullptr);
  EXPECT_EQ(ExperimentRegistry::instance().find("no_such_experiment"), nullptr);
}

TEST(Registry, EffectiveSeedsDefaultsAndOverrides) {
  const Experiment* e = ExperimentRegistry::instance().find("sync_churn_sweep");
  ASSERT_NE(e, nullptr);
  RunOptions opts;
  EXPECT_EQ(effective_seeds(*e, opts), e->default_seeds);
  opts.seeds = 9;
  EXPECT_EQ(effective_seeds(*e, opts), 9u);
}

TEST(Registry, Fig3RunsEndToEndAndReproducesTheFigure) {
  const Experiment* e = ExperimentRegistry::instance().find("fig3_join_wait");
  ASSERT_NE(e, nullptr);
  RunOptions opts;
  opts.jobs = 2;
  const ExperimentResult result = e->run(opts);
  ASSERT_EQ(result.sections.size(), 1u);
  const auto& rows = result.sections[0].table.rows();
  ASSERT_EQ(rows.size(), 8u);
  // Rows 0-3: no-wait variant violates; rows 4-7: the paper's protocol is ok.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(rows[i].back().text, "VIOLATION") << i;
  for (std::size_t i = 4; i < 8; ++i) EXPECT_EQ(rows[i].back().text, "ok") << i;
}

TEST(Registry, JsonSerializationIndependentOfJobs) {
  const Experiment* e = ExperimentRegistry::instance().find("fig3_join_wait");
  ASSERT_NE(e, nullptr);
  RunOptions serial;
  serial.jobs = 1;
  RunOptions pooled;
  pooled.jobs = 4;
  const std::string a = to_json(*e, 1, e->run(serial));
  const std::string b = to_json(*e, 1, e->run(pooled));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("jobs"), std::string::npos);  // execution detail: never emitted
}

TEST(Registry, ScriptedConstructionsMatchGoldenJson) {
  // E1, E2 and E5 ignore the seed and run in well under a second; their JSON
  // is pinned as `dynreg_exp run <name> --format=json --out=DIR` writes it.
  for (const char* name : {"fig3_join_wait", "lemma2_active_bound",
                           "impossibility_async"}) {
    SCOPED_TRACE(name);
    const Experiment* e = ExperimentRegistry::instance().find(name);
    ASSERT_NE(e, nullptr);
    std::ifstream in(std::string(DYNREG_TESTDATA_DIR) + "/" + name + ".json",
                     std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream golden;
    golden << in.rdbuf();
    RunOptions opts;
    opts.jobs = 2;
    EXPECT_EQ(to_json(*e, effective_seeds(*e, opts), run_resolved(*e, opts)), golden.str());
  }
}

}  // namespace
}  // namespace dynreg::bench

// The trace round-trip property: for EVERY registered experiment, a
// session-recorded run serialized through the trace file format and
// replayed back produces byte-identical emitter output and zero audit-hash
// mismatches — at any worker count. This is the end-to-end guarantee the
// `dynreg_exp record`/`replay` CLI (and the CI replay gate) stand on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>

#include "emit.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "registry.h"
#include "replay/session.h"
#include "replay/trace_io.h"

namespace dynreg::bench {
namespace {

struct Recorded {
  std::string json;
  replay::TraceFile file;
};

Recorded record(const Experiment& e, std::size_t jobs) {
  replay::Session session;
  RunOptions opts;
  opts.seeds = 1;  // one replica per point keeps the full sweep affordable
  opts.max_n = 100;  // caps the scaling experiments' (E15/E16) n grids too
  opts.jobs = jobs;
  opts.session = &session;
  const ExperimentResult result = e.run(opts);
  Recorded rec;
  rec.json = to_json(e, 1, result);
  rec.file.experiment = e.name;
  rec.file.seeds = {1};
  rec.file.traces = session.collected();
  return rec;
}

std::string replay_from(const Experiment& e, replay::TraceFile file, std::size_t jobs) {
  replay::Session session(std::move(file.traces));
  RunOptions opts;
  opts.seeds = 1;
  opts.max_n = 100;
  opts.jobs = jobs;
  opts.session = &session;
  const ExperimentResult result = e.run(opts);
  EXPECT_EQ(session.hash_mismatches(), 0u) << e.name;
#ifdef DYNREG_AUDIT
  // Both sides carry the auditor, so every replayed run was really compared.
  EXPECT_EQ(session.not_compared(), 0u) << e.name;
#endif
  return to_json(e, 1, result);
}

TEST(ReplayRoundTrip, EveryExperimentRecordsAndReplaysByteIdentically) {
  for (const Experiment* e : ExperimentRegistry::instance().list()) {
    SCOPED_TRACE(e->name);
    Recorded rec = record(*e, /*jobs=*/0);

    // Serialize through the real file format — the replay consumes exactly
    // the bytes a `dynreg_exp record` artifact would hold.
    replay::TraceFile decoded = replay::decode(replay::encode(rec.file));
    // E14 drives its runs through the hooks overload (no session by design:
    // its searches must not pollute the recording); every other
    // experiment's runs must show up in the session.
    if (e->name != "threshold_search") {
      EXPECT_FALSE(decoded.traces.empty()) << e->name;
    }

    const std::string replayed = replay_from(*e, std::move(decoded), /*jobs=*/0);
    EXPECT_EQ(replayed, rec.json) << e->name;
  }
}

TEST(ReplayRoundTrip, ReplayIsJobsIndependent) {
  const Experiment* e = ExperimentRegistry::instance().find("es_churn_sweep");
  ASSERT_NE(e, nullptr);
  Recorded rec = record(*e, /*jobs=*/1);

  const auto bytes = replay::encode(rec.file);
  const std::string serial = replay_from(*e, replay::decode(bytes), /*jobs=*/1);
  const std::string pooled = replay_from(*e, replay::decode(bytes), /*jobs=*/8);
  EXPECT_EQ(serial, rec.json);
  EXPECT_EQ(pooled, rec.json);
}

TEST(ReplayRoundTrip, ScalingExperimentsReplayJobsIndependently) {
  // The scaling sweeps (E15 runs a tree-dissemination mode; E16 runs heavy
  // churn grids) must round-trip through the v2 trace format — which now
  // carries dissemination mode + fanout in the config key — and replay
  // byte-identically at any worker count. Grids capped via max_n (the
  // record/replay helpers) to keep the suite affordable.
  for (const char* name : {"scaling_messages", "scaling_churn"}) {
    SCOPED_TRACE(name);
    const Experiment* e = ExperimentRegistry::instance().find(name);
    ASSERT_NE(e, nullptr);
    Recorded rec = record(*e, /*jobs=*/1);
    EXPECT_FALSE(rec.file.traces.empty());

    const auto bytes = replay::encode(rec.file);
    const std::string serial = replay_from(*e, replay::decode(bytes), /*jobs=*/1);
    const std::string pooled = replay_from(*e, replay::decode(bytes), /*jobs=*/8);
    EXPECT_EQ(serial, rec.json);
    EXPECT_EQ(pooled, rec.json);
  }
}

TEST(ReplayRoundTrip, TreeDisseminationTracesCarryTheirMode) {
  // A recorded tree-mode run must not be conflated with a flat-mode run of
  // the same parameters: the trace key includes the dissemination fields,
  // so the E15 scenario (a tree cell) round-trips to a tree replay.
  const Experiment* e = ExperimentRegistry::instance().find("scaling_messages");
  ASSERT_NE(e, nullptr);
  ASSERT_TRUE(e->scenario);
  const harness::ExperimentConfig cfg = e->scenario();
  EXPECT_EQ(cfg.dissemination, harness::Dissemination::kTree);
  const std::uint64_t key = replay::fingerprint(cfg);
  harness::ExperimentConfig flat = cfg;
  flat.dissemination = harness::Dissemination::kFlat;
  EXPECT_NE(replay::fingerprint(flat), key);
  harness::ExperimentConfig fanout8 = cfg;
  fanout8.tree_fanout = 8;
  EXPECT_NE(replay::fingerprint(fanout8), key);
}

TEST(ReplayRoundTrip, ShardedExperimentsReplayJobsIndependently) {
  // E19/E20 run the sharded pipeline: every shard's net verdicts interleave
  // into one stream, churn records carry shard tags, and the whole thing
  // must still round-trip through real file bytes and replay byte-identically
  // at any worker count.
  for (const char* name : {"shard_throughput", "shard_tail_churn"}) {
    SCOPED_TRACE(name);
    const Experiment* e = ExperimentRegistry::instance().find(name);
    ASSERT_NE(e, nullptr);
    Recorded rec = record(*e, /*jobs=*/1);
    EXPECT_FALSE(rec.file.traces.empty());

    const auto bytes = replay::encode(rec.file);
    const std::string serial = replay_from(*e, replay::decode(bytes), /*jobs=*/1);
    const std::string pooled = replay_from(*e, replay::decode(bytes), /*jobs=*/8);
    EXPECT_EQ(serial, rec.json);
    EXPECT_EQ(pooled, rec.json);
  }
}

TEST(ReplayRoundTrip, ShardedTracesCarryTheirKeyspaceConfig) {
  // A recorded sharded run must never be conflated with a differently
  // partitioned or differently skewed run of the same base parameters: the
  // v4 config appendix (shard count, key count, zipf exponent, read mix,
  // storm phases) is part of the trace fingerprint.
  const Experiment* e = ExperimentRegistry::instance().find("shard_tail_churn");
  ASSERT_NE(e, nullptr);
  ASSERT_TRUE(e->scenario);
  const harness::ExperimentConfig cfg = e->scenario();
  EXPECT_GT(cfg.shard_count, 0u);
  const std::uint64_t key = replay::fingerprint(cfg);

  harness::ExperimentConfig other = cfg;
  other.shard_count = cfg.shard_count * 2;
  EXPECT_NE(replay::fingerprint(other), key);
  other = cfg;
  other.workload.zipf_s = 0.0;
  EXPECT_NE(replay::fingerprint(other), key);
  other = cfg;
  other.workload.read_frac = 0.5;
  EXPECT_NE(replay::fingerprint(other), key);
  other = cfg;
  other.workload.key_count *= 2;
  EXPECT_NE(replay::fingerprint(other), key);
  other = cfg;
  other.workload.storm_every = 0;
  other.workload.storm_len = 0;
  EXPECT_NE(replay::fingerprint(other), key);
}

TEST(ReplayRoundTrip, ScriptedScenarioExperimentsEnrollInTheSession) {
  // E1/E2/E5 build their world by hand (ScriptedCluster) rather than via
  // run_experiment; the scenario_key plumbing must still capture them.
  for (const char* name : {"fig3_join_wait", "lemma2_active_bound",
                           "impossibility_async"}) {
    SCOPED_TRACE(name);
    const Experiment* e = ExperimentRegistry::instance().find(name);
    ASSERT_NE(e, nullptr);
    Recorded rec = record(*e, /*jobs=*/1);
    EXPECT_FALSE(rec.file.traces.empty());
    const std::string replayed =
        replay_from(*e, replay::decode(replay::encode(rec.file)), /*jobs=*/1);
    EXPECT_EQ(replayed, rec.json);
  }
}

TEST(ReplayRoundTrip, SessionsAreIsolated) {
  // Two sessions recording two experiments on two threads at once each
  // collect exactly what a solo recording collects, and a plain run made
  // meanwhile is captured by neither.
  const Experiment* e4 = ExperimentRegistry::instance().find("es_churn_sweep");
  const Experiment* e3 = ExperimentRegistry::instance().find("sync_churn_sweep");
  ASSERT_NE(e4, nullptr);
  ASSERT_NE(e3, nullptr);
  const auto solo_e4 = replay::encode(record(*e4, /*jobs=*/1).file);
  const auto solo_e3 = replay::encode(record(*e3, /*jobs=*/1).file);

  Recorded both_e4;
  Recorded both_e3;
  std::thread t4([&] { both_e4 = record(*e4, /*jobs=*/1); });
  std::thread t3([&] { both_e3 = record(*e3, /*jobs=*/1); });
  harness::ExperimentConfig plain;
  plain.n = 6;
  plain.duration = 200;
  const harness::MetricsReport report = harness::run_experiment(plain);
  t4.join();
  t3.join();

  EXPECT_GT(report.reads_completed, 0u);
  EXPECT_EQ(replay::encode(both_e4.file), solo_e4);
  EXPECT_EQ(replay::encode(both_e3.file), solo_e3);
}

TEST(ReplayRoundTrip, ReplayCountsUncomparedHashes) {
  // A trace whose recorded hash is 0 (a file from before the hash, or a
  // recording without DYNREG_AUDIT) replays, but its hash is not compared —
  // the summary must say so instead of counting it as a match.
  harness::ExperimentConfig cfg;
  cfg.n = 6;
  cfg.duration = 200;
  replay::Session recording;
  (void)harness::run_grid({cfg}, 1, /*jobs=*/1, &recording);
  std::vector<replay::Trace> traces = recording.collected();
  ASSERT_EQ(traces.size(), 1u);
  traces[0].recorded_hash = 0;

  replay::Session replaying(std::move(traces));
  (void)harness::run_grid({cfg}, 1, /*jobs=*/1, &replaying);
  EXPECT_EQ(replaying.replays(), 1u);
  EXPECT_EQ(replaying.hash_mismatches(), 0u);
  EXPECT_EQ(replaying.not_compared(), 1u);
}

}  // namespace
}  // namespace dynreg::bench

#include "workloads.h"

#include "harness/sweep.h"

namespace perfbench {

using dynreg::harness::ExperimentConfig;

namespace {

// Replica-set sizes. Each is sized so that one round of the set takes a few
// seconds on a 4-core host at 4 workers, leaving room for several rounds (and
// a median) inside one measured run.
constexpr std::size_t kSyncReplicas = 4;
constexpr std::size_t kEsReplicas = 16;
constexpr std::size_t kShardReplicas = 4;
constexpr std::size_t kReplayVariants = 1000;

std::vector<ExperimentConfig> replica_set(const ExperimentConfig& base,
                                          std::uint64_t seed, std::size_t count) {
  std::vector<ExperimentConfig> out(count, base);
  for (std::size_t i = 0; i < count; ++i) {
    out[i].seed = dynreg::harness::replica_seed(seed, i);
  }
  return out;
}

// E16's hot cell: the join protocol's INQUIRY broadcast plus n REPLYs per
// join dominate, and the client does almost nothing.
ExperimentConfig sync_join_churn() {
  ExperimentConfig cfg;
  cfg.protocol = dynreg::harness::Protocol::kSync;
  cfg.timing = dynreg::harness::Timing::kSynchronous;
  cfg.n = 1000;
  cfg.delta = 3;
  cfg.duration = 75;
  cfg.churn_kind = dynreg::harness::ChurnKind::kConstant;
  cfg.churn_rate = 0.9 * cfg.sync_churn_threshold();
  cfg.workload.read_interval = 20;
  // Writes at t = 37 and 74: the second is still in flight at the horizon
  // (a sync write takes delta), so ops_failed_frac is never 0 here.
  cfg.workload.write_interval = 37;
  return cfg;
}

// Quorum traffic with client deadlines and retries, under durable
// crash-recovery and healing partitions: the fault hook runs on every copy.
ExperimentConfig es_quorum_faults() {
  ExperimentConfig cfg;
  cfg.protocol = dynreg::harness::Protocol::kEventuallySync;
  cfg.timing = dynreg::harness::Timing::kEventuallySynchronous;
  cfg.gst = 0;
  cfg.n = 64;
  cfg.delta = 5;
  cfg.duration = 20000;
  cfg.churn_kind = dynreg::harness::ChurnKind::kConstant;
  cfg.churn_rate = 0.5 * cfg.es_churn_threshold();
  cfg.workload.read_interval = 1;
  cfg.workload.write_interval = 10;
  cfg.workload.op_deadline = 40;
  cfg.workload.retry_max_attempts = 2;
  cfg.workload.retry_backoff = 10;
  cfg.workload.retry_exponential = true;
  cfg.fault.crash.rate = 0.01;
  cfg.fault.crash.recover_fraction = 1.0;
  cfg.fault.crash.restart = dynreg::fault::RestartState::kDurable;
  cfg.fault.partition.rate = 0.002;
  cfg.fault.partition.duration = 100;
  cfg.fault.partition.fraction = 0.3;
  return cfg;
}

// E19's scale cell: 1e5 processes in 16 shards, 1e5 closed-loop keyed
// sessions. World building and memory matter here; broadcast work does not.
ExperimentConfig sharded_zipf_1e5() {
  ExperimentConfig cfg;
  cfg.protocol = dynreg::harness::Protocol::kSync;
  cfg.timing = dynreg::harness::Timing::kSynchronous;
  cfg.delta = 5;
  cfg.duration = 50;
  cfg.churn_kind = dynreg::harness::ChurnKind::kNone;
  cfg.n = 100000;
  cfg.shard_count = 16;
  cfg.chronicle_aggregate = true;
  cfg.workload.kind = dynreg::workload::Kind::kClosedLoop;
  cfg.workload.clients = 100000;
  cfg.workload.think_time = 1;
  cfg.workload.key_count = 256;
  cfg.workload.zipf_s = 0.99;
  cfg.workload.read_frac = 0.8;
  return cfg;
}

// The base run whose schedule replay::search perturbs: many short worlds,
// so per-world set-up and teardown dominate.
ExperimentConfig replay_base() {
  ExperimentConfig cfg;
  cfg.protocol = dynreg::harness::Protocol::kSync;
  cfg.timing = dynreg::harness::Timing::kSynchronous;
  cfg.n = 30;
  cfg.delta = 5;
  cfg.duration = 1000;
  cfg.churn_kind = dynreg::harness::ChurnKind::kConstant;
  cfg.churn_rate = 0.9 * cfg.sync_churn_threshold();
  cfg.workload.read_interval = 10;
  // The twelfth write, at t = 996, is still in flight at the horizon.
  cfg.workload.write_interval = 83;
  return cfg;
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "sync_join_churn") {
    w.replicas = replica_set(sync_join_churn(), seed, kSyncReplicas);
  } else if (name == "es_quorum_faults") {
    w.replicas = replica_set(es_quorum_faults(), seed, kEsReplicas);
  } else if (name == "sharded_zipf_1e5") {
    w.kind = Kind::kSharded;
    w.replicas = replica_set(sharded_zipf_1e5(), seed, kShardReplicas);
  } else if (name == "replay_search") {
    w.kind = Kind::kReplay;
    w.replicas = replica_set(replay_base(), seed, 1);
    w.variants = kReplayVariants;
    w.search_seed = seed;
  } else {
    return std::nullopt;
  }
  return w;
}

Counts counts_of(const dynreg::harness::MetricsReport& r) {
  Counts c;
  for (const auto& [tag, n] : r.msgs_by_type) c["delivered." + tag] = n;
  c["reads_issued"] = r.reads_issued;
  c["reads_completed"] = r.reads_completed;
  c["writes_issued"] = r.writes_issued;
  c["writes_completed"] = r.writes_completed;
  c["reads_dropped"] = r.reads_dropped;
  c["writes_dropped"] = r.writes_dropped;
  c["reads_timed_out"] = r.reads_timed_out;
  c["writes_timed_out"] = r.writes_timed_out;
  c["retries"] = r.op_retries;
  c["joins_started"] = r.joins_started;
  c["joins_completed"] = r.joins_completed;
  c["joins_abandoned"] = r.joins_abandoned;
  c["crashes"] = r.faults_crashes;
  c["recoveries"] = r.faults_recoveries;
  c["partitions"] = r.faults_partitions;
  c["heals"] = r.faults_heals;
  c["dropped_partition"] = r.msgs_dropped_partition;
  c["transformed"] = r.msgs_transformed;
  c["reads_checked"] = r.regularity.reads_checked;
  c["violations"] = r.regularity.violations.size();
  c["inversions"] = r.atomicity.inversion_count;
  std::uint64_t shard_ops = 0;
  for (const auto& s : r.shards) shard_ops += s.ops_completed;
  c["shard_ops_completed"] = shard_ops;
  return c;
}

}  // namespace perfbench

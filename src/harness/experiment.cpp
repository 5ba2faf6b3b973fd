#include "harness/experiment.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "client/client.h"
#include "consistency/history.h"
#include "harness/aggregate.h"
#include "dynreg/abd_register.h"
#include "dynreg/es_register.h"
#include "dynreg/register_node.h"
#include "dynreg/sync_register.h"
#include "fault/decision.h"
#include "fault/injector.h"
#include "harness/builders.h"
#include "harness/workload.h"
#include "net/delay_model.h"
#include "net/disseminator.h"
#include "net/network.h"
#include "replay/hooks.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "shard/keyed_workload.h"
#include "shard/router.h"

namespace dynreg::harness {

std::unique_ptr<net::DelayModel> build_delays(const ExperimentConfig& cfg) {
  if (cfg.timing == Timing::kEventuallySynchronous) {
    return std::make_unique<net::EventuallySynchronousDelay>(cfg.gst, cfg.pre_gst_max,
                                                             cfg.delta);
  }
  return std::make_unique<net::SynchronousDelay>(cfg.delta);
}

churn::System::NodeFactory build_node_factory(const ExperimentConfig& cfg,
                                              std::size_t n) {
  switch (cfg.protocol) {
    case Protocol::kSync:
    case Protocol::kSyncNoWait: {
      SyncConfig sc;
      sc.delta = cfg.delta;
      sc.wait_before_inquiry = cfg.protocol != Protocol::kSyncNoWait;
      sc.delta_pp = cfg.sync_delta_pp;
      sc.refresh_interval = cfg.sync_refresh_interval;
      sc.initial_value = kInitialValue;
      return [sc](sim::ProcessId id, node::Context& ctx, bool initial) {
        return std::make_unique<SyncRegisterNode>(id, ctx, sc, initial);
      };
    }
    case Protocol::kEventuallySync: {
      EsConfig ec;
      ec.n = n;
      // Retransmit cadence scales with the dissemination depth: a flat
      // broadcast completes a round trip within ~2*delta, but over a fanout
      // tree a copy crosses ceil(log_f(n)) hops each way, so the fixed
      // 2*delta timer fired several extra rebroadcast rounds while the
      // deeper quorum was still forming (the E15 message-count gap —
      // docs/PERFORMANCE.md). Flat keeps the historical value byte-for-byte
      // (depth 1 => (1+1)*delta == 2*delta).
      const std::size_t depth = cfg.dissemination == Dissemination::kTree
                                    ? net::TreeDisseminator(cfg.tree_fanout).depth(n)
                                    : 1;
      ec.retransmit_interval =
          std::max<sim::Duration>(1, static_cast<sim::Duration>(depth + 1) * cfg.delta);
      ec.atomic_reads = cfg.es_atomic_reads;
      ec.retransmit_backoff = cfg.es_retransmit_backoff;
      ec.validate_replies = cfg.es_validate_replies;
      ec.initial_value = kInitialValue;
      return [ec](sim::ProcessId id, node::Context& ctx, bool initial) {
        return std::make_unique<EsRegisterNode>(id, ctx, ec, initial);
      };
    }
    case Protocol::kAbd: {
      AbdConfig ac;
      ac.n = n;
      ac.initial_value = kInitialValue;
      return [ac](sim::ProcessId id, node::Context& ctx, bool initial) {
        return std::make_unique<AbdRegisterNode>(id, ctx, ac, initial);
      };
    }
  }
  return nullptr;
}

std::vector<sim::ProcessId> designated_writers(const ExperimentConfig& cfg) {
  std::vector<sim::ProcessId> writers;
  if (!cfg.workload.writes_enabled) return writers;
  const std::size_t k = cfg.workload.writer_mode == workload::WriterMode::kConcurrent
                            ? std::max<std::size_t>(1, cfg.workload.concurrent_writers)
                            : 1;
  for (std::size_t w = 0; w < k && w < cfg.n; ++w) {
    writers.push_back(static_cast<sim::ProcessId>(w));
  }
  return writers;
}

MetricsReport run_experiment(const ExperimentConfig& cfg) {
  return run_experiment(cfg, replay::RunHooks{});
}

namespace {

/// One membership group's owned world: the network, history, churn::System
/// and client serving one register, plus the recorder tagging the group's
/// churn with its shard id when the run records. Construction order inside a
/// world is fixed (network, history, system, client) and worlds are built
/// in shard order, so the whole assembly is deterministic.
struct World {
  std::unique_ptr<net::Network> net;
  std::unique_ptr<consistency::History> history;
  std::unique_ptr<churn::System> system;
  std::unique_ptr<client::Client> client;
  std::unique_ptr<replay::TraceRecorder> recorder;
  std::size_t n = 0;  ///< this world's slice of the total population
};

/// Builds world `shard` of `count` for `cfg`. Replay models come from
/// `replayer` when set; recording wrappers and observers feed hooks.record.
World build_world(sim::Simulation& sim, const ExperimentConfig& cfg,
                  const replay::RunHooks& hooks, replay::TraceReplayer* replayer,
                  std::uint32_t shard, std::size_t count,
                  const std::vector<sim::ProcessId>& writers) {
  World w;
  // Population slice: n/S each, remainder spread over the first shards —
  // pure arithmetic on the config (a one-world run gets all n).
  w.n = cfg.n / count + (shard < cfg.n % count ? 1 : 0);

  // Recording interleaves every world's verdicts into the one net stream, so
  // replay hands every world a model on the replayer's one cursor.
  std::unique_ptr<net::DelayModel> delays =
      replayer != nullptr ? replayer->make_delay_model() : build_delays(cfg);
  if (hooks.record != nullptr) {
    delays = std::make_unique<replay::RecordingDelayModel>(std::move(delays),
                                                           *hooks.record);
  }
  w.net = std::make_unique<net::Network>(sim, std::move(delays));
  w.net->set_loss_rate(cfg.loss_rate);
  if (cfg.dissemination == Dissemination::kTree) {
    w.net->set_disseminator(std::make_unique<net::TreeDisseminator>(cfg.tree_fanout));
  }

  w.history = std::make_unique<consistency::History>(kInitialValue);

  churn::SystemConfig sys_cfg;
  sys_cfg.initial_size = w.n;
  sys_cfg.leave_policy = cfg.leave_policy;
  sys_cfg.exempt = writers;
  sys_cfg.chronicle = {cfg.chronicle_aggregate, 3 * cfg.delta, cfg.duration};

  std::unique_ptr<churn::ChurnModel> churn_model;
  if (replayer != nullptr) {
    churn_model = replayer->make_churn_model(shard);
  } else if (cfg.churn_kind == ChurnKind::kNone || cfg.churn_rate <= 0.0) {
    churn_model = std::make_unique<churn::NoChurn>();
  } else {
    churn_model = std::make_unique<churn::ConstantChurn>(cfg.churn_rate);
  }

  w.system = std::make_unique<churn::System>(sim, *w.net, sys_cfg, std::move(churn_model),
                                             build_node_factory(cfg, w.n));
  w.client = std::make_unique<client::Client>(sim, *w.system, *w.history, cfg.duration);

  if (hooks.record != nullptr) {
    w.recorder = std::make_unique<replay::TraceRecorder>(*hooks.record, shard);
    w.system->set_churn_observer(w.recorder.get());
    w.client->set_target_observer(w.recorder.get());
  }
  if (replayer != nullptr) w.client->set_target_chooser(replayer->target_chooser());
  return w;
}

/// Appends `src` to `dst`, moving when `dst` is still empty.
void append(std::vector<double>& dst, std::vector<double>&& src) {
  if (dst.empty()) {
    dst = std::move(src);
  } else {
    dst.insert(dst.end(), src.begin(), src.end());
  }
}

/// Sum over `divisor` and nearest-rank p50/p99 of `samples` (sorted in
/// place); leaves the outputs untouched when there are no samples.
void summarize(std::vector<double>& samples, double divisor, double& mean, double& p50,
               double& p99) {
  if (samples.empty()) return;
  double total = 0.0;
  for (const double l : samples) total += l;
  mean = total / divisor;
  std::sort(samples.begin(), samples.end());
  p50 = percentile(samples, 0.50);
  p99 = percentile(samples, 0.99);
}

/// One shard's combined read+write latency slice.
ShardMetrics shard_slice(const client::OpStats& ops) {
  ShardMetrics sm;
  sm.reads_completed = ops.reads_completed;
  sm.writes_completed = ops.writes_completed;
  sm.ops_completed = ops.reads_completed + ops.writes_completed;
  std::vector<double> lat = ops.read_latencies;
  lat.insert(lat.end(), ops.write_latencies.begin(), ops.write_latencies.end());
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    sm.latency_p50 = percentile(lat, 0.50);
    sm.latency_p99 = percentile(lat, 0.99);
  }
  return sm;
}

/// Shard-level tail/skew summary over shards that completed anything, plus
/// aggregate throughput.
void summarize_shards(const ExperimentConfig& cfg, MetricsReport& report) {
  double hot = 0.0;
  double cold = 0.0;
  bool any = false;
  std::uint64_t total_ops = 0;
  std::uint64_t max_ops = 0;
  for (const ShardMetrics& sm : report.shards) {
    total_ops += sm.ops_completed;
    max_ops = std::max(max_ops, sm.ops_completed);
    if (sm.ops_completed == 0) continue;
    if (!any) {
      hot = cold = sm.latency_p99;
      any = true;
    } else {
      hot = std::max(hot, sm.latency_p99);
      cold = std::min(cold, sm.latency_p99);
    }
  }
  report.shard_hot_p99 = hot;
  report.shard_cold_p99 = cold;
  const double mean_ops =
      static_cast<double>(total_ops) / static_cast<double>(report.shards.size());
  report.shard_skew = mean_ops == 0.0 ? 0.0 : static_cast<double>(max_ops) / mean_ops;
  report.ops_per_tick = cfg.duration == 0 ? 0.0
                                          : static_cast<double>(total_ops) /
                                                static_cast<double>(cfg.duration);
}

/// Folds every world's counters, latencies, join/chronicle accounting,
/// traffic and consistency checks into one report, in world order. The
/// per-shard slices are filled only for sharded runs; the fault counters
/// only when the run armed an injector (one-world runs only).
MetricsReport harvest(const ExperimentConfig& cfg, std::vector<World>& worlds,
                      const fault::Injector* injector) {
  MetricsReport report;
  std::vector<double> reads;
  std::vector<double> writes;
  std::uint64_t join_latency_total = 0;
  report.min_active_3delta = std::numeric_limits<double>::infinity();

  for (World& w : worlds) {
    client::OpStats& ops = w.client->stats();
    report.reads_issued += ops.reads_issued;
    report.reads_completed += ops.reads_completed;
    report.reads_of_bottom += ops.reads_of_bottom;
    report.writes_issued += ops.writes_issued;
    report.writes_completed += ops.writes_completed;
    report.reads_dropped += ops.reads_dropped;
    report.writes_dropped += ops.writes_dropped;
    report.reads_timed_out += ops.reads_timed_out;
    report.writes_timed_out += ops.writes_timed_out;
    report.op_retries += ops.retries;

    report.joins_started += w.system->joins_started();
    report.joins_completed += w.system->joins_completed();
    report.joins_abandoned += w.system->joins_abandoned();
    join_latency_total += w.system->join_latency_total();

    if (cfg.shard_count > 0) report.shards.push_back(shard_slice(ops));
    // Global latencies merge the per-world samples in world order (sorted
    // below), so percentile identity is independent of scheduling.
    append(reads, std::move(ops.read_latencies));
    append(writes, std::move(ops.write_latencies));

    // Ground truth per world: the majority/Lemma-2 properties must hold in
    // every membership group, so the report ANDs / mins across worlds.
    const churn::Chronicle& chron = w.system->chronicle();
    report.majority_active_always =
        report.majority_active_always && chron.min_active_at(cfg.duration) * 2 > w.n;
    report.min_active_3delta = std::min(
        report.min_active_3delta,
        static_cast<double>(chron.min_active_through_window(3 * cfg.delta, cfg.duration)));

    // Consistency is per world history (registers are independent); the
    // report sums the checked populations and appends violations.
    const consistency::RegularityReport reg =
        consistency::RegularityChecker{}.check(*w.history);
    report.regularity.reads_checked += reg.reads_checked;
    report.regularity.concurrent_write_pairs += reg.concurrent_write_pairs;
    report.regularity.violations.insert(report.regularity.violations.end(),
                                        reg.violations.begin(), reg.violations.end());
    const consistency::InversionReport inv =
        consistency::AtomicityChecker{}.check(*w.history);
    report.atomicity.reads_checked += inv.reads_checked;
    report.atomicity.inversion_count += inv.inversion_count;

    for (const auto& [type, count] : w.net->delivered_by_type()) {
      report.msgs_by_type[type] += count;
    }
  }

  report.join_latency_mean = report.joins_completed == 0
                                 ? 0.0
                                 : static_cast<double>(join_latency_total) /
                                       static_cast<double>(report.joins_completed);
  summarize(reads, static_cast<double>(reads.size()), report.read_latency_mean,
            report.read_latency_p50, report.read_latency_p99);
  // The write mean divides by writes_completed (== sample count): the
  // formula the pre-client driver used, kept bit-for-bit.
  summarize(writes, static_cast<double>(report.writes_completed),
            report.write_latency_mean, report.write_latency_p50,
            report.write_latency_p99);

  if (injector != nullptr) {
    const fault::Injector::Stats& fs = injector->stats();
    report.faults_crashes = fs.crashes;
    report.faults_recoveries = fs.recoveries;
    report.faults_partitions = fs.partitions;
    report.faults_heals = fs.heals;
    report.msgs_dropped_partition = worlds[0].net->stats().dropped_partition;
    report.msgs_transformed = worlds[0].net->stats().transformed;
  }
  if (cfg.shard_count > 0) summarize_shards(cfg, report);
  return report;
}

}  // namespace

MetricsReport run_experiment(const ExperimentConfig& cfg, const replay::RunHooks& hooks) {
  if (cfg.shard_count > cfg.n) {
    throw std::invalid_argument("shard_count " + std::to_string(cfg.shard_count) +
                                " exceeds n " + std::to_string(cfg.n) +
                                ": some shards would have no members");
  }
  const bool sharded = cfg.shard_count > 0;
  if (sharded && cfg.fault.enabled()) {
    throw std::invalid_argument(
        "fault plans need a single-register run: the fault injector targets one "
        "membership group, so shard_count must be 0");
  }

  sim::Simulation sim(cfg.seed);

  // Replay components must outlive the run; the chooser in particular is
  // only referenced (non-owning) by the Clients.
  std::unique_ptr<replay::TraceReplayer> replayer;
  if (hooks.replay != nullptr) {
    // Aliasing ctor: the caller guarantees *hooks.replay outlives
    // this call, so the shared_ptr carries no ownership.
    replayer = std::make_unique<replay::TraceReplayer>(
        std::shared_ptr<const replay::Trace>(std::shared_ptr<const replay::Trace>(),
                                             hooks.replay));
  }
  if (hooks.record != nullptr) {
    hooks.record->churn_loop =
        cfg.churn_kind == ChurnKind::kConstant && cfg.churn_rate > 0.0;
  }

  // Designated writers (pinned: exempt from churn). The keyed engine writes
  // through each shard's process 0 whenever its mix coin allows writes;
  // reads-only configs pin nobody, mirroring writes_enabled unsharded.
  std::vector<sim::ProcessId> writers;
  if (!sharded) {
    writers = designated_writers(cfg);
  } else if (cfg.workload.read_frac < 1.0) {
    writers = {shard::kShardWriter};
  }

  const std::size_t count = sharded ? cfg.shard_count : 1;
  std::vector<World> worlds;
  worlds.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    worlds.push_back(build_world(sim, cfg, hooks, replayer.get(),
                                 static_cast<std::uint32_t>(s), count, writers));
  }

  // The workload engine the config names: the keyed engine routes over
  // every world; the single-register engine drives the one world.
  std::optional<shard::ShardedClient> router;
  std::optional<shard::KeyedGenerator> keyed;
  std::unique_ptr<workload::Generator> generator;
  if (sharded) {
    std::vector<client::Client*> clients;
    for (World& w : worlds) clients.push_back(w.client.get());
    router.emplace(std::move(clients));
    keyed.emplace(shard::KeyedGenerator::Env{sim, *router, cfg.workload, cfg.duration});
  } else {
    generator = workload::make_generator(workload::Env{
        sim, *worlds[0].system, *worlds[0].client, cfg.workload, cfg.duration, writers});
  }

  // The fault engine, when the config arms one. Decisions flow through the
  // source that matches the run mode: live draws from the run's Rng, a
  // recording wrapper that captures each word into the trace's fault stream
  // (format v3), or positional replay of a recorded stream — during replay
  // nothing here touches the Rng, like every other replayed component.
  std::unique_ptr<fault::DecisionSource> fault_decisions;
  std::unique_ptr<fault::Injector> injector;
  if (cfg.fault.enabled()) {
    if (hooks.replay != nullptr) {
      fault_decisions = std::make_unique<fault::ReplayDecisionSource>(
          std::shared_ptr<const replay::Trace>(std::shared_ptr<const replay::Trace>(),
                                               hooks.replay));
    } else {
      fault_decisions = std::make_unique<fault::LiveDecisionSource>(sim.rng());
      if (hooks.record != nullptr) {
        fault_decisions = std::make_unique<fault::RecordingDecisionSource>(
            std::move(fault_decisions), *hooks.record);
      }
    }
    injector = std::make_unique<fault::Injector>(sim, *worlds[0].system, *worlds[0].net,
                                                 cfg.fault, *fault_decisions, writers);
  }

  // Members first (in world order), then faults, then traffic.
  for (World& w : worlds) w.system->bootstrap();
  if (injector) injector->start();
  if (keyed) {
    keyed->start();
  } else {
    generator->start();
  }
  sim.run_until(cfg.duration);

  MetricsReport report = harvest(cfg, worlds, injector.get());
  report.trace_hash = sim.trace_hash();
  return report;
}

}  // namespace dynreg::harness

#include "assembly.h"

#include <memory>
#include <optional>
#include <utility>

#include "churn/churn_model.h"
#include "churn/system.h"
#include "client/client.h"
#include "consistency/history.h"
#include "consistency/regularity_checker.h"
#include "fault/decision.h"
#include "fault/injector.h"
#include "harness/builders.h"
#include "harness/workload.h"
#include "net/network.h"
#include "replay/replayer.h"
#include "sim/simulation.h"

namespace perfbench {

namespace dh = dynreg::harness;

std::size_t SpanLog::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
                   .count();
  s.parent = current_;
  s.replica = replica_;
  spans_.push_back(std::move(s));
  current_ = static_cast<std::int64_t>(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  Span& s = spans_[index];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - epoch_)
                 .count();
  current_ = s.parent;
}

TracedResult run_traced(const dh::ExperimentConfig& cfg,
                        const dynreg::replay::Trace* replay, SpanLog& log) {
  // Declared in run_experiment's order so they are destroyed in its order.
  std::optional<dynreg::sim::Simulation> sim;
  std::unique_ptr<dynreg::replay::TraceReplayer> replayer;
  std::optional<dynreg::net::Network> net;
  std::optional<dynreg::consistency::History> history;
  std::optional<dynreg::churn::System> system;
  std::optional<dynreg::client::Client> client;
  std::unique_ptr<dynreg::workload::Generator> generator;
  std::unique_ptr<dynreg::fault::DecisionSource> fault_decisions;
  std::unique_ptr<dynreg::fault::Injector> injector;

  {
    Scoped span(log, "harness.build");
    sim.emplace(cfg.seed);
    if (replay != nullptr) {
      // Non-owning aliasing pointer: the caller keeps *replay alive.
      replayer = std::make_unique<dynreg::replay::TraceReplayer>(
          std::shared_ptr<const dynreg::replay::Trace>(
              std::shared_ptr<const dynreg::replay::Trace>(), replay));
    }
    net.emplace(*sim, replayer ? replayer->make_delay_model() : dh::build_delays(cfg));
    net->set_loss_rate(cfg.loss_rate);
    if (cfg.dissemination == dh::Dissemination::kTree) {
      net->set_disseminator(
          std::make_unique<dynreg::net::TreeDisseminator>(cfg.tree_fanout));
    }
    history.emplace(dh::kInitialValue);

    dynreg::churn::SystemConfig sys_cfg;
    sys_cfg.initial_size = cfg.n;
    sys_cfg.leave_policy = cfg.leave_policy;
    sys_cfg.exempt = dh::designated_writers(cfg);
    sys_cfg.chronicle = {cfg.chronicle_aggregate, 3 * cfg.delta, cfg.duration};

    std::unique_ptr<dynreg::churn::ChurnModel> churn_model;
    if (replayer) {
      churn_model = replayer->make_churn_model();
    } else if (cfg.churn_kind == dh::ChurnKind::kNone || cfg.churn_rate <= 0.0) {
      churn_model = std::make_unique<dynreg::churn::NoChurn>();
    } else {
      churn_model = std::make_unique<dynreg::churn::ConstantChurn>(cfg.churn_rate);
    }
    system.emplace(*sim, *net, sys_cfg, std::move(churn_model),
                   dh::build_node_factory(cfg, cfg.n));
    client.emplace(*sim, *system, *history, cfg.duration);
    if (replayer) client->set_target_chooser(replayer->target_chooser());

    generator = dynreg::workload::make_generator(dynreg::workload::Env{
        *sim, *system, *client, cfg.workload, cfg.duration, dh::designated_writers(cfg)});

    if (cfg.fault.enabled()) {
      if (replay != nullptr) {
        fault_decisions = std::make_unique<dynreg::fault::ReplayDecisionSource>(
            std::shared_ptr<const dynreg::replay::Trace>(
                std::shared_ptr<const dynreg::replay::Trace>(), replay));
      } else {
        fault_decisions = std::make_unique<dynreg::fault::LiveDecisionSource>(sim->rng());
      }
      injector = std::make_unique<dynreg::fault::Injector>(
          *sim, *system, *net, cfg.fault, *fault_decisions, dh::designated_writers(cfg));
    }
  }

  {
    Scoped span(log, "churn.bootstrap");
    system->bootstrap();
  }

  TracedResult out;
  {
    Scoped span(log, "sim.run");
    if (injector) injector->start();
    generator->start();
    // Simulation::run_until, one step at a time so events can be counted.
    for (auto t = sim->next_event_time(); t && *t <= cfg.duration;
         t = sim->next_event_time()) {
      sim->step();
      ++out.layers.events;
    }
    sim->run_until(cfg.duration);  // no events left; advances the clock
  }

  dh::MetricsReport report;
  const dynreg::client::OpStats& ops = client->stats();
  report.reads_issued = ops.reads_issued;
  report.reads_completed = ops.reads_completed;
  report.writes_issued = ops.writes_issued;
  report.writes_completed = ops.writes_completed;
  report.reads_dropped = ops.reads_dropped;
  report.writes_dropped = ops.writes_dropped;
  report.reads_timed_out = ops.reads_timed_out;
  report.writes_timed_out = ops.writes_timed_out;
  report.op_retries = ops.retries;
  report.joins_started = system->joins_started();
  report.joins_completed = system->joins_completed();
  report.joins_abandoned = system->joins_abandoned();
  if (injector) {
    const dynreg::fault::Injector::Stats& fs = injector->stats();
    report.faults_crashes = fs.crashes;
    report.faults_recoveries = fs.recoveries;
    report.faults_partitions = fs.partitions;
    report.faults_heals = fs.heals;
    report.msgs_dropped_partition = net->stats().dropped_partition;
    report.msgs_transformed = net->stats().transformed;
  }
  report.msgs_by_type = net->delivered_by_type();
  {
    Scoped span(log, "consistency.regularity");
    report.regularity = dynreg::consistency::RegularityChecker{}.check(*history);
  }
  {
    Scoped span(log, "consistency.atomicity");
    report.atomicity = dynreg::consistency::AtomicityChecker{}.check(*history);
  }
  out.counts = counts_of(report);

  const dynreg::net::Network::Stats& ns = net->stats();
  out.layers.net_sent = ns.sent;
  out.layers.net_delivered = ns.delivered;
  out.layers.net_dropped_departed = ns.dropped_departed;
  out.layers.net_dropped_loss = ns.dropped_loss;
  out.layers.net_dropped_partition = ns.dropped_partition;
  out.layers.net_transformed = ns.transformed;
  const dynreg::sim::Arena& arena = sim->arena();
  out.layers.arena_chunks_created = arena.chunks_created();
  out.layers.arena_chunks_recycled = arena.chunks_recycled();
  out.layers.arena_bytes_reserved = arena.bytes_reserved();
  return out;
}

}  // namespace perfbench

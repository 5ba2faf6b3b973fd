// Shared helpers for the scripted experiments: a minimal cluster deployment
// (mirroring the protocol wiring of the experiment harness) that the bench
// drives step by step, plus a predicate-pump.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "churn/system.h"
#include "dynreg/es_register.h"
#include "dynreg/sync_register.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "replay/session.h"
#include "sim/simulation.h"
#include "stats/table.h"

namespace dynreg::bench {

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

/// A scripted protocol deployment (no workload driver; the bench drives).
///
/// Record/replay: pass a `session` and the cluster enrolls in it under
/// (replay_key, seed) — replay_key being replay::scenario_key of the
/// scenario's name and distinguishing parameters — exactly like a
/// run_grid replica: its net/churn decisions are captured when recording
/// and re-fed when replaying, and the destructor finishes the run with its
/// audit hash. Bench-driven spawn()/leave() calls and operations re-occur
/// naturally when the bench code runs again, so only the substrate's
/// decisions are in the trace. Without a session (the default) the cluster
/// is a plain run.
class ScriptedCluster {
 public:
  ScriptedCluster(std::uint64_t seed, std::size_t n, double churn_rate,
                  churn::LeavePolicy policy, std::unique_ptr<net::DelayModel> delays,
                  churn::System::NodeFactory factory, replay::Session* session = nullptr,
                  std::uint64_t replay_key = 0)
      : session_(session),
        sim(seed),
        net(sim, prepare_delays(std::move(delays), replay_key, seed, churn_rate)) {
    churn::SystemConfig cfg;
    cfg.initial_size = n;
    cfg.leave_policy = policy;
    std::unique_ptr<churn::ChurnModel> model;
    if (replayer_) {
      model = replayer_->make_churn_model();
    } else if (churn_rate > 0.0) {
      model = std::make_unique<churn::ConstantChurn>(churn_rate);
    } else {
      model = std::make_unique<churn::NoChurn>();
    }
    system = std::make_unique<churn::System>(sim, net, cfg, std::move(model),
                                             std::move(factory));
    if (recorder_) system->set_churn_observer(recorder_.get());
    system->bootstrap();
  }

  ~ScriptedCluster() {
    if (session_ != nullptr) session_->finish(hooks_, sim.trace_hash());
  }

  ScriptedCluster(const ScriptedCluster&) = delete;
  ScriptedCluster& operator=(const ScriptedCluster&) = delete;

  static std::unique_ptr<ScriptedCluster> sync(std::uint64_t seed, std::size_t n,
                                               double churn_rate, const SyncConfig& cfg,
                                               std::unique_ptr<net::DelayModel> delays,
                                               churn::LeavePolicy policy,
                                               replay::Session* session,
                                               std::uint64_t replay_key) {
    return std::make_unique<ScriptedCluster>(
        seed, n, churn_rate, policy, std::move(delays),
        [cfg](sim::ProcessId id, node::Context& ctx, bool initial) {
          return std::make_unique<SyncRegisterNode>(id, ctx, cfg, initial);
        },
        session, replay_key);
  }

  static std::unique_ptr<ScriptedCluster> es(std::uint64_t seed, std::size_t n,
                                             double churn_rate,
                                             std::unique_ptr<net::DelayModel> delays,
                                             churn::LeavePolicy policy,
                                             replay::Session* session,
                                             std::uint64_t replay_key) {
    EsConfig cfg;
    cfg.n = n;
    return std::make_unique<ScriptedCluster>(
        seed, n, churn_rate, policy, std::move(delays),
        [cfg](sim::ProcessId id, node::Context& ctx, bool initial) {
          return std::make_unique<EsRegisterNode>(id, ctx, cfg, initial);
        },
        session, replay_key);
  }

  RegisterNode* node(sim::ProcessId id) {
    return dynamic_cast<RegisterNode*>(system->find(id));
  }

 private:
  // Replay plumbing. Declared before `sim`/`net` so prepare_delays (called
  // in net's initializer) can populate it; the replayer must also outlive
  // the Network that owns the delay model it built.
  replay::Session* session_ = nullptr;
  replay::Trace scratch_;
  replay::RunHooks hooks_;
  std::unique_ptr<replay::TraceRecorder> recorder_;
  std::unique_ptr<replay::TraceReplayer> replayer_;

  std::unique_ptr<net::DelayModel> prepare_delays(std::unique_ptr<net::DelayModel> delays,
                                                  std::uint64_t replay_key,
                                                  std::uint64_t seed, double churn_rate) {
    if (session_ == nullptr) return delays;
    hooks_ = session_->open(replay_key, seed, scratch_);
    if (hooks_.record != nullptr) {
      hooks_.record->churn_loop = churn_rate > 0.0;
      recorder_ = std::make_unique<replay::TraceRecorder>(*hooks_.record);
      return std::make_unique<replay::RecordingDelayModel>(std::move(delays),
                                                           *hooks_.record);
    }
    // Aliasing ctor: the session owns the trace and outlives the cluster.
    replayer_ = std::make_unique<replay::TraceReplayer>(
        std::shared_ptr<const replay::Trace>(std::shared_ptr<const replay::Trace>(),
                                             hooks_.replay));
    return replayer_->make_delay_model();
  }

 public:

  std::optional<Value> read_blocking(sim::ProcessId id, sim::Duration max_wait = 10000) {
    std::optional<Value> result;
    RegisterNode* reg = node(id);
    if (reg == nullptr) return std::nullopt;
    reg->read(OpContext{0, sim.now()}, [&result](OpOutcome o, Value v) {
      if (o == OpOutcome::kOk) result = v;
    });
    pump_until(sim, [&result] { return result.has_value(); }, sim.now() + max_wait);
    return result;
  }

  sim::Simulation sim;
  net::Network net;
  std::unique_ptr<churn::System> system;
};

}  // namespace dynreg::bench

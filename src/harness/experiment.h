// One-shot experiment runner: deploys a protocol over the churn/network
// substrate, applies the workload, and returns a MetricsReport. A
// (config, seed) pair fully determines the result.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "churn/system.h"
#include "fault/plan.h"
#include "harness/metrics.h"
#include "harness/workload_config.h"
#include "replay/hooks.h"
#include "sim/simulation.h"

namespace dynreg {
class RegisterNode;
}  // namespace dynreg
namespace dynreg::fault {
class Injector;
}  // namespace dynreg::fault
namespace dynreg::net {
class DelayModel;
}  // namespace dynreg::net
namespace dynreg::replay {
class Session;
class TraceReplayer;
}  // namespace dynreg::replay

namespace dynreg::harness {

/// Which register protocol a run deploys.
enum class Protocol {
  kSync,            ///< Section 3 (synchronous, fast local reads).
  kSyncNoWait,      ///< Figure 3a ablation: join inquires without the delta wait.
  kEventuallySync,  ///< Section 5 (quorum-based).
  kAbd,             ///< Static-membership baseline (Attiya, Bar-Noy, Dolev).
};

/// The timing model the network's delay model implements.
enum class Timing {
  kSynchronous,            ///< All delays in [1, delta].
  kEventuallySynchronous,  ///< Arbitrary (bounded by pre_gst_max) before gst,
                           ///< delta-bounded after.
};

/// Membership dynamics: a static member set or the paper's constant churn.
enum class ChurnKind { kNone, kConstant };

/// How broadcasts fan out. kFlat is the paper's model (sender transmits to
/// every recipient directly); kTree delegates over a deterministic BFS tree
/// (net/disseminator.h) so a write costs the sender O(fanout) sends instead
/// of O(n).
enum class Dissemination { kFlat, kTree };

/// Everything that determines a run. A (config, seed) pair fully determines
/// the resulting MetricsReport, bit for bit (see docs/ARCHITECTURE.md,
/// "Determinism contract").
struct ExperimentConfig {
  Protocol protocol = Protocol::kSync;
  Timing timing = Timing::kSynchronous;

  std::size_t n = 10;          ///< Constant system size (paper: joins == leaves).
  sim::Duration delta = 5;     ///< Network delay bound (post-GST, for ES).
  sim::Time duration = 1000;   ///< Run horizon, in ticks.
  std::uint64_t seed = 1;      ///< The run's only randomness source.

  ChurnKind churn_kind = ChurnKind::kConstant;
  /// Fraction of n joining (and leaving) per tick — the paper's c.
  double churn_rate = 0.0;
  churn::LeavePolicy leave_policy = churn::LeavePolicy::kUniform;

  Dissemination dissemination = Dissemination::kFlat;
  std::size_t tree_fanout = 4;  ///< Branching factor when dissemination == kTree.

  sim::Time gst = 0;                ///< Stabilization time (ES timing only).
  sim::Duration pre_gst_max = 100;  ///< Max pre-GST delay (finiteness bound).
  double loss_rate = 0.0;           ///< Omission-fault rate per message copy.

  /// ES reads write back the returned value (regular -> atomic upgrade).
  bool es_atomic_reads = false;
  /// ES hardening: bounded exponential retransmit backoff (EsConfig).
  bool es_retransmit_backoff = false;
  /// ES hardening: reply-validation guard against forged timestamps.
  bool es_validate_replies = false;
  /// Footnote 4: known one-way reply bound delta', shrinking the join's
  /// collection window from 2*delta to delta + delta'.
  std::optional<sim::Duration> sync_delta_pp;
  /// Anti-entropy extension: active processes rebroadcast their copy every
  /// interval (heals replicas behind lossy channels; not in the paper).
  std::optional<sim::Duration> sync_refresh_interval;

  workload::Config workload;  ///< Traffic description + engine (open/closed/bursty).

  /// Sharded keyspace (src/shard/): number of independent register groups
  /// the total population n is partitioned into, each with its own network,
  /// membership, designated writer, and history, driven by the keyed
  /// workload engine. 0 = one register group driven by `workload`. Must not
  /// exceed n, and a sharded run must not arm a fault plan (the injector
  /// targets one group): run_experiment rejects either.
  std::size_t shard_count = 0;

  /// churn::ChronicleOptions::aggregate_only for every System this run
  /// builds: keep the A(t) counters, drop per-member records, so 1e5-scale
  /// runs don't pay O(joins) memory per shard. Results are unchanged
  /// (regression-tested), so this flag is excluded from the canonical
  /// encoding and never splits a trace fingerprint.
  bool chronicle_aggregate = false;

  /// Deterministic fault campaign (crash/recovery, partitions, Byzantine
  /// transforms; see docs/FAULTS.md). Default = no faults, and the fault
  /// machinery is not even constructed — the fault-free path is untouched.
  fault::Plan fault;

  /// Theorem 1's sufficient churn bound for the synchronous protocol.
  [[nodiscard]] double sync_churn_threshold() const { return 1.0 / (3.0 * static_cast<double>(delta)); }
  /// Section 5's churn constraint for the eventually synchronous protocol.
  double es_churn_threshold() const {
    return 1.0 / (3.0 * static_cast<double>(delta) * static_cast<double>(n));
  }
};

/// One replica: the Simulation, the record/replay plumbing and
/// max(1, shard_count) worlds (network, history, membership, client) built
/// from a config. run_experiment is Replica(config, hooks).run(); the
/// scripted constructions build one and drive sim(), system() and node() by
/// hand. A (config, seed) pair fully determines everything it does.
class Replica {
 public:
  /// Builds every world and bootstraps its members. `delays`, when set,
  /// replaces the delay model config.timing names (an adversary); replay
  /// still feeds the recorded verdicts. Throws std::invalid_argument for a
  /// config the pipeline cannot honour (shard_count > n, a fault plan or
  /// `delays` on a sharded run) rather than returning vacuous results.
  explicit Replica(const ExperimentConfig& config, const replay::RunHooks& hooks = {},
                   std::unique_ptr<net::DelayModel> delays = nullptr);
  /// The same, enrolled in `session` (nullptr: a plain run) under
  /// (key, config.seed): the session hands out the hooks, and the
  /// destructor finishes the run with its audit hash.
  Replica(const ExperimentConfig& config, replay::Session* session, std::uint64_t key,
          std::unique_ptr<net::DelayModel> delays = nullptr);
  ~Replica();
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Arms the fault plan and the workload engine, runs to config.duration
  /// and harvests the report. Call at most once; the replica is spent after.
  MetricsReport run();

  sim::Simulation& sim() { return sim_; }
  /// World 0's membership (the only world of an unsharded run).
  churn::System& system();
  /// World 0's register node `id`; nullptr once it left.
  RegisterNode* node(sim::ProcessId id);

 private:
  struct World;
  void build(std::unique_ptr<net::DelayModel> delays);
  MetricsReport harvest(const fault::Injector* injector);

  const ExperimentConfig cfg_;
  replay::Session* const session_ = nullptr;
  replay::Trace scratch_;  // the recording, when session_ records
  const replay::RunHooks hooks_;
  sim::Simulation sim_;
  std::unique_ptr<replay::TraceReplayer> replayer_;
  std::vector<sim::ProcessId> writers_;
  std::vector<World> worlds_;
};

/// Runs one replica to completion: Replica(config, hooks).run(). Concurrent
/// calls share no state, which is what the replica grid (harness/sweep.h)
/// exploits. A default-constructed RunHooks is a plain run; otherwise the
/// run records or replays its schedule through `hooks` (replay/hooks.h).
MetricsReport run_experiment(const ExperimentConfig& config,
                             const replay::RunHooks& hooks = {});

}  // namespace dynreg::harness

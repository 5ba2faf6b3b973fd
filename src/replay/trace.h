// The schedule trace: every nondeterminism-relevant decision one simulated
// run makes, in the order it makes them.
//
// A run's behaviour is a pure function of (config, seed) — the PR-6 audit
// hash enforces that end to end. A Trace captures the *decisions* that the
// seed feeds into the run, at the four points where the shared sim::Rng is
// consulted:
//
//   net     per message copy: the loss decision and the delivery delay
//           (net::DelayModel::verdict), tagged with send time, endpoints,
//           and the interned payload type id;
//   churn   every churn-driven join and leave, in execution order (the
//           victim pick is the rng draw being captured);
//   picks   every client target selection (open-loop reads, sessions,
//           retry re-targeting all flow through Client::random_active);
//   faults  every fault-engine decision (fault::DecisionSource raw draws:
//           crash victims, partition salts, Byzantine transform choices),
//           in draw order — format v3.
//
// Re-feeding a trace through the replay models (replay/replayer.h) consumes
// these streams *positionally* — the k-th transmit gets the k-th net
// record — and never touches the run's Rng, so an unperturbed replay is
// byte-identical to the original (same trace_hash, same emitter output).
// A perturbed trace (replay/search.h) deliberately diverges: once the
// replayed run stops lining up with the recording, later records land on
// different messages and exhausted streams fall back to a seeded
// fallback Rng — still fully deterministic, just a different schedule.
//
// Serialization lives in replay/trace_io.h (versioned binary format).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "net/payload_type.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace dynreg::replay {

/// One network transmit decision (loss + delay), as seen by the delay model.
struct NetRecord {
  sim::Time time = 0;  ///< send time (the transmit's `now`)
  sim::ProcessId from = 0;
  sim::ProcessId to = 0;
  net::PayloadTypeId type = 0;
  bool lost = false;          ///< omission fault: the copy never arrives
  sim::Duration delay = 1;    ///< delivery delay (unused when lost)
};

/// One churn-driven membership action. Joins carry no id (process ids are
/// assigned deterministically by the system); leaves name their victim.
/// Sharded runs (src/shard/) tag each record with the shard whose System
/// executed it: the shard's replay churn model consumes only its own
/// records, because ids and churn ticks repeat across shards and a shared
/// positional cursor would misroute them. Unsharded runs leave shard == 0.
struct ChurnRecord {
  sim::Time time = 0;
  bool join = false;
  sim::ProcessId victim = 0;  ///< leaves only
  std::uint32_t shard = 0;    ///< owning shard (format v4; 0 when unsharded)
};

/// One client target selection (Client::random_active draw).
struct PickRecord {
  sim::Time time = 0;
  sim::ProcessId chosen = 0;
};

/// One fault-engine decision: the raw 64-bit word a fault::DecisionSource
/// draw produced. Recording the word (rather than the derived crash victim /
/// transform choice) keeps the stream independent of how the injector
/// interprets it, so the schedule search can scramble the word and get a
/// different-but-legal fault at the same decision point.
struct FaultRecord {
  sim::Time time = 0;
  std::uint64_t value = 0;
};

/// The recorded schedule of one run.
struct Trace {
  std::uint64_t fingerprint = 0;    ///< config/scenario key (see trace_io.h)
  std::uint64_t seed = 0;           ///< the recorded run's seed
  /// sim::Simulation::trace_hash() of the recorded run; 0 when the build
  /// carries no auditor (release preset). Replay compares when nonzero.
  std::uint64_t recorded_hash = 0;
  /// Whether the recorded run drove a churn tick loop (ConstantChurn with
  /// rate > 0). Replay must reproduce the loop's event cadence exactly, so
  /// this is recorded rather than inferred from the (possibly empty) churn
  /// stream.
  bool churn_loop = false;

  std::vector<NetRecord> net;
  std::vector<ChurnRecord> churn;
  std::vector<PickRecord> picks;
  std::vector<FaultRecord> faults;

  /// Largest recorded delivery delay (>= 1). Doubles as the legal-schedule
  /// envelope: perturbations that stay under it keep the schedule within
  /// whatever timing assumption the recorded model obeyed, and exhausted
  /// replay streams draw fallback delays from [1, max_delay()].
  [[nodiscard]] sim::Duration max_delay() const {
    sim::Duration m = 1;
    for (const NetRecord& r : net) {
      if (!r.lost && r.delay > m) m = r.delay;
    }
    return m;
  }

  /// Total recorded decisions (all streams).
  [[nodiscard]] std::size_t size() const {
    return net.size() + churn.size() + picks.size() + faults.size();
  }
};

/// Folds `v` into the running hash `h` through sim::splitmix64. Used for
/// fingerprints and scenario keys; never on an event path.
inline std::uint64_t fold64(std::uint64_t h, std::uint64_t v) {
  return sim::splitmix64(h ^ (v + sim::kGolden64));
}

/// Key for a scripted scenario (benches that build their world by hand and
/// have no ExperimentConfig): a salted fold of the scenario name and its
/// distinguishing parameters. Shares the fingerprint keyspace of
/// replay::fingerprint (collisions are astronomically unlikely and would
/// only conflate two identical-keyed scenarios).
inline std::uint64_t scenario_key(const char* name,
                                  std::initializer_list<std::uint64_t> parts) {
  std::uint64_t h = 0x5343454e4152494fULL;  // "SCENARIO"
  for (const char* p = name; *p != '\0'; ++p) {
    h = fold64(h, static_cast<unsigned char>(*p));
  }
  for (const std::uint64_t v : parts) h = fold64(h, v);
  return h == 0 ? 1 : h;  // 0 is "no scenario key"
}

}  // namespace dynreg::replay

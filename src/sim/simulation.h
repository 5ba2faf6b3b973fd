// Deterministic discrete-event simulation: a virtual clock, a stable event
// queue, and a seeded RNG. Every source of randomness in a run draws from the
// one Rng owned here, so a (seed, config) pair fully determines the run.
//
// Builds with DYNREG_AUDIT defined additionally accumulate an event-stream
// hash: every dispatched event folds its (time, dispatch sequence number)
// into a running splitmix64-style digest, and instrumented layers fold in
// payload type ids via audit_note(). Two runs with the same (config, seed)
// must produce the same trace_hash() — any divergence (a stray wall-clock
// read, an address-dependent container order, a jobs-dependent code path)
// shows up as a hash mismatch at the first diverging event rather than as a
// subtly wrong result. See docs/ANALYSIS.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "sim/arena.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace dynreg::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed) : rng_(seed), seed_(seed) {}

  [[nodiscard]] Time now() const { return now_; }
  Rng& rng() { return rng_; }

  /// The seed the run was constructed with. For *pure-hash* derivations
  /// (e.g. the client's deterministic retry jitter), which must vary per
  /// seed without consuming an Rng draw — never for seeding new streams on
  /// an event path.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Epoch-reclaimed arena for payloads and pending-op records. step()
  /// advances its epoch whenever the simulated clock advances, so storage
  /// freed at tick T is never recycled before the clock moves past T.
  Arena& arena() { return arena_; }

  /// Whether this build carries the event-stream determinism auditor.
  static constexpr bool audit_enabled() {
#ifdef DYNREG_AUDIT
    return true;
#else
    return false;
#endif
  }

  /// Folds `v` into the event-stream hash (no-op without DYNREG_AUDIT).
  /// Instrumented layers call this with values that characterize the event
  /// stream — the network folds in each delivered payload's type id.
  void audit_note(std::uint64_t v) {
#ifdef DYNREG_AUDIT
    // splitmix64 finalizer over (previous digest ^ value): cheap, and every
    // input bit diffuses into the whole digest, so the first diverging event
    // changes the final hash with overwhelming probability.
    trace_hash_ = splitmix64(trace_hash_ ^ v);
#else
    (void)v;
#endif
  }

  /// The event-stream digest so far: a function of every dispatched event's
  /// (time, sequence number) plus everything audit_note()d. Equal across
  /// same-(config, seed) runs by the determinism contract; 0 when the build
  /// has no auditor.
  std::uint64_t trace_hash() const {
#ifdef DYNREG_AUDIT
    return trace_hash_;
#else
    return 0;
#endif
  }

  /// Schedules fn at absolute time t (clamped to now if in the past).
  /// Accepts any `void()` callable; small captures are stored without
  /// allocating (see InlineTask).
  template <typename F>
  void schedule_at(Time t, F&& fn) {
    queue_.push(std::max(t, now_), std::forward<F>(fn));
  }

  template <typename F>
  void schedule_after(Duration d, F&& fn) {
    queue_.push(now_ + d, std::forward<F>(fn));
  }

  /// Time of the next pending event, if any.
  std::optional<Time> next_event_time() const;

  /// Executes the earliest event, advancing the clock to its time.
  /// Returns false if the queue was empty.
  bool step();

  /// Runs until the event queue drains.
  void run();

  /// Runs every event scheduled at or before `t`, then advances the clock
  /// to exactly `t` (events an executed event schedules within the horizon
  /// are executed too).
  void run_until(Time t);

 private:
  Time now_ = 0;
  // The arena outlives the queue: queued tasks may own arena-backed payloads
  // whose destruction (at queue teardown) deallocates into the arena.
  Arena arena_;
  EventQueue queue_;
  Rng rng_;
  std::uint64_t seed_ = 0;
#ifdef DYNREG_AUDIT
  std::uint64_t trace_hash_ = kGolden64;  // non-zero: "audited, empty"
  std::uint64_t audit_seq_ = 0;
#endif
};

}  // namespace dynreg::sim

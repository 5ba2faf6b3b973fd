// A record/replay session: the set of runs one `dynreg_exp record|replay`
// invocation captures, respectively re-feeds. The CLI (or a test) constructs
// one and hands it down as RunOptions::session; a harness::Replica built
// with a session (every run_grid replica, and each scripted construction)
// enrolls through the open/finish pair below. A run made without a session
// pointer is a plain run — there is no process-wide session.
//
// Runs are keyed by (key, seed): the config fingerprint for run_grid runs,
// replay::scenario_key for the scripted constructions. open() and finish()
// are thread-safe, so a grid may enroll its replicas concurrently.
// Determinism across --jobs holds because a run's trace is a pure function
// of its (config, seed): when a grid runs identical replicas, whichever
// commits first wins and the rest are byte-identical duplicates, so the
// collected trace set is independent of scheduling.
//
// Nested replay machinery (schedule search, the minimizer) calls
// run_experiment(cfg, RunHooks) directly and never sees a session.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "replay/hooks.h"
#include "replay/trace.h"

namespace dynreg::replay {

class Session {
 public:
  /// A recording session: every run opened under it is captured.
  Session() = default;

  /// A replay session over `traces`, filed by (fingerprint, seed).
  explicit Session(std::vector<Trace> traces);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Opens one run under (key, seed) and returns the hooks to run it with.
  /// Recording: the hooks capture into `scratch` (stamped with key and
  /// seed), which must live until finish(). Replaying: the hooks replay the
  /// trace filed under the key; throws TraceError when there is none — a
  /// replay that silently fell back to fresh randomness would defeat the
  /// whole point.
  [[nodiscard]] RunHooks open(std::uint64_t key, std::uint64_t seed,
                              Trace& scratch) const;

  /// Closes a run opened with open(), given its audit hash. Recording:
  /// stamps the hash and commits the trace (first commit per key wins).
  /// Replaying: compares the hash with the recorded one; when either is 0
  /// (a side ran without DYNREG_AUDIT, or the file predates the hash) the
  /// run counts as not compared.
  void finish(const RunHooks& hooks, std::uint64_t trace_hash);

  /// Recording: the committed traces in deterministic (fingerprint, seed)
  /// order — what `dynreg_exp record` serializes.
  [[nodiscard]] std::vector<Trace> collected() const;

  /// Replaying: finished runs, and how many of them had a mismatched
  /// respectively an uncompared audit hash.
  [[nodiscard]] std::size_t replays() const;
  [[nodiscard]] std::size_t hash_mismatches() const;
  [[nodiscard]] std::size_t not_compared() const;

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // (fingerprint, seed)

  const bool replaying_ = false;
  mutable std::mutex mutex_;
  // Replaying, this is filled by the constructor and only read after, so
  // open() looks traces up without the lock.
  std::map<Key, Trace> traces_;
  std::size_t replays_ = 0;
  std::size_t hash_mismatches_ = 0;
  std::size_t not_compared_ = 0;
};

}  // namespace dynreg::replay

#include "replay/session.h"

#include <string>

#include "replay/trace_io.h"

namespace dynreg::replay {

Session::Session(std::vector<Trace> traces) : replaying_(true) {
  for (Trace& t : traces) {
    const Key key{t.fingerprint, t.seed};
    traces_.emplace(key, std::move(t));
  }
}

RunHooks Session::open(std::uint64_t key, std::uint64_t seed, Trace& scratch) const {
  RunHooks hooks;
  if (!replaying_) {
    scratch.fingerprint = key;
    scratch.seed = seed;
    hooks.record = &scratch;
    return hooks;
  }
  const auto it = traces_.find(Key{key, seed});
  if (it == traces_.end()) {
    throw TraceError("no trace recorded for config fingerprint " + std::to_string(key) +
                     ", seed " + std::to_string(seed) +
                     " — the trace file does not cover this run (different "
                     "experiment options?)");
  }
  hooks.replay = &it->second;
  return hooks;
}

void Session::finish(const RunHooks& hooks, std::uint64_t trace_hash) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (hooks.record != nullptr) {
    hooks.record->recorded_hash = trace_hash;
    const Key key{hooks.record->fingerprint, hooks.record->seed};
    traces_.emplace(key, std::move(*hooks.record));
  } else if (hooks.replay != nullptr) {
    ++replays_;
    if (hooks.replay->recorded_hash == 0 || trace_hash == 0) {
      ++not_compared_;
    } else if (trace_hash != hooks.replay->recorded_hash) {
      ++hash_mismatches_;
    }
  }
}

std::vector<Trace> Session::collected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Trace> out;
  out.reserve(traces_.size());
  for (const auto& [key, trace] : traces_) out.push_back(trace);
  return out;
}

std::size_t Session::replays() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return replays_;
}

std::size_t Session::hash_mismatches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hash_mismatches_;
}

std::size_t Session::not_compared() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return not_compared_;
}

}  // namespace dynreg::replay

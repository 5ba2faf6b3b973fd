// The traced run: spans recorded around the benchmark's own calls into each
// layer, and a single-register replica assembled from the same public
// builders harness::run_experiment uses, so the phases between them can be
// timed and the engine's counters read. Spans stay in memory until the run
// ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "replay/trace.h"
#include "workloads.h"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the run's epoch
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index into the same log, -1 for a root
  std::int64_t replica = 0;   ///< shared by all spans of one replica
};

/// One replica's spans; a replica runs on one thread, so no locking.
class SpanLog {
 public:
  SpanLog(std::chrono::steady_clock::time_point epoch, std::int64_t replica)
      : epoch_(epoch), replica_(replica) {}

  std::size_t open(std::string name);
  void close(std::size_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::int64_t replica_;
  std::vector<Span> spans_;
  std::int64_t current_ = -1;
};

/// RAII span: open on construction, closed on scope exit.
class Scoped {
 public:
  Scoped(SpanLog& log, std::string name) : log_(log), index_(log.open(std::move(name))) {}
  ~Scoped() { log_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  std::size_t index_;
};

/// Engine counters read from the public accessors of one assembled world.
struct LayerCounters {
  std::uint64_t events = 0;
  std::uint64_t net_sent = 0;
  std::uint64_t net_delivered = 0;
  std::uint64_t net_dropped_departed = 0;
  std::uint64_t net_dropped_loss = 0;
  std::uint64_t net_dropped_partition = 0;
  std::uint64_t net_transformed = 0;
  std::uint64_t arena_chunks_created = 0;
  std::uint64_t arena_chunks_recycled = 0;
  std::uint64_t arena_bytes_reserved = 0;
};

struct TracedResult {
  Counts counts;
  LayerCounters layers;
};

/// Runs `cfg` (unsharded) exactly as run_experiment(cfg, hooks) does, with
/// `replay` (optional) standing in for hooks.replay, and records spans
/// harness.build, churn.bootstrap, sim.run, consistency.regularity and
/// consistency.atomicity into `log` under its currently open span.
TracedResult run_traced(const dynreg::harness::ExperimentConfig& cfg,
                        const dynreg::replay::Trace* replay, SpanLog& log);

}  // namespace perfbench

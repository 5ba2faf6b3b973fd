// Trace replay: DelayModel / ChurnModel / TargetChooser implementations
// that re-feed a recorded (or perturbed) Trace into a run instead of the
// rng. The streams are consumed *positionally* — the k-th transmit gets the
// k-th net record — and the run's own sim::Rng is never drawn, so:
//
//   unperturbed trace   the replayed run re-makes every decision the
//                       recording made and is byte-identical to it (same
//                       trace_hash, same emitter output);
//   perturbed trace     the run follows the perturbed schedule until it
//                       diverges from the recording; past that point later
//                       records land on different messages (which is the
//                       point of schedule search — it explores neighbours,
//                       not exact replays), and exhausted streams fall back
//                       to a seeded private Rng, keeping even deeply
//                       diverged variants fully deterministic.
//
// The churn models and the target chooser hold a shared_ptr to the trace;
// the delay models read the TraceReplayer's one net cursor, so the replayer
// must outlive every Network holding one of them.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "churn/churn_model.h"
#include "client/client.h"
#include "net/delay_model.h"
#include "replay/trace.h"
#include "sim/rng.h"

namespace dynreg::replay {

/// Salts separating the three fallback rng streams from each other and from
/// anything the recorded run derived from its seed.
inline constexpr std::uint64_t kNetFallbackSalt = 0x6e65742d66616c6cULL;    // "net-fall"
inline constexpr std::uint64_t kPickFallbackSalt = 0x7069636b2d66616cULL;   // "pick-fal"

/// The net stream's one positional cursor and fallback rng, owned by the
/// TraceReplayer. Recording interleaves every world's verdicts into the one
/// net stream in execution order, so every world's model reads it here.
struct NetCursor {
  explicit NetCursor(const Trace& t)
      : next(t.net.data()),
        end(t.net.data() + t.net.size()),
        max_delay(t.max_delay()),
        fallback(fold64(t.seed, kNetFallbackSalt)) {}

  const NetRecord* next;  // into the trace the replayer keeps alive
  const NetRecord* end;
  sim::Duration max_delay;
  sim::Rng fallback;
};

/// Replays the net stream through a shared NetCursor. Loss rate and the
/// wrapped model's delay distribution are ignored while records last;
/// exhausted, it draws loss from `loss_rate` and delays uniform in
/// [1, trace.max_delay()] from the cursor's fallback rng.
class ReplayDelayModel final : public net::DelayModel {
 public:
  explicit ReplayDelayModel(NetCursor& cursor) : cursor_(cursor) {}

  sim::Duration delay(sim::Time, sim::ProcessId, sim::ProcessId, const net::Payload&,
                      sim::Rng&) override {
    return cursor_.fallback.uniform_int(1, cursor_.max_delay);
  }

  Verdict verdict(sim::Time, sim::ProcessId, sim::ProcessId, const net::Payload&,
                  double loss_rate, sim::Rng&) override {
    if (cursor_.next != cursor_.end) {
      const NetRecord& r = *cursor_.next++;
      if (r.lost) return {true, 0};
      return {false, r.delay < 1 ? sim::Duration{1} : r.delay};
    }
    if (loss_rate > 0.0 && cursor_.fallback.bernoulli(loss_rate)) return {true, 0};
    return {false, cursor_.fallback.uniform_int(1, cursor_.max_delay)};
  }

 private:
  NetCursor& cursor_;  // non-owning: the TraceReplayer's
};

/// Replays the churn stream as a scripted model: each churn tick executes,
/// in recorded order, every action stamped at or before `now` that has not
/// run yet (perturbation may shift a record between ticks; catch-up keeps
/// every action executed exactly once). Install only when the recorded run
/// drove a churn tick loop (Trace::churn_loop) so the tick-event cadence —
/// part of the audited event stream — matches the recording.
///
/// The model executes only the records tagged `shard`, skipping (and
/// permanently passing over) the rest. An unsharded run's records all carry
/// shard 0, so its one model executes every record; in a sharded run every
/// shard's model scans the shared stream with its own cursor, and since all
/// shards tick at the same cadence each record is executed by exactly its
/// owner exactly once.
class ReplayChurnModel final : public churn::ChurnModel {
 public:
  explicit ReplayChurnModel(std::shared_ptr<const Trace> trace, std::uint32_t shard = 0)
      : trace_(std::move(trace)), shard_(shard) {}

  double rate() const override { return 0.0; }
  [[nodiscard]] bool scripted() const override { return true; }

  void actions_at(sim::Time now, std::vector<churn::ChurnAction>& out) override {
    while (next_ < trace_->churn.size() && trace_->churn[next_].time <= now) {
      const ChurnRecord& r = trace_->churn[next_++];
      if (r.shard == shard_) out.push_back({r.join, r.victim});
    }
  }

 private:
  std::shared_ptr<const Trace> trace_;
  std::size_t next_ = 0;
  std::uint32_t shard_ = 0;
};

/// Replays client target picks. A recorded pick that is no longer active
/// (possible only after divergence) falls back to a deterministic draw over
/// the current actives, as does an exhausted stream.
class ReplayTargetChooser final : public client::TargetChooser {
 public:
  explicit ReplayTargetChooser(std::shared_ptr<const Trace> trace)
      : trace_(std::move(trace)),
        fallback_(fold64(trace_->seed, kPickFallbackSalt)) {}

  sim::ProcessId choose_target(sim::Time,
                               const std::vector<sim::ProcessId>& actives) override {
    if (next_ < trace_->picks.size()) {
      const sim::ProcessId chosen = trace_->picks[next_++].chosen;
      for (const sim::ProcessId id : actives) {
        if (id == chosen) return chosen;
      }
    }
    return actives[static_cast<std::size_t>(
        fallback_.uniform_int(0, actives.size() - 1))];
  }

 private:
  std::shared_ptr<const Trace> trace_;
  sim::Rng fallback_;
  std::size_t next_ = 0;
};

/// Bundles the three replay components for one run. Owns the net cursor
/// and the target chooser (Networks and Clients only reference them), hands
/// delay/churn model ownership to the Network/System; must outlive the run
/// it drives.
class TraceReplayer {
 public:
  explicit TraceReplayer(std::shared_ptr<const Trace> trace)
      : trace_(std::move(trace)), cursor_(*trace_), chooser_(trace_) {}
  TraceReplayer(const TraceReplayer&) = delete;  // models and Clients hold its address
  TraceReplayer& operator=(const TraceReplayer&) = delete;

  /// A replay model on the one net cursor; call once per world's Network.
  [[nodiscard]] std::unique_ptr<net::DelayModel> make_delay_model() {
    return std::make_unique<ReplayDelayModel>(cursor_);
  }

  /// ReplayChurnModel for shard `shard` (0 when unsharded) when the
  /// recording drove a churn loop, NoChurn otherwise (then no tick events
  /// existed to reproduce).
  [[nodiscard]] std::unique_ptr<churn::ChurnModel> make_churn_model(
      std::uint32_t shard = 0) const {
    if (trace_->churn_loop) return std::make_unique<ReplayChurnModel>(trace_, shard);
    return std::make_unique<churn::NoChurn>();
  }

  [[nodiscard]] client::TargetChooser* target_chooser() { return &chooser_; }

 private:
  std::shared_ptr<const Trace> trace_;  // keeps cursor_'s records alive
  NetCursor cursor_;
  ReplayTargetChooser chooser_;
};

}  // namespace dynreg::replay

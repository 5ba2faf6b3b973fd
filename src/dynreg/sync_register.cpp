#include "dynreg/sync_register.h"

#include <utility>

#include "dynreg/messages.h"

namespace dynreg {

SyncRegisterNode::SyncRegisterNode(sim::ProcessId id, node::Context& ctx,
                                   SyncConfig config, bool initial)
    : RegisterNode(id), ctx_(ctx), config_(std::move(config)) {
  if (initial) {
    value_ = config_.initial_value;
    ts_ = Timestamp{0, 0};
    has_value_ = true;
    active_ = true;
    ctx_.notify_active();
    schedule_refresh();
  } else {
    joining_ = true;
    if (config_.wait_before_inquiry) {
      // The initial delta wait guarantees any WRITE broadcast concurrent
      // with the join has landed at every active process before their
      // replies are generated (Figure 3b).
      ctx_.schedule_after(config_.delta, [this] { start_inquiry(); });
    } else {
      start_inquiry();
    }
  }
}

void SyncRegisterNode::start_inquiry() {
  ctx_.broadcast(ctx_.make_payload<msg::SyncInquiry>());
  // A reply takes at most delta (inquiry) + delta (reply) to round-trip;
  // footnote 4 tightens the return leg to a known delta'.
  const sim::Duration window =
      config_.delta + (config_.delta_pp ? *config_.delta_pp : config_.delta);
  ctx_.schedule_after(window, [this] { finish_join(); });
}

void SyncRegisterNode::finish_join() {
  joining_ = false;
  active_ = true;
  ctx_.notify_active();
  // Answer inquiries that arrived while we were still joining.
  for (const sim::ProcessId j : pending_inquiries_) {
    ctx_.send(j, msg::SyncReply(ts_, value_, has_value_));
  }
  pending_inquiries_.clear();
  schedule_refresh();
}

void SyncRegisterNode::apply(const Timestamp& ts, Value v) {
  if (!has_value_ || ts_ < ts) {
    ts_ = ts;
    value_ = v;
    has_value_ = true;
  }
}

void SyncRegisterNode::schedule_refresh() {
  if (!config_.refresh_interval) return;
  ctx_.schedule_after(*config_.refresh_interval, [this] {
    if (active_ && has_value_) {
      ctx_.broadcast(ctx_.make_payload<msg::SyncRefresh>(ts_, value_));
    }
    schedule_refresh();
  });
}

void SyncRegisterNode::on_message(sim::ProcessId from, const net::Payload& payload) {
  const net::PayloadTypeId type = payload.type_id();
  if (type == msg::SyncWrite::kTypeId) {
    const auto& m = static_cast<const msg::SyncWrite&>(payload);
    apply(m.ts, m.value);
  } else if (type == msg::SyncRefresh::kTypeId) {
    const auto& m = static_cast<const msg::SyncRefresh&>(payload);
    apply(m.ts, m.value);
  } else if (type == msg::SyncReply::kTypeId) {
    // Replies feed the join phase only; one arriving after the collection
    // window closed is discarded (this is exactly what makes the no-wait
    // variant of Figure 3a unsafe).
    const auto& m = static_cast<const msg::SyncReply&>(payload);
    if (joining_ && m.has_value) apply(m.ts, m.value);
  } else if (type == msg::SyncInquiry::kTypeId) {
    if (active_) {
      ctx_.send(from, msg::SyncReply(ts_, value_, has_value_));
    } else {
      pending_inquiries_.push_back(from);
    }
  }
}

void SyncRegisterNode::read(const OpContext&, ReadCompletion done) {
  // Reads are local and instantaneous — the "fast reads" design point. A
  // read can therefore never be dropped mid-flight: it resolves before the
  // invocation returns.
  done(OpOutcome::kOk, value_);
}

void SyncRegisterNode::write(const OpContext&, Value v, WriteCompletion done) {
  Timestamp ts{ts_.sn + 1, id()};
  apply(ts, v);
  ctx_.broadcast(ctx_.make_payload<msg::SyncWrite>(ts, v));
  // In the synchronous model every copy lands within delta; the write
  // returns exactly then (Section 3.3). The completion waits in
  // pending_writes_ (not inside the timer) so a departure can resolve it.
  const std::uint64_t wid = next_wid_++;
  pending_writes_.emplace_back(wid, std::move(done));
  ctx_.schedule_after(config_.delta, [this, wid] { finish_write(wid); });
}

void SyncRegisterNode::finish_write(std::uint64_t wid) {
  // Writes all wait the same delta, so their timers fire in issue order and
  // the finishing write is always the queue's front. (A cleared queue —
  // departure resolved everything — cannot be observed here: departure also
  // cancels the timers.)
  if (pending_writes_.empty() || pending_writes_.front().first != wid) return;
  WriteCompletion done = std::move(pending_writes_.front().second);
  pending_writes_.pop_front();
  done(OpOutcome::kOk);
}

void SyncRegisterNode::on_departure() {
  // Resolve every in-flight write as dropped (in issue order, so the
  // client's records resolve deterministically). Reads are instantaneous
  // and never pend; join state has no client-visible operation attached.
  auto pending = std::move(pending_writes_);
  pending_writes_.clear();
  for (auto& [wid, done] : pending) {
    if (done) done(OpOutcome::kDroppedOnDeparture);
  }
}

}  // namespace dynreg

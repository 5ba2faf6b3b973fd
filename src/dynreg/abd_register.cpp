#include "dynreg/abd_register.h"

#include <utility>

#include "dynreg/messages.h"

namespace dynreg {

AbdRegisterNode::AbdRegisterNode(sim::ProcessId id, node::Context& ctx,
                                 AbdConfig config, bool initial)
    : RegisterNode(id), ctx_(ctx), config_(std::move(config)), replica_(initial) {
  if (replica_) {
    value_ = config_.initial_value;
    ts_ = Timestamp{0, 0};
  }
  // ABD has no join protocol: every member is immediately operational.
  ctx_.notify_active();
}

void AbdRegisterNode::apply(const Timestamp& ts, Value v) {
  if (ts_ < ts) {
    ts_ = ts;
    value_ = v;
  }
}

void AbdRegisterNode::read(const OpContext&, ReadCompletion done) {
  const std::uint64_t rid = next_rid_++;
  PendingRead& r = reads_[rid];
  r.done = std::move(done);
  if (replica_) {
    r.repliers.insert(id());
    r.best_ts = ts_;
    r.best_value = value_;
    r.has_best = true;
  }
  ctx_.broadcast(ctx_.make_payload<msg::AbdReadQuery>(rid));
  if (r.repliers.size() >= majority()) start_writeback(rid);  // n == 1 corner
}

void AbdRegisterNode::write(const OpContext&, Value v, WriteCompletion done) {
  // Advance past every timestamp this process has observed so a writer whose
  // local counter lags (multi-writer configs) cannot issue an already
  // superseded timestamp that replicas would ack but never store.
  sn_ = std::max(sn_, ts_.sn) + 1;
  const Timestamp ts{sn_, id()};
  const std::uint64_t wid = next_wid_++;
  PendingWrite& w = writes_[wid];
  w.done = std::move(done);
  if (replica_) {
    apply(ts, v);
    w.ackers.insert(id());
  }
  ctx_.broadcast(ctx_.make_payload<msg::AbdUpdate>(wid, ts, v));
  maybe_finish_write(wid);  // n == 1 corner
}

void AbdRegisterNode::start_writeback(std::uint64_t rid) {
  // Phase 2: write the chosen value back to a majority before returning.
  PendingRead& r = reads_[rid];
  r.in_writeback = true;
  if (replica_) {
    apply(r.best_ts, r.best_value);
    r.wb_ackers.insert(id());
  }
  ctx_.broadcast(ctx_.make_payload<msg::AbdWriteback>(rid, r.best_ts, r.best_value));
  maybe_finish_read(rid);
}

void AbdRegisterNode::maybe_finish_read(std::uint64_t rid) {
  const auto it = reads_.find(rid);
  if (it == reads_.end() || !it->second.in_writeback ||
      it->second.wb_ackers.size() < majority()) {
    return;
  }
  PendingRead finished = std::move(it->second);
  reads_.erase(it);
  finished.done(OpOutcome::kOk, finished.best_value);
}

void AbdRegisterNode::maybe_finish_write(std::uint64_t wid) {
  const auto it = writes_.find(wid);
  if (it == writes_.end() || it->second.ackers.size() < majority()) return;
  PendingWrite finished = std::move(it->second);
  writes_.erase(it);
  finished.done(OpOutcome::kOk);
}

void AbdRegisterNode::on_departure() {
  // Resolve every in-flight quorum operation as dropped, in id order.
  auto reads = std::move(reads_);
  reads_.clear();
  auto writes = std::move(writes_);
  writes_.clear();
  for (auto& [rid, r] : reads) {
    if (r.done) r.done(OpOutcome::kDroppedOnDeparture, kBottom);
  }
  for (auto& [wid, w] : writes) {
    if (w.done) w.done(OpOutcome::kDroppedOnDeparture);
  }
}

void AbdRegisterNode::on_message(sim::ProcessId from, const net::Payload& payload) {
  const net::PayloadTypeId type = payload.type_id();

  if (type == msg::AbdReadQuery::kTypeId) {
    if (!replica_) return;
    const auto& m = static_cast<const msg::AbdReadQuery&>(payload);
    ctx_.send(from, msg::AbdReadReply(m.rid, ts_, value_));
  } else if (type == msg::AbdReadReply::kTypeId) {
    const auto& m = static_cast<const msg::AbdReadReply&>(payload);
    const auto it = reads_.find(m.rid);
    if (it == reads_.end() || it->second.in_writeback) return;
    PendingRead& r = it->second;
    r.repliers.insert(from);
    if (!r.has_best || r.best_ts < m.ts) {
      r.best_ts = m.ts;
      r.best_value = m.value;
      r.has_best = true;
    }
    if (r.repliers.size() >= majority()) start_writeback(m.rid);
  } else if (type == msg::AbdWriteback::kTypeId) {
    if (!replica_) return;
    const auto& m = static_cast<const msg::AbdWriteback&>(payload);
    apply(m.ts, m.value);
    ctx_.send(from, msg::AbdWritebackAck(m.rid));
  } else if (type == msg::AbdWritebackAck::kTypeId) {
    const auto& m = static_cast<const msg::AbdWritebackAck&>(payload);
    const auto it = reads_.find(m.rid);
    if (it == reads_.end() || !it->second.in_writeback) return;
    it->second.wb_ackers.insert(from);
    maybe_finish_read(m.rid);
  } else if (type == msg::AbdUpdate::kTypeId) {
    if (!replica_) return;
    const auto& m = static_cast<const msg::AbdUpdate&>(payload);
    apply(m.ts, m.value);
    ctx_.send(from, msg::AbdUpdateAck(m.wid));
  } else if (type == msg::AbdUpdateAck::kTypeId) {
    const auto& m = static_cast<const msg::AbdUpdateAck&>(payload);
    const auto it = writes_.find(m.wid);
    if (it == writes_.end()) return;
    it->second.ackers.insert(from);
    maybe_finish_write(m.wid);
  }
}

}  // namespace dynreg

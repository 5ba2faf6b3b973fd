#include "net/network.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

namespace dynreg::net {

void Network::attach(sim::ProcessId id, Handler handler) {
  if (id >= slots_.size()) slots_.resize(id + 1);
  Slot& slot = slots_[id];
  if (!slot.attached) {
    // The churn system hands out increasing ids, so this is almost always
    // an O(1) append; the insert keeps the membership sorted regardless.
    if (attached_ids_.empty() || attached_ids_.back() < id) {
      attached_ids_.push_back(id);
    } else {
      attached_ids_.insert(
          std::lower_bound(attached_ids_.begin(), attached_ids_.end(), id), id);
    }
  }
  slot.handler = std::move(handler);
  slot.attached = true;
  ++slot.generation;
}

void Network::detach(sim::ProcessId id) {
  if (id >= slots_.size()) return;
  Slot& slot = slots_[id];
  if (!slot.attached) return;
  slot.attached = false;
  slot.handler.reset();  // release the closure's resources eagerly
  ++slot.generation;
  attached_ids_.erase(
      std::lower_bound(attached_ids_.begin(), attached_ids_.end(), id));
}

namespace {

// Frees a batch event's recipient span. The arena is held directly, not
// reached through the Network, because the Simulation (arena and queue) may
// outlive the Network and destroy a still-queued batch at teardown.
struct ArenaFree {
  sim::Arena* arena;
  void operator()(sim::ProcessId* p) const noexcept { arena->deallocate(p); }
};

}  // namespace

void Network::broadcast(sim::ProcessId from, PayloadPtr payload) {
  // A broadcast addresses the membership at send time. The fan-out only
  // schedules future deliveries (it never runs handlers synchronously), so
  // the membership cannot change under this walk and no recipient snapshot
  // is needed. Ascending id order matches the previous ordered-map fan-out,
  // which keeps the RNG draw sequence — and thus every run — bit-identical.
  //
  // Each copy's hop starts from its parent and leaves at the parent's
  // arrival: with a tree installed, BFS position j (the j-th recipient)
  // hangs under position tree->parent(j), position 0 being the sender;
  // direct fan-out is the tree whose every parent is the sender. Parents
  // precede their children, so a parent's arrival is final before its
  // out-edges draw. The tree's modeling idealizations (deliberate):
  //  - the cut is checked on the physical edge parent -> to, but handlers
  //    observe the LOGICAL sender: protocols reply to whoever initiated the
  //    operation, and relays are transparent transport;
  //  - a lost or cut edge loses only that recipient's copy; its subtree
  //    still forwards (as if the relay layer repaired the hop) from the
  //    parent's arrival + 1, so loss stays a per-copy Bernoulli event as in
  //    the direct model rather than compounding down subtrees.
  const TreeDisseminator* tree = disseminator_.get();
  if (tree != nullptr) positions_.assign(1, {0, from});
  survivors_.clear();
  sim::Duration min_d = std::numeric_limits<sim::Duration>::max();
  sim::Duration max_d = 0;
  for (const sim::ProcessId to : attached_ids_) {
    if (to == from) continue;
    Copy parent{0, from};
    if (tree != nullptr) parent = positions_[tree->parent(positions_.size())];
    const sim::Duration d = draw_fate(parent.to, to, *payload);
    if (tree != nullptr) positions_.push_back({parent.delay + (d == 0 ? 1 : d), to});
    if (d == 0) continue;
    const sim::Duration arrival = parent.delay + d;
    min_d = std::min(min_d, arrival);
    max_d = std::max(max_d, arrival);
    survivors_.push_back({arrival, to});
  }

  // Group by arrival delay with a stable LSD radix sort on (delay - min_d),
  // one byte per pass, so copies keep their id order within each group. A
  // delay range under 256 ticks (every synchronous model) takes one O(n)
  // pass and a fixed delay none. std::sort on (delay, id) gives the same
  // order but made perfbench sync_join_churn 26% slower in wall_s (10
  // rounds on one host; docs/PERFORMANCE.md).
  const sim::Duration range = survivors_.empty() ? 0 : max_d - min_d;
  for (unsigned shift = 0; shift < 64 && (range >> shift) != 0; shift += 8) {
    std::array<std::uint32_t, 257> starts{};
    for (const Copy& c : survivors_) ++starts[(((c.delay - min_d) >> shift) & 0xff) + 1];
    for (std::size_t k = 1; k < starts.size(); ++k) starts[k] += starts[k - 1];
    sorted_.resize(survivors_.size());
    for (const Copy& c : survivors_) sorted_[starts[((c.delay - min_d) >> shift) & 0xff]++] = c;
    survivors_.swap(sorted_);
  }

  // Queue one event per arrival tick; a lone copy takes a one-recipient
  // closure over the shared payload and needs no recipient span. Every batch
  // owns its own span, so a handler that broadcasts from inside a batch
  // never touches this one's.
  const std::size_t n = survivors_.size();
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i + 1;
    while (j < n && survivors_[j].delay == survivors_[i].delay) ++j;
    if (j - i == 1) {
      auto deliver_one = [this, from, to = survivors_[i].to, payload] {
        deliver(from, to, *payload);
      };
      static_assert(sizeof(deliver_one) <= sim::InlineTask::kInlineCapacity,
                    "lone broadcast copy must stay inline — see sim/inline_task.h");
      sim_.schedule_after(survivors_[i].delay, std::move(deliver_one));
    } else {
      const auto count = static_cast<std::uint32_t>(j - i);
      sim::Arena& arena = sim_.arena();
      std::unique_ptr<sim::ProcessId[], ArenaFree> to(
          static_cast<sim::ProcessId*>(
              arena.allocate(count * sizeof(sim::ProcessId), alignof(sim::ProcessId))),
          ArenaFree{&arena});
      for (std::uint32_t k = 0; k < count; ++k) to[k] = survivors_[i + k].to;
      auto deliver_batch = [this, from, count, payload, to = std::move(to)] {
        for (std::uint32_t k = 0; k < count; ++k) deliver(from, to[k], *payload);
      };
      static_assert(sizeof(deliver_batch) <= sim::InlineTask::kInlineCapacity,
                    "batch delivery event must stay inline — see sim/inline_task.h");
      sim_.schedule_after(survivors_[i].delay, std::move(deliver_batch));
    }
    i = j;
  }
}

sim::Duration Network::draw_fate(sim::ProcessId from, sim::ProcessId to,
                                 const Payload& payload) {
  // Partition cuts are checked BEFORE the delay model: a cut copy consumes
  // no Rng draw, so the recorded net stream stays positionally aligned
  // between faulted record and replay runs.
  if (fault_hook_ != nullptr && fault_hook_->link_cut(sim_.now(), from, to)) {
    ++stats_.dropped_partition;
    return 0;
  }
  ++stats_.sent;
  const DelayModel::Verdict verdict =
      delays_->verdict(sim_.now(), from, to, payload, loss_rate_, sim_.rng());
  if (verdict.lost) {
    ++stats_.dropped_loss;
    return 0;
  }
  return verdict.delay < 1 ? 1 : verdict.delay;
}

void Network::deliver(sim::ProcessId from, sim::ProcessId to, const Payload& payload) {
  if (to >= slots_.size() || !slots_[to].attached) {
    ++stats_.dropped_departed;  // receiver departed while the copy was in flight
    return;
  }
  ++stats_.delivered;
  // Byzantine transforms rewrite the copy at delivery time; the hook is
  // reached through `this`, so the delivery events stay inline.
  const Payload* observed = &payload;
  PayloadPtr replacement;
  if (fault_hook_ != nullptr) {
    replacement = fault_hook_->transform(sim_.now(), from, to, payload);
    if (replacement != nullptr) {
      observed = replacement.get();
      ++stats_.transformed;
    }
  }
  const PayloadTypeId type = observed->type_id();
  if (type >= delivered_by_type_id_.size()) delivered_by_type_id_.resize(type + 1, 0);
  ++delivered_by_type_id_[type];
  // Audit builds fold each delivery's shape into the event-stream hash
  // (no-op otherwise) — a reordered or re-addressed message diverges the
  // digest even when the counters happen to agree.
  sim_.audit_note((std::uint64_t{from} << 40) | (std::uint64_t{to} << 16) | type);
  slots_[to].handler(from, *observed);
}

std::map<std::string, std::uint64_t> Network::delivered_by_type() const {
  std::map<std::string, std::uint64_t> by_name;
  for (std::size_t id = 0; id < delivered_by_type_id_.size(); ++id) {
    if (delivered_by_type_id_[id] == 0) continue;
    by_name.emplace(PayloadTypeRegistry::name(static_cast<PayloadTypeId>(id)),
                    delivered_by_type_id_[id]);
  }
  return by_name;
}

}  // namespace dynreg::net

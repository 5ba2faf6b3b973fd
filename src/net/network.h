// Point-to-point + broadcast message transport over the simulation clock.
//
// Delivery semantics mirror the paper's dynamic-system model:
//  - a broadcast reaches the processes attached at send time (a process that
//    joins later does not see earlier broadcasts);
//  - a message to a process that departed before delivery is dropped — this
//    is how churn manifests as lost replies;
//  - the sender does not receive its own broadcast (protocol nodes account
//    for their local state directly).
//
// Dispatch is O(1): processes live in a dense vector indexed by ProcessId
// (ids are assigned densely by the churn system), with an attached flag and
// a generation counter per slot instead of a tree-backed map. Broadcast
// fan-out walks the live ids in ascending order and draws every copy's fate
// (partition cut, loss, delay) in that order; with a TreeDisseminator
// installed, each copy's hop starts from its tree parent and leaves at the
// parent's arrival, otherwise from the sender at once. The surviving copies
// are then queued as ONE event per arrival tick, which delivers to its
// recipients in id order. Nothing else is pushed during the fan-out, so the
// copies of one broadcast that land on one tick would have held adjacent
// FIFO slots anyway: the batch reproduces per-copy delivery exactly, with
// the drop-on-departure check still made per recipient at delivery time.
//
// Point-to-point messages travel by value: send() copies the message into
// its delivery event, next to {this, from, to}, and the delivery body runs
// on it where it sits in the event slot. A reply therefore costs no arena
// allocation, no shared_ptr control block and no atomic refcount; only a
// broadcast builds its payload once (in the arena) and shares it between
// its copies. Every message sent this way must fit the scheduler's inline
// budget with those 16 bytes beside it (40 bytes; a static_assert in send
// guards it).
//
// Per-delivery metrics are keyed on interned PayloadTypeId tags; the
// string-keyed view is materialized only on demand.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/delay_model.h"
#include "net/disseminator.h"
#include "net/fault_hook.h"
#include "net/payload.h"
#include "sim/inline_function.h"
#include "sim/simulation.h"

namespace dynreg::net {

class Network {
 public:
  /// Per-process delivery callback, invoked once per delivered copy — a hot
  /// path, hence InlineFunction (the attach lambdas capture one node
  /// pointer, far inside the inline budget; see sim/inline_function.h).
  using Handler = sim::InlineFunction<void(sim::ProcessId from, const Payload& payload)>;

  Network(sim::Simulation& sim, std::unique_ptr<DelayModel> delays)
      : sim_(sim), delays_(std::move(delays)) {}

  /// Registers a process. Messages are delivered only to attached processes.
  void attach(sim::ProcessId id, Handler handler);

  /// Deregisters a process; in-flight messages towards it are dropped at
  /// their delivery time.
  void detach(sim::ProcessId id);

  bool attached(sim::ProcessId id) const {
    return id < slots_.size() && slots_[id].attached;
  }

  /// Times the slot has been attached or detached; lets tests and debugging
  /// distinguish incarnations of a reused id. (Delivery deliberately does
  /// not check it: a message is delivered to whoever holds the id at
  /// delivery time, exactly as with the previous map-based dispatch.)
  std::uint32_t generation(sim::ProcessId id) const {
    return id < slots_.size() ? slots_[id].generation : 0;
  }

  /// Sends one copy of `msg` to `to`, carried by value inside its delivery
  /// event (see file comment). T is a concrete Payload type.
  template <class T>
  void send(sim::ProcessId from, sim::ProcessId to, const T& msg) {
    static_assert(std::is_base_of_v<Payload, T> && std::is_final_v<T>,
                  "send() copies a concrete message type by value");
    const sim::Duration d = draw_fate(from, to, msg);
    if (d == 0) return;
    auto deliver_one = [this, from, to, msg] { deliver(from, to, msg); };
    // Every point-to-point copy (each protocol reply) is one of these events;
    // the closure must never outgrow the scheduler's inline capture budget.
    static_assert(sizeof(deliver_one) <= sim::InlineTask::kInlineCapacity,
                  "delivery closure must stay inline — see sim/inline_task.h");
    sim_.schedule_after(d, std::move(deliver_one));
  }

  /// Sends one copy to every currently attached process except `from`,
  /// queued as one event per arrival tick (see file comment).
  void broadcast(sim::ProcessId from, PayloadPtr payload);

  /// Installs tree fan-out for broadcast(). nullptr (the default) keeps the
  /// direct fan-out — the paper's model, where the sender transmits every copy.
  void set_disseminator(std::unique_ptr<TreeDisseminator> d) {
    disseminator_ = std::move(d);
  }

  /// Fraction of message copies silently lost (omission faults). Loss is
  /// decided at send time with the simulation RNG.
  void set_loss_rate(double rate) { loss_rate_ = rate; }

  /// Installs the injected-fault seam (partition cuts + Byzantine delivery
  /// transforms; see net/fault_hook.h). nullptr (the default) is the
  /// zero-overhead fault-free path. Non-owning: the hook must outlive the
  /// simulation's in-flight deliveries.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }

  struct Stats {
    std::uint64_t sent = 0;            // copies handed to the delay model
    std::uint64_t delivered = 0;       // copies that reached a handler
    std::uint64_t dropped_departed = 0;  // receiver left before delivery
    std::uint64_t dropped_loss = 0;      // omission faults
    std::uint64_t dropped_partition = 0;  // copies cut by FaultHook::link_cut
    std::uint64_t transformed = 0;        // deliveries rewritten by the hook
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Delivered copies per payload type tag, materialized from the interned
  /// per-id counters. Report-time only; the hot path never builds strings.
  std::map<std::string, std::uint64_t> delivered_by_type() const;

 private:
  struct Slot {
    Handler handler;
    std::uint32_t generation = 0;
    bool attached = false;
  };

  /// One copy's fate at send time, shared by every send path: a partition
  /// cut (checked first, so it consumes no Rng draw), then `++sent` and the
  /// delay model's verdict (loss, then delay). Returns the arrival delay
  /// (>= 1), or 0 when the copy was cut or lost.
  sim::Duration draw_fate(sim::ProcessId from, sim::ProcessId to,
                          const Payload& payload);
  /// One copy's delivery body, run by point-to-point, lone broadcast and
  /// batch events alike: departure check, fault transform, per-type counter,
  /// audit note, handler.
  void deliver(sim::ProcessId from, sim::ProcessId to, const Payload& payload);

  sim::Simulation& sim_;
  std::unique_ptr<DelayModel> delays_;
  std::unique_ptr<TreeDisseminator> disseminator_;  // nullptr = direct fan-out
  FaultHook* fault_hook_ = nullptr;             // nullptr = fault-free
  // Broadcast scratch: every tree position's (arrival, id), lost copies
  // included; the surviving copies; and the radix sort's other buffer for
  // grouping them by arrival delay. Only read inside broadcast(), which runs
  // no handler, so a nested broadcast cannot observe them; each batch event
  // owns its own recipient span in the arena.
  struct Copy {
    sim::Duration delay;
    sim::ProcessId to;
  };
  std::vector<Copy> positions_;
  std::vector<Copy> survivors_;
  std::vector<Copy> sorted_;
  std::vector<Slot> slots_;  // dense, indexed by ProcessId
  // Sorted live membership: broadcast fan-out walks this, so its cost
  // follows the active set, not the cumulative id space of a churning run.
  std::vector<sim::ProcessId> attached_ids_;
  double loss_rate_ = 0.0;
  Stats stats_;
  std::vector<std::uint64_t> delivered_by_type_id_;  // indexed by PayloadTypeId
};

}  // namespace dynreg::net

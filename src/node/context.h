// Per-node capability handle: everything a protocol node may do to the world.
//
// A node only ever touches the simulation through its Context. The context
// guards scheduled callbacks with a liveness token so that a timer set by a
// node that has since been churned out fires into nothing instead of into
// freed memory.
//
// Messages leave a node two ways: send() hands a point-to-point message to
// the network by value (it is copied into its delivery event), while
// broadcast() takes a payload built once with make_payload, in the
// simulation's arena, and shared by every copy.
#pragma once

#include <memory>
#include <utility>

#include "net/network.h"
#include "net/payload.h"
#include "sim/inline_task.h"
#include "sim/simulation.h"

namespace dynreg::node {

class Context {
 public:
  Context(sim::Simulation& sim, net::Network& net, sim::ProcessId id,
          sim::InlineTask on_active)
      : sim_(sim),
        net_(net),
        id_(id),
        on_active_(std::move(on_active)),
        alive_(std::make_shared<bool>(true)) {}

  [[nodiscard]] sim::Time now() const { return sim_.now(); }
  [[nodiscard]] sim::ProcessId id() const { return id_; }
  sim::Rng& rng() { return sim_.rng(); }

  /// Schedules fn after d ticks; silently cancelled if the node leaves first.
  /// Templated so the liveness wrapper stays within the scheduler's inline
  /// capture budget instead of forcing a std::function allocation per timer.
  template <typename F>
  void schedule_after(sim::Duration d, F fn) {
    sim_.schedule_after(d, [alive = alive_, fn = std::move(fn)]() mutable {
      if (*alive) fn();
    });
  }

  /// Sends `msg` to one process. The message travels by value inside its
  /// delivery event (net/network.h), so a reply or ack is a plain value —
  /// no make_payload, no arena, no refcount.
  template <typename T>
  void send(sim::ProcessId to, const T& msg) {
    net_.send(id_, to, msg);
  }

  /// Builds a broadcast payload in the simulation's epoch arena, shared by
  /// every copy of the broadcast (the hot-path replacement for
  /// net::make_payload's per-message heap allocation).
  template <typename T, typename... Args>
  net::PayloadPtr make_payload(Args&&... args) {
    return net::make_payload_in<T>(sim_.arena(), std::forward<Args>(args)...);
  }

  void broadcast(net::PayloadPtr payload) { net_.broadcast(id_, std::move(payload)); }

  /// The simulation's epoch arena, for pending-operation node containers
  /// (see sim/arena.h for the lifetime contract).
  [[nodiscard]] sim::Arena& arena() { return sim_.arena(); }

  /// Called by the node when its join protocol completes and it becomes an
  /// active replica (initial nodes call it on construction).
  void notify_active() {
    if (on_active_) on_active_();
  }

  /// System calls this when the node departs; cancels all pending timers.
  void invalidate() { *alive_ = false; }

 private:
  sim::Simulation& sim_;
  net::Network& net_;
  sim::ProcessId id_;
  sim::InlineTask on_active_;
  std::shared_ptr<bool> alive_;
};

}  // namespace dynreg::node

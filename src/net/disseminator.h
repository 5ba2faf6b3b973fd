// Optional tree fan-out for broadcasts (see docs/ARCHITECTURE.md).
//
// The paper's protocols broadcast constantly — every ES write is one process
// sending n-1 direct copies, so at n=1e5 a single hot writer pays O(n) sends
// per operation. By default Network::broadcast is that direct fan-out: the
// sender transmits one copy to every recipient. A TreeDisseminator installed
// on the Network replaces it with deterministic delegated multicast over an
// implicit complete k-ary tree. The sender pushes to its k children; each
// recipient forwards to its own children. Latency accumulates along the
// path (depth ~ log_k n hops instead of 1), which is the honest price of
// reducing the root's send cost from O(n) to O(k).
//
// Determinism contract: the tree is a pure function of (sorted recipient
// list, fanout) — position 0 is the sender, position j >= 1 is
// recipients[j-1], the parent of position j is (j-1)/k. Per-edge verdicts
// are drawn in ascending position order through the one DelayModel override
// point, so record/replay and the audit hash see a stable draw sequence.
//
// Modeling idealizations (documented, deliberate):
//  - Delivery handlers observe the LOGICAL sender (the original
//    broadcaster), not the relaying parent: protocols reply to whoever
//    initiated the operation, and relays are transparent transport.
//  - A lost or dropped edge loses only that recipient's copy; its subtree
//    still forwards (as if the relay layer repaired the hop) with a nominal
//    1-tick hop cost. Loss therefore stays a per-copy Bernoulli event, as
//    in the flat model, rather than compounding down subtrees.
#pragma once

#include <cstdint>
#include <vector>

#include "net/payload.h"
#include "sim/event_queue.h"  // ProcessId / Duration

namespace dynreg::net {

class Network;

/// Delegated multicast over an implicit complete k-ary tree in recipient-id
/// order (BFS positions; see file comment for the determinism contract).
class TreeDisseminator {
 public:
  explicit TreeDisseminator(std::uint32_t fanout = 4)
      : fanout_(fanout < 1 ? 1 : fanout) {}

  /// Schedules one copy of `payload` from `from` towards every id in
  /// `recipients` (sorted ascending, never containing `from`). Runs at send
  /// time and only schedules future deliveries through
  /// Network::transmit_hop — it never delivers synchronously.
  void disseminate(Network& net, sim::ProcessId from,
                   const std::vector<sim::ProcessId>& recipients,
                   const PayloadPtr& payload);

 private:
  std::uint32_t fanout_;
  std::vector<sim::Duration> arrivals_;  // scratch, reused across broadcasts
};

}  // namespace dynreg::net

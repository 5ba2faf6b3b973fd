// Optional tree fan-out for broadcasts (see docs/ARCHITECTURE.md).
//
// The paper's protocols broadcast constantly — every ES write is one process
// sending n-1 direct copies, so at n=1e5 a single hot writer pays O(n) sends
// per operation. By default Network::broadcast is that direct fan-out: the
// sender transmits one copy to every recipient. A TreeDisseminator installed
// on the Network turns it into deterministic delegated multicast over an
// implicit complete k-ary tree. The sender pushes to its k children; each
// recipient forwards to its own children. Latency accumulates along the
// path (depth ~ log_k n hops instead of 1), which is the honest price of
// reducing the root's send cost from O(n) to O(k).
//
// This class is only the tree's shape: position 0 is the sender, position
// j >= 1 is the j-th recipient in ascending id order, and the parent of
// position j is (j-1)/k. Network::broadcast walks the positions in that
// order in its one fan-out loop (direct fan-out is the tree in which every
// parent is the sender), so record/replay and the audit hash see a stable
// draw sequence. The modeling idealizations (logical sender, per-copy loss)
// are documented at that loop.
#pragma once

#include <cstddef>

namespace dynreg::net {

/// The shape of an implicit complete k-ary tree over BFS positions.
class TreeDisseminator {
 public:
  explicit TreeDisseminator(std::size_t fanout = 4) : fanout_(fanout < 1 ? 1 : fanout) {}

  /// Parent of BFS position `j` >= 1.
  [[nodiscard]] std::size_t parent(std::size_t j) const { return (j - 1) / fanout_; }

  /// Hops from the sender to the deepest recipient of a broadcast among `n`
  /// processes (BFS position n-1); 1, like a direct fan-out, when n < 2.
  [[nodiscard]] std::size_t depth(std::size_t n) const {
    std::size_t hops = 0;
    for (std::size_t j = n < 2 ? 1 : n - 1; j > 0; j = parent(j)) ++hops;
    return hops;
  }

 private:
  std::size_t fanout_;
};

}  // namespace dynreg::net

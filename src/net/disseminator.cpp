#include "net/disseminator.h"

#include "net/network.h"

namespace dynreg::net {

void TreeDisseminator::disseminate(Network& net, sim::ProcessId from,
                                   const std::vector<sim::ProcessId>& recipients,
                                   const PayloadPtr& payload) {
  // Position 0 is the sender; position j >= 1 is recipients[j-1]; the parent
  // of position j is (j-1)/fanout. Edges are processed in ascending position
  // order — parents always precede children, so every parent's arrival time
  // is final before its out-edges draw their verdicts.
  const std::size_t n = recipients.size();
  arrivals_.assign(n + 1, 0);
  for (std::size_t j = 1; j <= n; ++j) {
    const std::size_t parent = (j - 1) / fanout_;
    const sim::ProcessId hop_from = parent == 0 ? from : recipients[parent - 1];
    const sim::ProcessId to = recipients[j - 1];
    const Network::Hop hop =
        net.transmit_hop(from, hop_from, to, payload, arrivals_[parent]);
    // A lost edge still anchors its subtree (see the idealization note in
    // the header): children inherit the would-be arrival, with a nominal
    // 1-tick hop when the verdict carried no delay.
    arrivals_[j] = hop.lost ? arrivals_[parent] + 1 : hop.arrival_offset;
  }
}

}  // namespace dynreg::net

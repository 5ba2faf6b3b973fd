// FaultHook: the Network's verdict seam for injected link and message
// faults, sitting beside DelayModel.
//
// Two interception points, chosen so record/replay stream alignment is
// preserved by construction (docs/FAULTS.md):
//
//   link_cut   checked at send time BEFORE the delay model's verdict. A cut
//              copy consumes no Rng draw and produces no net-trace record,
//              so the recorded net stream lines up positionally with the
//              replayed one whether or not the cut fires.
//   transform  applied at delivery time, after departed-receiver filtering.
//              Returning a replacement payload substitutes what the handler
//              observes (Byzantine equivocation/forgery/corruption); the
//              delay schedule is untouched.
//
// The hook's own decisions must be deterministic: implementations draw only
// through the fault-decision replay layer (fault::DecisionSource), never the
// run's Rng directly.
#pragma once

#include "net/payload.h"
#include "sim/simulation.h"

namespace dynreg::net {

class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// True = the copy on the physical edge (from -> to) is silently cut
  /// (counted as Stats::dropped_partition, never shown to the delay model).
  virtual bool link_cut(sim::Time now, sim::ProcessId from,
                        sim::ProcessId to) = 0;

  /// Called once per delivered copy. Returns the payload the handler should
  /// observe instead, or nullptr to deliver the original untouched. `from`
  /// is the logical sender the handler will see. `payload` may live inside
  /// the delivery event itself (point-to-point messages travel by value), so
  /// it is only valid for the call; a replacement is a fresh payload, built
  /// in the simulation's arena by the injector.
  virtual PayloadPtr transform(sim::Time now, sim::ProcessId from,
                               sim::ProcessId to, const Payload& payload) = 0;
};

}  // namespace dynreg::net

// Per-run replay hooks for harness::run_experiment. Exactly one of the two
// pointers may be set; both null is a plain run:
//
//   record   capture the run's schedule into *record (the caller pre-fills
//            fingerprint/seed; recorded_hash is the caller's to stamp from
//            the returned report);
//   replay   drive the run from *replay instead of the rng (see
//            replay/replayer.h for the divergence semantics).
//
// replay::Session::open hands these out for the runs a record/replay
// session enrolls; the schedule searcher and the minimizer build their own
// for the thousands of nested replays they run.
#pragma once

#include "replay/trace.h"

namespace dynreg::replay {

struct RunHooks {
  Trace* record = nullptr;
  const Trace* replay = nullptr;
};

}  // namespace dynreg::replay

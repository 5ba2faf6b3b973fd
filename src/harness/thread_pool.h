// Seed-parallel execution of experiment replicas.
//
// The simulation core is single-threaded by design (one Simulation, one Rng,
// one EventQueue per run); parallelism lives entirely up here, where each
// index of a parallel_for owns a whole replica. Nothing below src/harness/
// ever sees a second thread.
#pragma once

#include <cstddef>
#include <functional>

namespace dynreg::harness {

/// Maps a user-facing --jobs value to a worker count: 0 means "one per
/// hardware thread" (falling back to 1 when the hardware is unknown).
std::size_t resolve_jobs(std::size_t jobs);

/// Type-erased per-index body for parallel_for. Exactly one is constructed
/// per parallel_for *call* — every worker captures only a reference to it —
/// so the type-erasure cost is O(sweeps), never per event.
// dynreg-lint: allow(std-function): one instance per parallel_for call, O(sweeps) not O(events)
using IndexBody = std::function<void(std::size_t)>;

/// Runs body(0) .. body(count-1) on up to `jobs` threads, the caller's
/// included (serially on the caller when jobs resolves to 1), and returns
/// when all have finished.
/// Workers take indices from a shared counter, so each index runs exactly
/// once: writing results into a pre-sized vector slot `i` from body(i) is
/// race-free and yields output independent of the worker count — the
/// determinism contract every caller relies on. Every body runs even if
/// another throws; the first exception is rethrown on the calling thread.
void parallel_for(std::size_t jobs, std::size_t count, const IndexBody& body);

}  // namespace dynreg::harness

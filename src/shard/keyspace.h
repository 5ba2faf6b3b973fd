// The sharded keyspace: a deterministic hash partition of keys over a fixed
// number of shards. Each shard is one independent instance of the paper's
// protocol — its own membership group, Client, and History, built by
// harness::run_experiment.
//
// The mapping is pure arithmetic (splitmix64 finalizer of the key, mod the
// shard count): no state, no rng, identical on every run and every worker —
// key routing is configuration, not a recorded decision.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/rng.h"

namespace dynreg::shard {

using Key = std::uint64_t;
using ShardId = std::uint32_t;

/// The owning shard of `key`: hash-partitioned so consecutive keys spread
/// across shards (a zipfian head still concentrates *traffic*, which is the
/// point of E20, but the assignment itself is unbiased).
inline ShardId shard_of(Key key, std::size_t shard_count) {
  return shard_count <= 1
             ? 0
             : static_cast<ShardId>(sim::mix64(key) % static_cast<std::uint64_t>(shard_count));
}

}  // namespace dynreg::shard

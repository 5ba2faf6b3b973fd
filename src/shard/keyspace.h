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

namespace dynreg::shard {

using Key = std::uint64_t;
using ShardId = std::uint32_t;

/// splitmix64 finalizer — the repo's standard mixing step, duplicated here
/// (like client.cpp does) because the shard layer must not depend on the
/// replay layer for a hash.
inline std::uint64_t mix64(std::uint64_t v) {
  std::uint64_t z = v + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The owning shard of `key`: hash-partitioned so consecutive keys spread
/// across shards (a zipfian head still concentrates *traffic*, which is the
/// point of E20, but the assignment itself is unbiased).
inline ShardId shard_of(Key key, std::size_t shard_count) {
  return shard_count <= 1
             ? 0
             : static_cast<ShardId>(mix64(key) % static_cast<std::uint64_t>(shard_count));
}

}  // namespace dynreg::shard

// The ShardedClient: keyed read(key)/write(key, v) routed to the owning
// shard's Client behind the existing Client/OpHandle seam — the protocols
// never learn that a keyspace exists. Reads go to a uniformly random active
// process of the owning shard (one shared-chooser rng draw, recorded in the
// picks stream like every target selection); writes funnel to the shard's
// designated writer and serialize through its session FIFO, which is
// exactly why aggregate write throughput scales with shard count.
#pragma once

#include <utility>
#include <vector>

#include "client/client.h"
#include "shard/keyspace.h"

namespace dynreg::shard {

/// Every shard's designated writer: process 0 of that shard's id space
/// (each shard numbers its members from 0), pinned like the paper's writer.
inline constexpr sim::ProcessId kShardWriter = 0;

class ShardedClient {
 public:
  /// `shards[s]` is shard s's Client (non-owning; at least one, each
  /// outliving the router).
  explicit ShardedClient(std::vector<client::Client*> shards)
      : shards_(std::move(shards)) {}

  ShardedClient(const ShardedClient&) = delete;
  ShardedClient& operator=(const ShardedClient&) = delete;

  /// Session read of `key` against a random active process of its owning
  /// shard. Invalid handle when the shard has no active member (caller
  /// backs off and retries — nothing was issued).
  client::OpHandle read(Key key, client::OpOptions options = {},
                        client::OpHook done = {});

  /// Session write to `key`'s owning shard through its designated writer;
  /// the written value is the shard's own sequence (1, 2, 3, ...). Invalid
  /// handle when the writer is not in the shard (nothing was issued).
  client::OpHandle write(Key key, client::OpOptions options = {},
                         client::OpHook done = {});

  [[nodiscard]] ShardId owner_of(Key key) const { return shard_of(key, shards_.size()); }

 private:
  std::vector<client::Client*> shards_;
};

}  // namespace dynreg::shard

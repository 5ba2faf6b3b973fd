#include "shard/router.h"

namespace dynreg::shard {

client::OpHandle ShardedClient::read(Key key, client::OpOptions options,
                                     client::OpHook done) {
  client::Client& shard = *shards_[owner_of(key)];
  const auto target = shard.random_active();
  if (!target) return client::OpHandle{};
  return shard.session_read(*target, std::move(options), std::move(done));
}

client::OpHandle ShardedClient::write(Key key, client::OpOptions options,
                                      client::OpHook done) {
  client::Client& shard = *shards_[owner_of(key)];
  if (shard.node(kShardWriter) == nullptr) return client::OpHandle{};
  return shard.session_write(kShardWriter, shard.next_value(), std::move(options),
                             std::move(done));
}

}  // namespace dynreg::shard

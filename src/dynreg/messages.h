// Wire messages of the three protocols. Type tags are part of the contract:
// adversarial delay models and the per-type traffic metrics match on them.
//
// Broadcast messages are built once in the simulation's arena and shared by
// every copy; the point-to-point replies and acks travel by value inside
// their delivery event (net::Network::send), which is why none of them may
// exceed 40 bytes.
//
// Every message type carries a cached interned PayloadTypeId (kTypeId) so
// per-delivery code — receiver dispatch, delay-model scripts, metrics —
// compares small integers instead of strings. The ids are interned in one
// fixed declaration order by src/dynreg/messages.cpp, so within a process
// each tag always maps to the same id.
#pragma once

#include <cstdint>

#include "dynreg/types.h"
#include "net/payload.h"

namespace dynreg::msg {

// --- synchronous protocol (Section 3) --------------------------------------

struct SyncWrite final : net::Payload {
  SyncWrite(Timestamp t, Value v) : ts(t), value(v) {}
  std::string_view type_name() const override { return "sync.write"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  Timestamp ts;
  Value value;
};

struct SyncInquiry final : net::Payload {
  std::string_view type_name() const override { return "sync.inquiry"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
};

struct SyncReply final : net::Payload {
  SyncReply(Timestamp t, Value v, bool hv) : ts(t), value(v), has_value(hv) {}
  std::string_view type_name() const override { return "sync.reply"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  Timestamp ts;
  Value value;
  bool has_value;
};

/// Anti-entropy rebroadcast; semantically a SyncWrite but tagged separately
/// so traffic accounting does not mix it into write cost.
struct SyncRefresh final : net::Payload {
  SyncRefresh(Timestamp t, Value v) : ts(t), value(v) {}
  std::string_view type_name() const override { return "sync.refresh"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  Timestamp ts;
  Value value;
};

// --- eventually synchronous protocol (Section 5) ---------------------------

struct EsRead final : net::Payload {
  explicit EsRead(std::uint64_t r) : rid(r) {}
  std::string_view type_name() const override { return "es.read"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  std::uint64_t rid;
};

/// The timestamp is stored flat (sn, writer) so the writer id and the flag
/// share one word: 40 bytes, which keeps the by-value delivery event inside
/// the scheduler's inline budget (net/network.h).
struct EsReply final : net::Payload {
  EsReply(std::uint64_t r, Timestamp t, Value v, bool hv)
      : rid(r), sn(t.sn), value(v), writer(t.writer), has_value(hv) {}
  std::string_view type_name() const override { return "es.reply"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  [[nodiscard]] Timestamp ts() const { return {sn, writer}; }
  std::uint64_t rid;
  std::uint64_t sn;
  Value value;
  std::uint32_t writer;
  bool has_value;
};

struct EsWrite final : net::Payload {
  EsWrite(std::uint64_t w, Timestamp t, Value v) : wid(w), ts(t), value(v) {}
  std::string_view type_name() const override { return "es.write"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  std::uint64_t wid;
  Timestamp ts;
  Value value;
};

struct EsAck final : net::Payload {
  explicit EsAck(std::uint64_t w) : wid(w) {}
  std::string_view type_name() const override { return "es.ack"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  std::uint64_t wid;
};

struct EsJoin final : net::Payload {
  explicit EsJoin(std::uint64_t j) : jid(j) {}
  std::string_view type_name() const override { return "es.join"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  std::uint64_t jid;
};

/// Flat timestamp for the same reason as EsReply: 40 bytes.
struct EsJoinReply final : net::Payload {
  EsJoinReply(std::uint64_t j, Timestamp t, Value v, bool hv)
      : jid(j), sn(t.sn), value(v), writer(t.writer), has_value(hv) {}
  std::string_view type_name() const override { return "es.join_reply"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  [[nodiscard]] Timestamp ts() const { return {sn, writer}; }
  std::uint64_t jid;
  std::uint64_t sn;
  Value value;
  std::uint32_t writer;
  bool has_value;
};

// --- static ABD baseline ----------------------------------------------------

struct AbdReadQuery final : net::Payload {
  explicit AbdReadQuery(std::uint64_t r) : rid(r) {}
  std::string_view type_name() const override { return "abd.read_query"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  std::uint64_t rid;
};

struct AbdReadReply final : net::Payload {
  AbdReadReply(std::uint64_t r, Timestamp t, Value v) : rid(r), ts(t), value(v) {}
  std::string_view type_name() const override { return "abd.read_reply"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  std::uint64_t rid;
  Timestamp ts;
  Value value;
};

struct AbdWriteback final : net::Payload {
  AbdWriteback(std::uint64_t r, Timestamp t, Value v) : rid(r), ts(t), value(v) {}
  std::string_view type_name() const override { return "abd.writeback"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  std::uint64_t rid;
  Timestamp ts;
  Value value;
};

struct AbdWritebackAck final : net::Payload {
  explicit AbdWritebackAck(std::uint64_t r) : rid(r) {}
  std::string_view type_name() const override { return "abd.writeback_ack"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  std::uint64_t rid;
};

struct AbdUpdate final : net::Payload {
  AbdUpdate(std::uint64_t w, Timestamp t, Value v) : wid(w), ts(t), value(v) {}
  std::string_view type_name() const override { return "abd.update"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  std::uint64_t wid;
  Timestamp ts;
  Value value;
};

struct AbdUpdateAck final : net::Payload {
  explicit AbdUpdateAck(std::uint64_t w) : wid(w) {}
  std::string_view type_name() const override { return "abd.update_ack"; }
  net::PayloadTypeId type_id() const override { return kTypeId; }
  static const net::PayloadTypeId kTypeId;
  std::uint64_t wid;
};

}  // namespace dynreg::msg

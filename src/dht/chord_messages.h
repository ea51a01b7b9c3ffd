// Wire message of the key-based routing service, and the node reference.
#ifndef FLOWERCDN_DHT_CHORD_MESSAGES_H_
#define FLOWERCDN_DHT_CHORD_MESSAGES_H_

#include <cassert>
#include <cstdint>
#include <memory>

#include "common/types.h"
#include "net/message.h"

namespace flower {

/// Reference to a DHT node: ring identifier + network address.
struct NodeRef {
  Key id = 0;
  PeerAddress addr = kInvalidAddress;

  bool valid() const { return addr != kInvalidAddress; }
  bool operator==(const NodeRef& o) const {
    return id == o.id && addr == o.addr;
  }
};

inline constexpr uint64_t kNodeRefBits = 64 + kAddressBits;

/// Envelope for recursively routed application payloads (paper Algorithm 1
/// runs at each hop; this is the msg it forwards). It accounts as its
/// payload's traffic class.
class RouteMsg : public Message {
 public:
  static constexpr MessageKind kKind = MessageKind::kRoute;

  RouteMsg(Key key_in, MessagePtr payload_in)
      : Message(kKind, (assert(payload_in != nullptr),
                        payload_in->traffic_class())),
        key(key_in),
        payload(std::move(payload_in)) {}

  /// Key + hop counter + encapsulated payload.
  uint64_t SizeBits() const override { return 64 + 16 + payload->SizeBits(); }

  Key key;
  MessagePtr payload;
  int hops = 0;
  SimTime first_sent = -1;  // stamped by the first router
};

}  // namespace flower

#endif  // FLOWERCDN_DHT_CHORD_MESSAGES_H_

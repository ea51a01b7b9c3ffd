// Wire messages of the Chord protocol and the key-based routing service.
#ifndef FLOWERCDN_DHT_CHORD_MESSAGES_H_
#define FLOWERCDN_DHT_CHORD_MESSAGES_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

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

/// find_successor request, routed recursively; the responsible node answers
/// the requester directly.
class FindSuccessorReq
    : public MessageOf<MessageKind::kFindSuccessorReq, TrafficClass::kDht> {
 public:
  FindSuccessorReq(Key target_in, PeerAddress requester_in,
                   uint64_t request_id_in)
      : target(target_in),
        requester(requester_in),
        request_id(request_id_in) {}

  uint64_t SizeBits() const override {
    return 64 + kAddressBits + 64;
  }

  Key target;
  PeerAddress requester;
  uint64_t request_id;
  int hops = 0;
};

class FindSuccessorResp
    : public MessageOf<MessageKind::kFindSuccessorResp, TrafficClass::kDht> {
 public:
  FindSuccessorResp(Key target_in, NodeRef result_in, uint64_t request_id_in)
      : target(target_in), result(result_in), request_id(request_id_in) {}

  uint64_t SizeBits() const override { return 64 + kNodeRefBits + 64; }

  Key target;
  NodeRef result;
  uint64_t request_id;
};

/// Stabilization: ask a node for its predecessor and successor list.
class GetNeighborsReq
    : public MessageOf<MessageKind::kGetNeighborsReq, TrafficClass::kDht> {
 public:
  uint64_t SizeBits() const override { return 0; }
};

class GetNeighborsResp
    : public MessageOf<MessageKind::kGetNeighborsResp, TrafficClass::kDht> {
 public:
  uint64_t SizeBits() const override {
    return kNodeRefBits * (1 + successors.size());
  }

  NodeRef predecessor;  // may be invalid
  std::vector<NodeRef> successors;
};

/// Chord notify(): "I believe I am your predecessor".
class NotifyMsg : public MessageOf<MessageKind::kNotify, TrafficClass::kDht> {
 public:
  explicit NotifyMsg(NodeRef self_in) : self(self_in) {}
  uint64_t SizeBits() const override { return kNodeRefBits; }

  NodeRef self;
};

/// Liveness probe used by check_predecessor.
class PingReq : public MessageOf<MessageKind::kPingReq, TrafficClass::kDht> {
 public:
  uint64_t SizeBits() const override { return 0; }
};

class PingResp : public MessageOf<MessageKind::kPingResp, TrafficClass::kDht> {
 public:
  uint64_t SizeBits() const override { return 0; }
};

}  // namespace flower

#endif  // FLOWERCDN_DHT_CHORD_MESSAGES_H_

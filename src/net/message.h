// Base message type for all simulated peer-to-peer communication.
#ifndef FLOWERCDN_NET_MESSAGE_H_
#define FLOWERCDN_NET_MESSAGE_H_

#include <cassert>
#include <cstdint>
#include <memory>

#include "common/types.h"

namespace flower {

/// Traffic accounting classes. The paper's "background traffic" metric
/// counts gossip + push (+ keepalive) traffic only; query routing and
/// object transfers are tracked separately.
enum class TrafficClass : uint8_t {
  kGossip = 0,
  kPush,
  kKeepalive,
  kQuery,
  kTransfer,
  kControl,
  kNumClasses,
};

inline const char* TrafficClassName(TrafficClass c) {
  switch (c) {
    case TrafficClass::kGossip: return "gossip";
    case TrafficClass::kPush: return "push";
    case TrafficClass::kKeepalive: return "keepalive";
    case TrafficClass::kQuery: return "query";
    case TrafficClass::kTransfer: return "transfer";
    case TrafficClass::kControl: return "control";
    default: return "?";
  }
}

/// Fixed per-message header overhead (transport + addressing), in bits.
inline constexpr uint64_t kMessageHeaderBits = 160;

/// Size of a peer address on the wire, in bits (IPv4 + port).
inline constexpr uint64_t kAddressBits = 48;

/// Size of an object identifier on the wire, in bits.
inline constexpr uint64_t kObjectIdBits = 64;

/// Size of an age field on the wire, in bits.
inline constexpr uint64_t kAgeBits = 16;

/// Identity of every wire message type. Receivers dispatch with a
/// `switch` on Message::type() and take the concrete type with
/// MessageCast<T>.
enum class MessageKind : uint8_t {
  // Chord substrate (dht/chord_messages.h).
  kRoute,
  // Flower-CDN protocols (core/flower_messages.h).
  kFlowerQuery,
  kServe,
  kNotFound,
  kWelcome,
  kGossipRequest,
  kGossipReply,
  kPush,
  kKeepalive,
  kKeepaliveAck,
  kLeave,
  kDirectorySummary,
  kDirectoryHandoff,
  kJoinDirectoryReq,
  kJoinDirectoryResp,
  /// A payload no protocol handles (network and routing probes in tests):
  /// every dispatch sends it to its default branch.
  kProbe,
};

class Message;
using MessagePtr = std::unique_ptr<Message>;

class Message {
 public:
  virtual ~Message() = default;

  /// Payload size in bits (excluding the fixed header, which the network
  /// adds when accounting).
  virtual uint64_t SizeBits() const = 0;

  /// Which message this is.
  MessageKind type() const { return kind_; }

  /// Accounting class of this message.
  TrafficClass traffic_class() const { return class_; }

  /// Filled in by the network on delivery.
  PeerAddress sender = kInvalidAddress;

 protected:
  Message(MessageKind kind, TrafficClass cls) : kind_(kind), class_(cls) {}

 private:
  // Both fit the padding after `sender`.
  MessageKind kind_;
  TrafficClass class_;
};

static_assert(sizeof(void*) != 8 || sizeof(Message) == 16,
              "a message's kind and class must fit its header's padding");

/// Base of a message type: names its kind and accounting class once.
template <MessageKind K, TrafficClass C>
class MessageOf : public Message {
 public:
  static constexpr MessageKind kKind = K;

 protected:
  MessageOf() : Message(K, C) {}
};

/// Hands over ownership of `msg` as its concrete type T. Callers switch on
/// msg->type() first; Debug builds assert that it is T's kind.
template <typename T>
std::unique_ptr<T> MessageCast(MessagePtr msg) {
  assert(msg != nullptr && msg->type() == T::kKind);
  return std::unique_ptr<T>(static_cast<T*>(msg.release()));
}

}  // namespace flower

#endif  // FLOWERCDN_NET_MESSAGE_H_

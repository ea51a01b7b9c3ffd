// Base message type for all simulated peer-to-peer communication.
#ifndef FLOWERCDN_NET_MESSAGE_H_
#define FLOWERCDN_NET_MESSAGE_H_

#include <cstdint>
#include <memory>

#include "common/types.h"

namespace flower {

/// Traffic accounting classes. The paper's "background traffic" metric
/// counts gossip + push (+ keepalive) traffic only; DHT maintenance, query
/// routing and object transfers are tracked separately.
enum class TrafficClass : int {
  kGossip = 0,
  kPush,
  kKeepalive,
  kDht,
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
    case TrafficClass::kDht: return "dht";
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

/// Size of a random-walk TTL field on the wire, in bits (HyParView
/// JOIN/SHUFFLE walks).
inline constexpr uint64_t kTtlBits = 8;

/// Size of a broadcast version counter on the wire, in bits (Plumtree
/// per-origin message ids).
inline constexpr uint64_t kVersionBits = 64;

class Message;
using MessagePtr = std::unique_ptr<Message>;

class Message {
 public:
  virtual ~Message() = default;

  /// Payload size in bits (excluding the fixed header, which the network
  /// adds when accounting).
  virtual uint64_t SizeBits() const = 0;

  /// Accounting class of this message.
  virtual TrafficClass traffic_class() const = 0;

  /// Deep copy, used by the fault injector to deliver a duplicated
  /// message. The default (nullptr) marks a message the network must not
  /// duplicate — types that own move-only payloads opt out by keeping it.
  virtual MessagePtr Duplicate() const { return nullptr; }

  /// Filled in by the network on delivery.
  PeerAddress sender = kInvalidAddress;
};

/// Implements Duplicate() via the type's copy constructor. Use on message
/// types whose members are all copyable.
#define FLOWER_DUPLICATE_AS_COPY(T) \
  MessagePtr Duplicate() const override { return std::make_unique<T>(*this); }

}  // namespace flower

#endif  // FLOWERCDN_NET_MESSAGE_H_

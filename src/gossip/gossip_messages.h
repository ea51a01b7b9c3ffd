// Wire messages of the scalable membership subsystem: HyParView partial
// view maintenance (JOIN / FORWARD-JOIN / NEIGHBOR / DISCONNECT /
// SHUFFLE) and Plumtree dissemination (eager GOSSIP, lazy IHAVE, GRAFT /
// PRUNE tree repair). All of them account as TrafficClass::kGossip so
// the paper's background-traffic metric stays honest across protocols.
#ifndef FLOWERCDN_GOSSIP_GOSSIP_MESSAGES_H_
#define FLOWERCDN_GOSSIP_GOSSIP_MESSAGES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bloom/summary.h"
#include "common/types.h"
#include "net/message.h"

namespace flower {

/// True for every HyParView and Plumtree message, so hosts can recognize
/// (and politely decline) membership chatter addressed to a peer that no
/// longer runs the protocol, e.g. a content peer promoted to directory.
inline bool IsHyParViewKind(MessageKind kind) {
  return kind >= MessageKind::kHpvJoin && kind <= MessageKind::kPtPrune;
}

/// Joiner -> contact node: admit me to the overlay's partial views.
class HpvJoinMsg
    : public MessageOf<MessageKind::kHpvJoin, TrafficClass::kGossip> {
 public:
  uint64_t SizeBits() const override { return kAddressBits; }
};

/// Contact -> active view: random walk advertising the joiner.
class HpvForwardJoinMsg
    : public MessageOf<MessageKind::kHpvForwardJoin, TrafficClass::kGossip> {
 public:
  HpvForwardJoinMsg(PeerAddress new_node_in, int ttl_in)
      : new_node(new_node_in), ttl(ttl_in) {}

  uint64_t SizeBits() const override { return kAddressBits + kTtlBits; }

  PeerAddress new_node;
  int ttl;
};

/// Sender asks the receiver to become an active-view neighbor. The
/// sender has already added the receiver optimistically; a low-priority
/// request may be rejected (HpvNeighborRejectMsg), a high-priority one
/// (sender's active view is empty) never is.
class HpvNeighborMsg
    : public MessageOf<MessageKind::kHpvNeighbor, TrafficClass::kGossip> {
 public:
  explicit HpvNeighborMsg(bool high_priority_in)
      : high_priority(high_priority_in) {}

  uint64_t SizeBits() const override { return kAddressBits + 8; }

  bool high_priority;
};

class HpvNeighborRejectMsg
    : public MessageOf<MessageKind::kHpvNeighborReject, TrafficClass::kGossip> {
 public:
  uint64_t SizeBits() const override { return kAddressBits; }
};

/// Eviction notice: the sender dropped the receiver from its active view
/// (the receiver demotes the sender to its passive view).
class HpvDisconnectMsg
    : public MessageOf<MessageKind::kHpvDisconnect, TrafficClass::kGossip> {
 public:
  uint64_t SizeBits() const override { return kAddressBits; }
};

/// Passive-view repair: random walk carrying a sample of the origin's
/// views; the accepting node answers the origin directly.
class HpvShuffleMsg
    : public MessageOf<MessageKind::kHpvShuffle, TrafficClass::kGossip> {
 public:
  HpvShuffleMsg(PeerAddress origin_in, int ttl_in)
      : origin(origin_in), ttl(ttl_in) {}

  uint64_t SizeBits() const override {
    return kAddressBits * (2 + sample.size()) + kTtlBits;
  }

  PeerAddress origin;
  int ttl;
  std::vector<PeerAddress> sample;
};

class HpvShuffleReplyMsg
    : public MessageOf<MessageKind::kHpvShuffleReply, TrafficClass::kGossip> {
 public:
  uint64_t SizeBits() const override {
    return kAddressBits * (1 + sample.size());
  }

  std::vector<PeerAddress> sample;
};

/// Plumtree eager push: one content-summary delta, identified by
/// (origin, version) with per-origin monotone versions.
class PtGossipMsg
    : public MessageOf<MessageKind::kPtGossip, TrafficClass::kGossip> {
 public:
  PtGossipMsg(PeerAddress origin_in, uint64_t version_in,
              std::shared_ptr<const ContentSummary> summary_in)
      : origin(origin_in),
        version(version_in),
        summary(std::move(summary_in)) {}

  uint64_t SizeBits() const override {
    return kAddressBits + kVersionBits +
           (summary ? summary->SizeBits() : 0);
  }

  PeerAddress origin;
  uint64_t version;
  std::shared_ptr<const ContentSummary> summary;
  /// True when sent in answer to a GRAFT (lazy-path recovery), so the
  /// eager-vs-lazy delivery split is measurable.
  bool retransmit = false;
};

/// Plumtree lazy announcement to non-tree neighbors.
class PtIHaveMsg
    : public MessageOf<MessageKind::kPtIHave, TrafficClass::kGossip> {
 public:
  PtIHaveMsg(PeerAddress origin_in, uint64_t version_in)
      : origin(origin_in), version(version_in) {}

  uint64_t SizeBits() const override { return kAddressBits + kVersionBits; }

  PeerAddress origin;
  uint64_t version;
};

/// Tree repair: the receiver becomes an eager neighbor and retransmits
/// the missing (origin, version).
class PtGraftMsg
    : public MessageOf<MessageKind::kPtGraft, TrafficClass::kGossip> {
 public:
  PtGraftMsg(PeerAddress origin_in, uint64_t version_in)
      : origin(origin_in), version(version_in) {}

  uint64_t SizeBits() const override { return kAddressBits + kVersionBits; }

  PeerAddress origin;
  uint64_t version;
};

/// Tree pruning after a duplicate delivery: the sender is demoted to a
/// lazy (IHAVE-only) neighbor.
class PtPruneMsg
    : public MessageOf<MessageKind::kPtPrune, TrafficClass::kGossip> {
 public:
  uint64_t SizeBits() const override { return kAddressBits; }
};

}  // namespace flower

#endif  // FLOWERCDN_GOSSIP_GOSSIP_MESSAGES_H_

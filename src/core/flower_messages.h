// Wire messages of the Flower-CDN protocols (queries, serving, gossip,
// push, keepalive, directory maintenance).
#ifndef FLOWERCDN_CORE_FLOWER_MESSAGES_H_
#define FLOWERCDN_CORE_FLOWER_MESSAGES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bloom/summary.h"
#include "common/types.h"
#include "dht/chord_messages.h"
#include "gossip/view.h"
#include "net/message.h"

namespace flower {

/// How a query message is currently travelling. One FlowerQueryMsg object
/// is forwarded through all stages; its submit_time survives so lookup
/// latency accumulates naturally.
enum class QueryStage : uint8_t {
  kViaDRing = 0,   // new client -> D-ring routing -> directory peer
  kToDirectory,    // content peer -> its own directory peer
  kPeerDirect,     // content peer -> content peer found via view summaries
  kDirRedirect,    // directory peer -> content peer holding the object
  kDirToDir,       // directory peer -> directory peer (via dir summaries)
  kToServer,       // anyone -> origin web server
};

class FlowerQueryMsg
    : public MessageOf<MessageKind::kFlowerQuery, TrafficClass::kQuery> {
 public:
  FlowerQueryMsg(WebsiteId website_in, uint64_t website_hash_in,
                 ObjectId object_in, PeerAddress client_in,
                 LocalityId client_loc_in, SimTime submit_time_in,
                 QueryStage stage_in)
      : website(website_in),
        website_hash(website_hash_in),
        object(object_in),
        client(client_in),
        client_loc(client_loc_in),
        submit_time(submit_time_in),
        stage(stage_in) {}

  uint64_t SizeBits() const override {
    // object id + website id + client address + locality + flags.
    return kObjectIdBits + 64 + kAddressBits + 8 + 16;
  }

  WebsiteId website;
  uint64_t website_hash;
  ObjectId object;
  PeerAddress client;
  LocalityId client_loc;
  SimTime submit_time;
  QueryStage stage;
  /// True if the client already belongs to a content overlay (controls
  /// optimistic admission and view bootstrapping).
  bool client_is_member = false;
  /// Directory-to-directory redirects so far (bounded; see Algorithm 3).
  int dir_redirects = 0;
  /// Total directory processing steps for this query (defense in depth:
  /// whatever combination of stale entries, reborn nodes and races occurs,
  /// a query past this budget goes straight to the origin server).
  int total_hops = 0;
  /// True when the latest directory redirect was backed by a directory
  /// *index entry*; false when it came from a summary (a promoted
  /// directory's inherited view, Sec 5.2). Drives the stale-redirect
  /// attribution split (Metrics::StaleSource) — part of the 16 flag bits
  /// already counted in SizeBits.
  bool claim_from_index = false;
};

/// Object delivery from a provider (content peer, directory peer or origin
/// server) to the requesting client.
class ServeMsg
    : public MessageOf<MessageKind::kServe, TrafficClass::kTransfer> {
 public:
  ServeMsg(ObjectId object_in, WebsiteId website_in, uint64_t website_hash_in,
           PeerAddress provider_in, bool from_server_in, SimTime submit_time_in,
           uint64_t object_size_bits_in)
      : object(object_in),
        website(website_in),
        website_hash(website_hash_in),
        provider(provider_in),
        from_server(from_server_in),
        submit_time(submit_time_in),
        object_size_bits(object_size_bits_in) {}

  uint64_t SizeBits() const override {
    uint64_t bits = object_size_bits + kObjectIdBits + kAddressBits + 8;
    for (const ViewEntry& e : view_subset) bits += e.WireBits();
    return bits;
  }

  ObjectId object;
  WebsiteId website;
  uint64_t website_hash;
  PeerAddress provider;
  bool from_server;
  SimTime submit_time;
  uint64_t object_size_bits;
  /// When a content peer serves a new client, it seeds the client's view
  /// with a subset of its own view (paper Sec 4.2).
  std::vector<ViewEntry> view_subset;
};

/// A peer asked directly for an object it does not hold (Bloom false
/// positive or stale directory entry). The requester falls back.
class NotFoundMsg
    : public MessageOf<MessageKind::kNotFound, TrafficClass::kQuery> {
 public:
  NotFoundMsg(ObjectId object_in, uint64_t website_hash_in, QueryStage stage_in)
      : object(object_in), website_hash(website_hash_in), stage(stage_in) {}

  uint64_t SizeBits() const override { return kObjectIdBits + 8; }

  ObjectId object;
  uint64_t website_hash;
  QueryStage stage;
  /// Query context echoed back so the fallback can continue (set when a
  /// directory redirect fails and the directory must re-process).
  std::unique_ptr<FlowerQueryMsg> query;
};

/// Directory -> new content peer: you are admitted to the overlay; here are
/// initial contacts from my directory index (addresses only).
class WelcomeMsg
    : public MessageOf<MessageKind::kWelcome, TrafficClass::kControl> {
 public:
  WelcomeMsg(uint64_t website_hash_in, LocalityId locality_in)
      : website_hash(website_hash_in), locality(locality_in) {}

  uint64_t SizeBits() const override {
    uint64_t bits = 64 + 8;
    for (const ViewEntry& e : contacts) bits += e.WireBits();
    return bits;
  }

  uint64_t website_hash;
  LocalityId locality;
  std::vector<ViewEntry> contacts;
};

/// The directory-peer entry every content peer maintains and gossips
/// (address + age, no summary).
struct DirectoryPointer {
  PeerAddress addr = kInvalidAddress;
  int age = 0;
  uint64_t WireBits() const { return kAddressBits + kAgeBits; }
  bool valid() const { return addr != kInvalidAddress; }
};

/// Gossip exchange (paper Algorithm 4): the initiator's current content
/// summary, a random view subset, and its directory pointer.
class GossipRequestMsg
    : public MessageOf<MessageKind::kGossipRequest, TrafficClass::kGossip> {
 public:
  uint64_t SizeBits() const override {
    uint64_t bits = own_summary ? own_summary->SizeBits() : 0;
    for (const ViewEntry& e : view_subset) bits += e.WireBits();
    return bits + dir_pointer.WireBits();
  }

  SummaryRef own_summary;
  std::vector<ViewEntry> view_subset;
  DirectoryPointer dir_pointer;
};

/// The passive side's answer (same contents).
class GossipReplyMsg
    : public MessageOf<MessageKind::kGossipReply, TrafficClass::kGossip> {
 public:
  uint64_t SizeBits() const override {
    uint64_t bits = own_summary ? own_summary->SizeBits() : 0;
    for (const ViewEntry& e : view_subset) bits += e.WireBits();
    return bits + dir_pointer.WireBits();
  }

  SummaryRef own_summary;
  std::vector<ViewEntry> view_subset;
  DirectoryPointer dir_pointer;
};

/// Content peer -> directory peer: delta of the content list since the last
/// push (paper Algorithm 5). Deletions listed separately (unused while the
/// experiments run without cache eviction, but part of the protocol).
///
/// The payload carries flyweight ObjectSlots (the sender and receiver share
/// the website's slot table); the wire still charges the full object-id
/// width per entry — the slot is an in-memory compression, not a protocol
/// change.
class PushMsg : public MessageOf<MessageKind::kPush, TrafficClass::kPush> {
 public:
  uint64_t SizeBits() const override {
    return (added.size() + removed.size()) * kObjectIdBits + 16;
  }

  std::vector<ObjectSlot> added;
  std::vector<ObjectSlot> removed;
};

/// Content peer -> directory peer liveness signal (paper Sec 5.1).
class KeepaliveMsg
    : public MessageOf<MessageKind::kKeepalive, TrafficClass::kKeepalive> {
 public:
  uint64_t SizeBits() const override { return want_ack ? 1 : 0; }

  /// Set when suspicion_keepalive_misses > 0: the directory answers with
  /// a KeepaliveAckMsg so a silently-crashed directory becomes visible
  /// as consecutive missing acks. The flag bit only hits the wire when
  /// set, so default runs account identical traffic.
  bool want_ack = false;
};

/// Directory peer -> content peer: keepalive acknowledgement (only sent
/// when the keepalive requested one).
class KeepaliveAckMsg
    : public MessageOf<MessageKind::kKeepaliveAck, TrafficClass::kKeepalive> {
 public:
  uint64_t SizeBits() const override { return 0; }
};

/// Content peer -> directory peer: graceful goodbye, so the entry can be
/// dropped without waiting for T_dead.
class LeaveMsg : public MessageOf<MessageKind::kLeave, TrafficClass::kControl> {
 public:
  uint64_t SizeBits() const override { return 0; }
};

/// Directory peer -> same-website neighbor directory: refreshed directory
/// summary (paper Sec 3.3 / 4.2.1; counted with push traffic).
class DirectorySummaryMsg
    : public MessageOf<MessageKind::kDirectorySummary, TrafficClass::kPush> {
 public:
  DirectorySummaryMsg(uint64_t website_hash_in, LocalityId from_loc_in,
                      Key from_dir_id_in, SummaryRef summary_in)
      : website_hash(website_hash_in),
        from_loc(from_loc_in),
        from_dir_id(from_dir_id_in),
        summary(std::move(summary_in)) {}

  uint64_t SizeBits() const override {
    return 64 + 8 + 64 + (summary ? summary->SizeBits() : 0);
  }

  uint64_t website_hash;
  LocalityId from_loc;
  Key from_dir_id;
  SummaryRef summary;
};

/// Voluntary directory leave: full directory state handed to the chosen
/// successor content peer (paper Sec 5.2).
class DirectoryHandoffMsg
    : public MessageOf<MessageKind::kDirectoryHandoff, TrafficClass::kControl> {
 public:
  /// `objects` carries flyweight ObjectSlots (see PushMsg); SizeBits
  /// still charges the full object-id width per claimed object.
  struct IndexEntryWire {
    PeerAddress addr;
    int age;
    SimTime joined_at;
    std::vector<ObjectSlot> objects;
  };

  uint64_t SizeBits() const override {
    uint64_t bits = 64;
    for (const auto& e : entries) {
      bits += kAddressBits + kAgeBits + e.objects.size() * kObjectIdBits;
    }
    for (const auto& s : summaries) {
      bits += 64 + (s.summary ? s.summary->SizeBits() : 0);
    }
    return bits;
  }

  Key dir_key = 0;
  std::vector<IndexEntryWire> entries;
  struct SummaryWire {
    Key dir_id;
    PeerAddress addr;
    SummaryRef summary;
  };
  std::vector<SummaryWire> summaries;
};

/// Content peer -> D-ring (routed): request to take over a failed
/// directory position (paper Sec 5.2).
class JoinDirectoryReq
    : public MessageOf<MessageKind::kJoinDirectoryReq, TrafficClass::kControl> {
 public:
  JoinDirectoryReq(Key dir_key_in, PeerAddress candidate_in)
      : dir_key(dir_key_in), candidate(candidate_in) {}

  uint64_t SizeBits() const override { return 64 + kAddressBits; }

  Key dir_key;
  PeerAddress candidate;
};

class JoinDirectoryResp
    : public MessageOf<MessageKind::kJoinDirectoryResp,
                       TrafficClass::kControl> {
 public:
  JoinDirectoryResp(Key dir_key_in, bool granted_in, NodeRef current_dir_in)
      : dir_key(dir_key_in),
        granted(granted_in),
        current_dir(current_dir_in) {}

  uint64_t SizeBits() const override { return 64 + 8 + kNodeRefBits; }

  Key dir_key;
  bool granted;
  NodeRef current_dir;  // valid when !granted
};

}  // namespace flower

#endif  // FLOWERCDN_CORE_FLOWER_MESSAGES_H_

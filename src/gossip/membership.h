// Pluggable membership + dissemination layer for content overlays.
//
// The paper's gossip (Algorithm 4) couples three concerns that scale
// differently: who a peer knows (membership), how content summaries reach
// the overlay (dissemination), and how dead contacts are repaired. The
// Membership interface separates them from ContentPeer so the overlay can
// run either the paper's protocol (flower_membership.h — full locality
// views, summary piggybacking on every exchange) or HyParView partial
// views with Plumtree summary broadcast (hyparview.h / plumtree.h), chosen
// by `gossip_protocol=flower|hyparview`.
//
// The host peer keeps everything protocol-independent: the query pipeline,
// the directory pointer, push deltas and keepalives. The membership owns
// the contact state and the overlay's background chatter.
#ifndef FLOWERCDN_GOSSIP_MEMBERSHIP_H_
#define FLOWERCDN_GOSSIP_MEMBERSHIP_H_

#include <memory>
#include <utility>
#include <vector>

#include "bloom/summary.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/flower_messages.h"
#include "gossip/view.h"
#include "net/message.h"
#include "sim/simulator.h"
#include "stats/metrics.h"

namespace flower {

/// What a membership implementation needs from its hosting peer. The RNG
/// is the host's own stream: for `gossip_protocol=flower` the extracted
/// implementation must replay the historical draw sequence exactly, so it
/// cannot own a generator of its own.
class MembershipHost {
 public:
  virtual ~MembershipHost() = default;

  virtual PeerAddress HostAddress() const = 0;
  virtual const SimConfig& HostConfig() const = 0;
  virtual Rng* HostRng() = 0;
  virtual Simulator* HostSim() = 0;
  virtual Metrics* HostMetrics() = 0;

  /// Sends `msg` from the host peer over the network.
  virtual void HostSend(PeerAddress to, MessagePtr msg) = 0;

  /// The host's current content summary (rebuilt lazily on change).
  virtual std::shared_ptr<const ContentSummary> HostSummary() = 0;

  /// Monotone count of the host's content changes (inserts + evictions)
  /// and its current content size — together the change-rate signal that
  /// gates Plumtree rebroadcasts (plumtree_broadcast_threshold).
  virtual uint64_t HostContentChanges() const = 0;
  virtual size_t HostContentSize() const = 0;

  /// The host's directory pointer (flower gossip piggybacks it).
  virtual const DirectoryPointer& HostDirPointer() const = 0;
  virtual void HostMergeDirPointer(const DirectoryPointer& incoming) = 0;
};

/// Per-peer membership + dissemination strategy for one content overlay.
class Membership {
 public:
  /// End-of-run introspection, folded across peers by FlowerSystem.
  struct Stats {
    size_t active_size = 0;     // flower: the full view
    size_t passive_size = 0;    // flower: none
    size_t summaries_known = 0; // contacts with a usable content summary
    uint64_t own_version = 0;   // plumtree broadcast version (flower: 0)
    /// Cached (origin, version) pairs for staleness measurement
    /// (plumtree only; empty for flower).
    std::vector<std::pair<PeerAddress, uint64_t>> cached_versions;
  };

  virtual ~Membership() = default;

  virtual const char* protocol() const = 0;

  /// Period of the host's gossip timer (flower: T_gossip; hyparview: the
  /// shuffle period).
  virtual SimTime RoundPeriod() const = 0;

  /// Initial contacts from the directory's welcome (may fire again on a
  /// re-welcome after directory replacement).
  virtual void OnWelcomeContacts(const std::vector<ViewEntry>& contacts) = 0;

  /// A serving peer seeded us with part of its view (ServeMsg subset).
  virtual void OnViewSeed(const std::vector<ViewEntry>& entries) = 0;

  /// One periodic round: flower's active gossip exchange, or a HyParView
  /// shuffle plus a Plumtree broadcast of a changed summary.
  virtual void PeriodicRound() = 0;

  /// Offers an incoming message; true if it was consumed.
  virtual bool ConsumeMessage(MessagePtr& msg) = 0;

  /// Offers an undeliverable notification of a `kind` message; true if it
  /// was consumed (the failed message belonged to this protocol).
  virtual bool OnUndeliverable(PeerAddress dest, MessageKind kind) = 0;

  /// Appends contacts whose summaries may contain `object`, in
  /// deterministic order, skipping `tried`. The host draws the pick.
  virtual void AppendHolderCandidates(ObjectId object,
                                      const std::vector<PeerAddress>& tried,
                                      std::vector<PeerAddress>* out) const = 0;

  /// A contact failed to answer a direct query: drop what we know.
  virtual void OnContactDead(PeerAddress addr) = 0;

  /// Entries seeding a brand-new client of this overlay (served by the
  /// host, paper Sec 4.2).
  virtual std::vector<ViewEntry> NewClientSeed(PeerAddress client) = 0;

  /// Snapshot as a flower View: a promoted directory inherits it to
  /// answer first queries from summaries (paper Sec 5.2).
  virtual View ExportView() const = 0;

  /// The underlying flower View; nullptr for other protocols.
  virtual const View* DebugView() const { return nullptr; }

  virtual Stats CollectStats() const = 0;

  /// Cancels internal timers; the host is failing, leaving or being
  /// promoted.
  virtual void Stop() {}
};

/// Builds the membership selected by `gossip_protocol`. The host must
/// outlive the returned object.
std::unique_ptr<Membership> MakeMembership(MembershipHost* host);

}  // namespace flower

#endif  // FLOWERCDN_GOSSIP_MEMBERSHIP_H_

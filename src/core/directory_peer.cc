#include "core/directory_peer.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "core/flower_system.h"

namespace flower {

DirectoryPeer::DirectoryPeer(FlowerContext* ctx, const Website* site,
                             LocalityId locality, uint32_t instance,
                             uint64_t rng_seed)
    : DRingNode(ctx, ctx->scheme->MakeDirectoryId(site->dring_hash, locality,
                                                  instance)),
      site_(site),
      locality_(locality),
      instance_(instance),
      rng_(rng_seed),
      dir_store_(DirectoryStore::FromConfig(*ctx->config)),
      content_(ContentStore::FromConfig(*ctx->config)),
      view_(ctx->config->view_size, ctx->config->view_age_limit) {
  set_app(this);
}

bool DirectoryPeer::Start(NodeId node) {
  Activate(node);
  if (!JoinStructural()) {
    ctx_->network->UnregisterPeer(this);
    return false;
  }
  alive_ = true;
  const SimConfig& cfg = *ctx_->config;
  SimTime offset = static_cast<SimTime>(rng_.UniformInt(0, cfg.gossip_period - 1));
  ctx_->sim->SchedulePeriodic(&age_timer_, offset, cfg.gossip_period,
                              [this]() { AgeTick(); });
  return true;
}

void DirectoryPeer::SeedFromPromotion(ContentStore content, View view) {
  content_ = std::move(content);
  view_ = std::move(view);
  new_ids_since_summary_ += content_.size();
  MaybeRefreshNeighborSummaries();
}

void DirectoryPeer::InstallHandoff(const DirectoryHandoffMsg& handoff) {
  for (const auto& e : handoff.entries) {
    if (e.addr == address()) continue;  // our own old membership entry
    DirectoryStore::Delta delta;
    if (dir_store_.Contains(e.addr)) {
      // Already admitted provisionally (keepalive/push raced the
      // handoff): the predecessor's age and join time are authoritative.
      dir_store_.SetEntryState(e.addr, e.age, e.joined_at);
    } else if (!dir_store_.Admit(e.addr, e.age, e.joined_at, &delta)) {
      ApplyDelta(delta);  // a bounded index may refuse part of a handoff
      continue;
    }
    dir_store_.Update(e.addr, e.objects, {}, &delta);
    ApplyDelta(delta);
  }
  for (const auto& s : handoff.summaries) {
    if (s.dir_id == id()) continue;
    DirectoryStore::Delta delta;
    dir_store_.PutSummary(
        s.dir_id,
        DirectoryStore::NeighborSummary{
            s.addr, ctx_->scheme->LocalityOf(s.dir_id), s.summary},
        &delta);
    ApplyDelta(delta);
  }
  // Neighbors already have a recent summary of this index (sent by our
  // predecessor); start counting changes from here.
  std::set<ObjectId> distinct;
  for (ObjectSlot slot : dir_store_.holder_slots()) {
    distinct.insert(site_->IdAtSlot(slot));
  }
  for (ObjectId o : content_.keys()) distinct.insert(o);
  ids_in_last_sent_summary_ = distinct.size();
  new_ids_since_summary_ = 0;
}

bool DirectoryPeer::OverlayFull() const {
  return static_cast<int>(dir_store_.size()) >=
         ctx_->config->max_content_overlay_size;
}

const std::vector<ObjectSlot>* DirectoryPeer::IndexObjectsOf(
    PeerAddress addr) const {
  const DirectoryStore::Entry* entry = dir_store_.Find(addr);
  return entry == nullptr ? nullptr : &entry->objects;
}

// --- Query processing (Algorithm 3) ------------------------------------------------

void DirectoryPeer::Deliver(Key key, MessagePtr payload,
                            const DeliveryInfo& info) {
  (void)info;
  switch (payload->type()) {
    case MessageKind::kFlowerQuery:
      DeliverQuery(key, MessageCast<FlowerQueryMsg>(std::move(payload)));
      return;
    case MessageKind::kJoinDirectoryReq:
      HandleJoinDirectoryReq(
          *MessageCast<JoinDirectoryReq>(std::move(payload)));
      return;
    default:
      FLOWER_LOG(Warn) << "directory " << id()
                       << " got unknown routed payload";
  }
}

void DirectoryPeer::DeliverQuery(Key key,
                                 std::unique_ptr<FlowerQueryMsg> query) {
  if (!ctx_->scheme->SameWebsite(key, id()) ||
      query->website_hash != site_->dring_hash) {
    // No directory of the right website is reachable: fall back to the
    // origin server of the queried website.
    int ws = ctx_->catalog->FindByDRingHash(query->website_hash);
    if (ws >= 0) {
      const Website& target = ctx_->catalog->site(static_cast<WebsiteId>(ws));
      query->stage = QueryStage::kToServer;
      ctx_->network->Send(this, target.server_addr, std::move(query));
    } else {
      FLOWER_LOG(Warn) << "query for unknown website hash dropped";
    }
    return;
  }
  // Scale-up (Sec 5.3): a full overlay hands new clients of its locality
  // to the next directory instance, whose overlay absorbs them.
  if (ctx_->scheme->extra_bits() > 0 && OverlayFull() &&
      !query->client_is_member && query->client_loc == locality_ &&
      !dir_store_.Contains(query->client)) {
    NodeRef next = successor();
    if (next.valid() && next.addr != address() &&
        ctx_->scheme->SameWebsite(next.id, id()) &&
        ctx_->scheme->LocalityOf(next.id) == locality_) {
      ctx_->network->Send(this, next.addr, std::move(query));
      return;
    }
  }
  MaybeAdmitClient(*query);
  ProcessQuery(std::move(query));
}

void DirectoryPeer::MaybeAdmitClient(const FlowerQueryMsg& query) {
  if (query.client == address()) return;
  if (query.client_loc != locality_) return;
  if (dir_store_.Contains(query.client)) {
    dir_store_.Touch(query.client);  // query contact doubles as liveness
    return;
  }
  if (OverlayFull()) return;  // Sec 6.1: no new clients past S_co
  // Optimistic admission (Sec 3.4): entry with the requested object, age 0.
  DirectoryStore::Delta delta;
  if (!dir_store_.Admit(query.client, 0, ctx_->sim->Now(), &delta)) {
    ApplyDelta(delta);
    return;  // bounded index refused the entry: treat like a full overlay
  }
  dir_store_.Update(query.client, {site_->SlotOf(query.object)}, {}, &delta);
  ApplyDelta(delta);
  if (!dir_store_.Contains(query.client)) return;  // evicted by its own grow
  MaybeRefreshNeighborSummaries();

  // Welcome the client with initial contacts from the directory index: a
  // draw over the ranks of the other members, read in place by skipping
  // the client's own rank. The contacts go out in ascending address order
  // (rank order, read back from a bitmap of the drawn ranks): all of age
  // 0, they are then already in the client view's order, so its merge
  // sorts nothing (View::Merge). The order changes no draw, no member of
  // the set and no message size.
  auto welcome = std::make_unique<WelcomeMsg>(site_->dring_hash, locality_);
  const size_t others = dir_store_.size() - 1;
  const size_t client_rank = dir_store_.RankOf(query.client);
  const size_t want = std::min<size_t>(
      others, static_cast<size_t>(ctx_->config->view_size));
  std::vector<uint64_t> drawn((others + 63) / 64);
  for (size_t idx : rng_.SampleIndices(others, want)) {
    drawn[idx / 64] |= uint64_t{1} << (idx % 64);
  }
  std::vector<ViewEntry>& contacts = welcome->contacts;
  contacts.reserve(want);
  for (size_t w = 0; w < drawn.size(); ++w) {
    for (uint64_t bits = drawn[w]; bits != 0; bits &= bits - 1) {
      const size_t idx = 64 * w + static_cast<size_t>(__builtin_ctzll(bits));
      ViewEntry ve;
      ve.addr = dir_store_.AddressAt(idx < client_rank ? idx : idx + 1);
      ve.age = 0;
      contacts.push_back(ve);
    }
  }
  ctx_->network->Send(this, query.client, std::move(welcome));
}

void DirectoryPeer::ProcessQuery(std::unique_ptr<FlowerQueryMsg> query) {
  ++queries_processed_;
  // Redirect budget: under churn, stale claims can chain (dead holders,
  // reborn nodes, inherited summaries). However the chain is formed, past
  // this budget the origin server resolves the query.
  if (++query->total_hops > 16) {
    RedirectToServer(std::move(query));
    return;
  }
  if (content_.Contains(query->object)) {
    ServeFromOwnContent(*query);
    return;
  }
  if (RedirectToIndexHolder(query)) return;
  const BloomProbe probe(query->object);
  if (RedirectViaViewSummaries(query, probe)) return;
  if (RedirectViaDirSummaries(query, probe)) return;
  if (query->stage == QueryStage::kDirToDir) {
    // A neighbor redirected here on the strength of our summary, but
    // nothing in the index or own content backs the claim anymore —
    // under a bounded index typically because the holders were evicted.
    ctx_->metrics->OnDirSummaryFallthrough();
  }
  RedirectToServer(std::move(query));
}

void DirectoryPeer::ServeFromOwnContent(const FlowerQueryMsg& query) {
  content_.Touch(query.object);
  ctx_->metrics->OnLookupResolved(query.submit_time, ctx_->sim->Now(),
                                  /*provider_is_server=*/false);
  auto serve = std::make_unique<ServeMsg>(
      query.object, query.website, query.website_hash, address(),
      /*from_server=*/false, query.submit_time,
      ctx_->config->object_size_bits);
  if (!query.client_is_member && query.client_loc == locality_ &&
      !view_.empty()) {
    serve->view_subset = view_.SelectSubset(ctx_->config->gossip_length,
                                            &rng_, query.client);
  }
  ctx_->network->Send(this, query.client, std::move(serve));
}

bool DirectoryPeer::RedirectToIndexHolder(
    std::unique_ptr<FlowerQueryMsg>& query) {
  const ObjectSlot slot = site_->SlotOf(query->object);
  // The store's inverted index lists holders ascending by address — the
  // same order (minus the querying client) a scan of the entries would
  // produce, so the draw below is byte-compatible with the O(entries)
  // scan this replaces.
  const std::vector<PeerAddress>* all = dir_store_.HoldersOf(slot);
  if (all == nullptr) return false;
  auto self_pos = std::lower_bound(all->begin(), all->end(), query->client);
  const bool client_holds = self_pos != all->end() && *self_pos == query->client;
  const size_t num_holders = all->size() - (client_holds ? 1 : 0);
  if (num_holders == 0) return false;
  size_t pick = rng_.Index(num_holders);
  if (client_holds &&
      pick >= static_cast<size_t>(self_pos - all->begin())) {
    ++pick;
  }
  PeerAddress target = (*all)[pick];
  dir_store_.Probe(target);  // answering a redirect is a usefulness signal
  query->stage = QueryStage::kDirRedirect;
  query->claim_from_index = true;
  ctx_->network->Send(this, target, std::move(query));
  return true;
}

bool DirectoryPeer::RedirectViaViewSummaries(
    std::unique_ptr<FlowerQueryMsg>& query, const BloomProbe& probe) {
  // Used by freshly promoted directories while the index rebuilds
  // (Sec 5.2: "answers first queries from its content summaries").
  std::vector<PeerAddress> candidates;
  for (const ViewEntry& e : view_.entries()) {
    if (!e.summary || e.addr == query->client || e.addr == address()) continue;
    if (dir_store_.Contains(e.addr)) continue;  // already tried via the index
    if (e.summary->MaybeContains(probe)) candidates.push_back(e.addr);
  }
  if (candidates.empty()) return false;
  PeerAddress target = candidates[rng_.Index(candidates.size())];
  query->stage = QueryStage::kDirRedirect;
  query->claim_from_index = false;  // the claim lives in a peer's summary
  ctx_->network->Send(this, target, std::move(query));
  return true;
}

bool DirectoryPeer::RedirectViaDirSummaries(
    std::unique_ptr<FlowerQueryMsg>& query, const BloomProbe& probe) {
  if (query->dir_redirects >= 2) return false;  // bound dir-to-dir forwarding
  std::vector<const DirectoryStore::NeighborSummary*> candidates;
  for (const auto& [dir_id, ns] : dir_store_.summaries()) {
    if (ns.addr == address() || !ns.summary) continue;
    if (ns.summary->MaybeContains(probe)) candidates.push_back(&ns);
  }
  if (candidates.empty()) return false;
  const DirectoryStore::NeighborSummary* target =
      candidates[rng_.Index(candidates.size())];
  ++query->dir_redirects;
  query->stage = QueryStage::kDirToDir;
  ctx_->network->Send(this, target->addr, std::move(query));
  return true;
}

void DirectoryPeer::RedirectToServer(std::unique_ptr<FlowerQueryMsg> query) {
  query->stage = QueryStage::kToServer;
  ctx_->network->Send(this, site_->server_addr, std::move(query));
}

// --- Index maintenance ----------------------------------------------------------------

void DirectoryPeer::ApplyDelta(const DirectoryStore::Delta& delta) {
  // Only new ids count toward a summary refresh: removals do not trigger
  // one (Sec 4.2.1: summaries tolerate slightly stale positives), and
  // counts rebuild at the next refresh.
  new_ids_since_summary_ += delta.new_slots.size();
  if (!delta.evicted.empty()) {
    ctx_->metrics->OnDirIndexEvictions(delta.evicted.size());
  }
}

void DirectoryPeer::AddObjectsToEntry(PeerAddress peer,
                                      const std::vector<ObjectSlot>& add,
                                      const std::vector<ObjectSlot>& remove) {
  if (!dir_store_.Contains(peer)) {
    // Unknown pusher: admit it if there is room (this happens while a
    // promoted directory rebuilds its index from pushes, Sec 5.2).
    if (OverlayFull()) return;
    DirectoryStore::Delta delta;
    bool admitted = dir_store_.Admit(peer, 0, ctx_->sim->Now(), &delta);
    ApplyDelta(delta);
    if (!admitted) return;
  }
  dir_store_.Touch(peer);  // a push is a liveness signal (age resets)
  DirectoryStore::Delta delta;
  dir_store_.Update(peer, add, remove, &delta);
  ApplyDelta(delta);
  MaybeRefreshNeighborSummaries();
}

void DirectoryPeer::RemoveEntry(PeerAddress peer) { dir_store_.Erase(peer); }

void DirectoryPeer::AgeTick() {
  if (!alive_) return;
  dir_store_.AgeAll(ctx_->config->dead_age_limit);
}

// --- Directory summaries ---------------------------------------------------------------

std::vector<NodeRef> DirectoryPeer::SameWebsiteNeighbors() const {
  // Paper Fig 4: a directory exchanges summaries with its two neighbors.
  constexpr size_t kNeighbors = 2;
  std::vector<NodeRef> out;
  auto push_unique = [&](const NodeRef& r) {
    if (out.size() >= kNeighbors) return;
    if (!r.valid() || r.addr == address()) return;
    if (!ctx_->scheme->SameWebsite(r.id, id())) return;
    for (const NodeRef& e : out) {
      if (e.addr == r.addr) return;
    }
    out.push_back(r);
  };
  // Direct ring neighbors first, then the successor list fills a slot that
  // a missing neighbor or one of another website left open.
  push_unique(predecessor());
  push_unique(successor());
  for (const NodeRef& r : SuccessorList()) push_unique(r);
  return out;
}

SummaryRef DirectoryPeer::BuildIndexSummary() {
  const SimConfig& cfg = *ctx_->config;
  return ContentSummary::Build(
      cfg.num_objects_per_website, cfg.summary_bits_per_object,
      cfg.summary_num_hashes, [this](BloomFilter& f) {
        // Bloom filters hash the original 64-bit ids, so summaries built
        // from the slot-encoded index stay bit-identical to pre-flyweight
        // builds.
        for (ObjectSlot slot : dir_store_.holder_slots()) {
          f.Add(site_->IdAtSlot(slot));
        }
        for (ObjectId o : content_.keys()) f.Add(o);
      });
}

void DirectoryPeer::MaybeRefreshNeighborSummaries() {
  if (new_ids_since_summary_ == 0) return;
  size_t total = ids_in_last_sent_summary_ + new_ids_since_summary_;
  double frac = static_cast<double>(new_ids_since_summary_) /
                static_cast<double>(total);
  if (frac < ctx_->config->directory_summary_threshold) return;
  auto summary = BuildIndexSummary();
  for (const NodeRef& n : SameWebsiteNeighbors()) {
    ctx_->network->Send(this, n.addr,
                        std::make_unique<DirectorySummaryMsg>(
                            site_->dring_hash, locality_, id(), summary));
  }
  ids_in_last_sent_summary_ = total;
  new_ids_since_summary_ = 0;
}

// --- Directory peer as a client ----------------------------------------------------------

void DirectoryPeer::RequestObject(ObjectId object) {
  if (!alive_) return;
  SimTime now = ctx_->sim->Now();
  // Local-cache hits never become queries (see ContentPeer::RequestObject).
  if (content_.Contains(object)) {
    content_.Touch(object);
    return;
  }
  if (!pending_own_.insert(object).second) return;  // already in flight
  ctx_->metrics->OnQuerySubmitted(now);
  auto q = std::make_unique<FlowerQueryMsg>(
      site_->index, site_->dring_hash, object, address(), locality_, now,
      QueryStage::kToDirectory);
  q->client_is_member = true;
  ProcessQuery(std::move(q));  // local lookup, no network hop
}

void DirectoryPeer::AddOwnObject(ObjectId object) {
  if (content_.Contains(object)) {
    content_.Touch(object);
    return;
  }
  std::vector<ObjectId> evicted;
  const bool inserted = content_.Insert(object, &evicted);
  if (!evicted.empty()) {
    // Own-content evictions leave the next rebuilt index summary; per
    // Sec 4.2.1 removals do not trigger an eager refresh (neighbors
    // tolerate stale positives and fall back on NotFound).
    ctx_->metrics->OnCacheEvictions(evicted.size());
  }
  if (!inserted) return;
  if (!dir_store_.AnyHolder(site_->SlotOf(object))) {
    ++new_ids_since_summary_;
    MaybeRefreshNeighborSummaries();
  }
}

void DirectoryPeer::HandleServe(std::unique_ptr<ServeMsg> serve) {
  SimTime now = ctx_->sim->Now();
  if (pending_own_.erase(serve->object) > 0) {
    SimTime distance = ctx_->network->Latency(serve->provider, address());
    const Topology& topo = ctx_->network->topology();
    Metrics::ProviderKind kind =
        topo.LocalityOf(serve->provider) == topo.LocalityOf(node())
            ? Metrics::ProviderKind::kLocalPeer
            : Metrics::ProviderKind::kRemotePeer;
    ctx_->metrics->OnServed(now, !serve->from_server, distance, kind);
  }
  AddOwnObject(serve->object);
}

// --- Replacement adjudication (Sec 5.2) -----------------------------------------------------

void DirectoryPeer::HandleJoinDirectoryReq(const JoinDirectoryReq& req) {
  ChordNode* current = ring()->Find(req.dir_key);
  bool granted = (current == nullptr);
  NodeRef current_ref =
      current == nullptr ? NodeRef{} : current->self_ref();
  ctx_->network->Send(this, req.candidate,
                      std::make_unique<JoinDirectoryResp>(
                          req.dir_key, granted, current_ref));
}

// --- Lifecycle -------------------------------------------------------------------------------

void DirectoryPeer::LeaveGracefully() {
  if (!alive_) return;
  // Choose the most stable content peer (earliest join) as the successor.
  PeerAddress chosen = kInvalidAddress;
  SimTime best = 0;
  for (const auto& [addr, entry] : dir_store_.entries()) {
    if (chosen == kInvalidAddress || entry.joined_at < best) {
      chosen = addr;
      best = entry.joined_at;
    }
  }
  if (chosen != kInvalidAddress) {
    auto handoff = std::make_unique<DirectoryHandoffMsg>();
    handoff->dir_key = id();
    for (const auto& [addr, entry] : dir_store_.entries()) {
      if (addr == chosen) continue;
      DirectoryHandoffMsg::IndexEntryWire wire;
      wire.addr = addr;
      wire.age = entry.age;
      wire.joined_at = entry.joined_at;
      wire.objects = entry.objects;
      handoff->entries.push_back(std::move(wire));
    }
    for (const auto& [dir_id, ns] : dir_store_.summaries()) {
      handoff->summaries.push_back(
          DirectoryHandoffMsg::SummaryWire{dir_id, ns.addr, ns.summary});
    }
    ctx_->network->Send(this, chosen, std::move(handoff));
  }
  FailAbruptly();
}

void DirectoryPeer::FailAbruptly() {
  if (!alive_) return;
  alive_ = false;
  age_timer_.Cancel();
  Fail();  // leaves the ring and the network
}

// --- Message dispatch ---------------------------------------------------------------------------

void DirectoryPeer::HandleMessage(MessagePtr msg) {
  const PeerAddress from = msg->sender;
  switch (msg->type()) {
    case MessageKind::kFlowerQuery: {
      auto query = MessageCast<FlowerQueryMsg>(std::move(msg));
      MaybeAdmitClient(*query);
      ProcessQuery(std::move(query));
      return;
    }
    case MessageKind::kPush: {
      auto push = MessageCast<PushMsg>(std::move(msg));
      AddObjectsToEntry(from, push->added, push->removed);
      return;
    }
    case MessageKind::kKeepalive: {
      auto ka = MessageCast<KeepaliveMsg>(std::move(msg));
      if (dir_store_.Contains(from)) {
        dir_store_.Touch(from);
      } else if (!OverlayFull()) {
        // A member we do not know (index rebuild after promotion).
        DirectoryStore::Delta delta;
        dir_store_.Admit(from, 0, ctx_->sim->Now(), &delta);
        ApplyDelta(delta);
      }
      if (ka->want_ack) {
        // Suspicion protocol (suspicion_keepalive_misses > 0): the ack is
        // the liveness signal a silently-crashed directory cannot fake.
        ctx_->network->Send(this, from, std::make_unique<KeepaliveAckMsg>());
      }
      return;
    }
    case MessageKind::kLeave:
      RemoveEntry(from);
      return;
    case MessageKind::kNotFound: {
      // A redirect target did not have the object (stale entry / false
      // positive): drop the claim and retry (Sec 5.1). The view entry must
      // go too — a promoted directory's inherited view can carry a summary
      // from a node's previous life (churned out and reborn with an empty
      // cache), and RedirectViaViewSummaries would otherwise pick the same
      // target forever.
      auto nf = MessageCast<NotFoundMsg>(std::move(msg));
      if (nf->query != nullptr) {
        AddObjectsToEntry(from, {}, {site_->SlotOf(nf->object)});
        view_.Remove(from);
        ++redirect_failures_;
        // Back under local processing: a kDirToDir stage left on the
        // bounced query would count a spurious dir_summary_fallthrough
        // when the retry ends at the server (same hazard as the
        // undeliverable path below).
        nf->query->stage = QueryStage::kToDirectory;
        ProcessQuery(std::move(nf->query));
      }
      return;
    }
    case MessageKind::kDirectorySummary: {
      auto ds = MessageCast<DirectorySummaryMsg>(std::move(msg));
      DirectoryStore::Delta delta;
      dir_store_.PutSummary(
          ds->from_dir_id,
          DirectoryStore::NeighborSummary{from, ds->from_loc, ds->summary},
          &delta);
      ApplyDelta(delta);
      return;
    }
    case MessageKind::kServe:
      HandleServe(MessageCast<ServeMsg>(std::move(msg)));
      return;
    case MessageKind::kGossipRequest: {
      // Directories answer gossip so overlay members see them alive and
      // learn the current directory address.
      auto gr = MessageCast<GossipRequestMsg>(std::move(msg));
      auto reply = std::make_unique<GossipReplyMsg>();
      if (!content_.empty()) {
        const SimConfig& cfg = *ctx_->config;
        reply->own_summary = ContentSummary::Build(
            cfg.num_objects_per_website, cfg.summary_bits_per_object,
            cfg.summary_num_hashes, [this](BloomFilter& f) {
              for (ObjectId o : content_.keys()) f.Add(o);
            });
      }
      reply->view_subset =
          view_.SelectSubset(ctx_->config->gossip_length, &rng_, from);
      reply->dir_pointer = DirectoryPointer{address(), 0};
      ctx_->network->Send(this, from, std::move(reply));
      ViewEntry fresh;
      fresh.addr = from;
      fresh.age = 0;
      fresh.summary = gr->own_summary;
      view_.Merge(gr->view_subset, fresh, address());
      return;
    }
    case MessageKind::kGossipReply:
    case MessageKind::kJoinDirectoryResp:
      // Late answers to the content peer this directory was promoted
      // from: it sent a gossip request or a replacement request, and a
      // granted replacement or a handoff promoted it before the answer
      // arrived. The state they would update went with that peer.
      return;
    default:
      // Everything else is DHT traffic.
      ChordNode::HandleMessage(std::move(msg));
  }
}

void DirectoryPeer::HandleUndeliverable(PeerAddress dest, MessagePtr msg) {
  switch (msg->type()) {
    case MessageKind::kFlowerQuery: {
      auto query = MessageCast<FlowerQueryMsg>(std::move(msg));
      switch (query->stage) {
        case QueryStage::kDirRedirect:
          // Redirection failure (Sec 5.1): drop the dead entry, retry.
          ++redirect_failures_;
          RemoveEntry(dest);
          view_.Remove(dest);
          ProcessQuery(std::move(query));
          return;
        case QueryStage::kDirToDir:
          ++redirect_failures_;
          dir_store_.EraseSummariesFrom(dest);
          // Back under local processing: the stage must not keep claiming
          // a neighbor redirected *to us*, or the retry would count a
          // spurious dir_summary_fallthrough when it ends at the server.
          query->stage = QueryStage::kToDirectory;
          ProcessQuery(std::move(query));
          return;
        case QueryStage::kToServer:
          FLOWER_LOG(Warn) << "origin server unreachable for website "
                           << query->website;
          return;
        default:
          return;
      }
    }
    case MessageKind::kWelcome:
    case MessageKind::kServe:
      RemoveEntry(dest);  // the client vanished before we reached it
      return;
    case MessageKind::kDirectorySummary:
      dir_store_.EraseSummariesFrom(dest);
      return;
    default:
      ChordNode::HandleUndeliverable(dest, std::move(msg));
  }
}

}  // namespace flower

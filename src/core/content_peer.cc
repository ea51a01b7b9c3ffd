#include "core/content_peer.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "core/flower_system.h"

namespace flower {

namespace {
/// Each query timeout doubles the wait of the one before it.
constexpr double kQueryBackoffBase = 2.0;
}  // namespace

ContentPeer::ContentPeer(FlowerContext* ctx, const Website* site,
                         LocalityId locality, uint64_t rng_seed)
    : ctx_(ctx),
      site_(site),
      locality_(locality),
      rng_(rng_seed),
      content_(ContentStore::FromConfig(*ctx->config)),
      view_(ctx->config->view_size, ctx->config->view_age_limit) {
  assert(site != nullptr);
}

void ContentPeer::Activate(NodeId node) {
  ctx_->network->RegisterPeer(this, node);
  alive_ = true;
}

// --- Query pipeline -----------------------------------------------------------

void ContentPeer::RequestObject(ObjectId object) {
  if (!alive_) return;
  SimTime now = ctx_->sim->Now();
  // Local-cache hits never become queries: only local misses reach the P2P
  // system (web-cache semantics; this matches the paper's measured
  // distributions, which contain no zero-latency mass).
  if (content_.Contains(object)) {
    content_.Touch(object);
    return;
  }
  // Already in flight: piggyback on its result.
  if (pending_.count(object) > 0) return;
  ++queries_started_;
  ctx_->metrics->OnQuerySubmitted(now);
  PendingQuery pq;
  pq.submit = now;
  pending_[object] = pq;
  ContinueQuery(object);
  // Armed after the first hop is sent; when query_timeout is 0 (default)
  // this schedules nothing, so the event-seq stream is untouched.
  auto it = pending_.find(object);
  if (it != pending_.end()) ArmQueryTimeout(object, &it->second);
}

// --- Timeout + retry (query_timeout > 0) -------------------------------------

void ContentPeer::ArmQueryTimeout(ObjectId object, PendingQuery* pq) {
  const SimConfig& cfg = *ctx_->config;
  if (cfg.query_timeout <= 0) return;
  // Exponential backoff: attempt k waits query_timeout * base^k.
  double scale = 1.0;
  for (int k = 0; k < pq->attempts; ++k) scale *= kQueryBackoffBase;
  SimTime wait =
      static_cast<SimTime>(static_cast<double>(cfg.query_timeout) * scale);
  auto on_timeout = [this, object]() { OnQueryTimeout(object); };
  static_assert(EventFn::FitsInline<decltype(on_timeout)>());
  pq->timeout = ctx_->sim->Schedule(wait, std::move(on_timeout));
}

void ContentPeer::OnQueryTimeout(ObjectId object) {
  if (!alive_) return;
  auto it = pending_.find(object);
  if (it == pending_.end()) return;
  PendingQuery* pq = &it->second;
  ctx_->metrics->OnQueryTimeout();
  const SimConfig& cfg = *ctx_->config;
  if (pq->attempts >= cfg.query_max_retries) {
    // Retries exhausted: the origin server always answers (it never
    // churns), so keep re-asking it under backoff until the serve gets
    // through even on a lossy link.
    ++pq->attempts;
    pq->stage = QueryStage::kToServer;
    ctx_->network->Send(this, site_->server_addr,
                        MakeQuery(object, pq->submit, QueryStage::kToServer));
  } else {
    ++pq->attempts;
    ctx_->metrics->OnQueryRetry();
    switch (pq->stage) {
      case QueryStage::kPeerDirect:
        // The contact never answered (lost message or silent crash):
        // evict it from the view and move to the next candidate.
        if (!pq->tried.empty()) view_.Remove(pq->tried.back());
        ContinueQuery(object);
        break;
      case QueryStage::kToDirectory:
        // The directory went dark without a bounce: start replacement and
        // route this query around it.
        OnDirectoryUnreachable();
        SendViaDRing(object, pq);
        break;
      case QueryStage::kViaDRing:
      case QueryStage::kToServer:
      default:
        SendViaDRing(object, pq);
        break;
    }
  }
  it = pending_.find(object);
  if (it != pending_.end()) ArmQueryTimeout(object, &it->second);
}

void ContentPeer::CancelPendingTimeouts() {
  for (auto& [object, pq] : pending_) pq.timeout.Cancel();
}

void ContentPeer::ContinueQuery(ObjectId object) {
  auto it = pending_.find(object);
  if (it == pending_.end()) return;
  PendingQuery* pq = &it->second;
  if (joined_) {
    if (TryPeerDirect(object, pq)) return;
    SendToDirectory(object, pq);
  } else {
    SendViaDRing(object, pq);
  }
}

std::unique_ptr<FlowerQueryMsg> ContentPeer::MakeQuery(
    ObjectId object, SimTime submit, QueryStage stage) const {
  auto q = std::make_unique<FlowerQueryMsg>(
      site_->index, site_->dring_hash, object, address(), locality_, submit,
      stage);
  q->client_is_member = joined_;
  return q;
}

bool ContentPeer::TryPeerDirect(ObjectId object, PendingQuery* pq) {
  // Candidates: view entries whose summary may contain the object and that
  // we have not asked yet this query.
  std::vector<PeerAddress> candidates;
  const BloomProbe probe(object);
  for (const ViewEntry& e : view_.entries()) {
    if (!e.summary || e.addr == address()) continue;
    if (!e.summary->MaybeContains(probe)) continue;
    if (std::find(pq->tried.begin(), pq->tried.end(), e.addr) !=
        pq->tried.end()) {
      continue;
    }
    candidates.push_back(e.addr);
  }
  if (candidates.empty()) return false;
  PeerAddress target = candidates[rng_.Index(candidates.size())];
  pq->tried.push_back(target);
  pq->stage = QueryStage::kPeerDirect;
  ctx_->network->Send(this, target,
                      MakeQuery(object, pq->submit, QueryStage::kPeerDirect));
  return true;
}

void ContentPeer::SendToDirectory(ObjectId object, PendingQuery* pq) {
  if (!dir_pointer_.valid() || dir_pointer_.addr == address()) {
    SendViaDRing(object, pq);
    return;
  }
  pq->stage = QueryStage::kToDirectory;
  ctx_->network->Send(
      this, dir_pointer_.addr,
      MakeQuery(object, pq->submit, QueryStage::kToDirectory));
}

void ContentPeer::SendViaDRing(ObjectId object, PendingQuery* pq) {
  PeerAddress bootstrap = ctx_->system->BootstrapDirectory(&rng_);
  if (bootstrap == kInvalidAddress) {
    // No D-ring at all: go straight to the origin server.
    pq->stage = QueryStage::kToServer;
    ctx_->network->Send(this, site_->server_addr,
                        MakeQuery(object, pq->submit, QueryStage::kToServer));
    return;
  }
  pq->stage = QueryStage::kViaDRing;
  Key key = ctx_->scheme->MakeKey(site_->dring_hash, locality_);
  auto route = std::make_unique<RouteMsg>(
      key, MakeQuery(object, pq->submit, QueryStage::kViaDRing));
  ctx_->network->Send(this, bootstrap, std::move(route));
}

// --- Serving other peers ---------------------------------------------------------

void ContentPeer::HandleIncomingQuery(std::unique_ptr<FlowerQueryMsg> query) {
  if (content_.Contains(query->object)) {
    content_.Touch(query->object);
    ctx_->metrics->OnLookupResolved(query->submit_time, ctx_->sim->Now(),
                                    /*provider_is_server=*/false);
    auto serve = std::make_unique<ServeMsg>(
        query->object, query->website, query->website_hash, address(),
        /*from_server=*/false, query->submit_time,
        ctx_->config->object_size_bits);
    if (!query->client_is_member && query->client_loc == locality_) {
      // Seed the new client's contacts from ours (paper Sec 4.2) — only
      // when the client joins *our* overlay; a cross-locality client gets
      // its contacts from its own directory instead, so views never leak
      // across overlays.
      serve->view_subset = view_.SelectSubset(ctx_->config->gossip_length,
                                              &rng_, query->client);
      ViewEntry self_entry;
      self_entry.addr = address();
      self_entry.age = 0;
      self_entry.summary = CurrentSummary();
      serve->view_subset.push_back(self_entry);
    }
    ctx_->network->Send(this, query->client, std::move(serve));
    return;
  }
  // We do not hold it: stale entry (possibly evicted since the claim was
  // gossiped/pushed) or Bloom false positive. Count the wasted hop, then
  // bounce the query back so the pipeline falls back instead of losing it.
  // Attribution by claim channel: a redirect backed by a directory index
  // entry lands in the dir-index bucket; everything else (peer-direct
  // hops, and directory redirects issued from an inherited view summary)
  // is peer-summary staleness — the cache-eviction channel.
  ctx_->metrics->OnStaleRedirect(query->claim_from_index
                                     ? Metrics::StaleSource::kDirIndex
                                     : Metrics::StaleSource::kPeerSummary);
  PeerAddress asker = query->sender;
  auto nf = std::make_unique<NotFoundMsg>(query->object, query->website_hash,
                                          query->stage);
  if (query->stage == QueryStage::kDirRedirect ||
      query->stage == QueryStage::kDirToDir) {
    nf->query = std::move(query);  // echo context so the directory retries
  }
  ctx_->network->Send(this, asker, std::move(nf));
}

void ContentPeer::HandleServe(std::unique_ptr<ServeMsg> serve) {
  SimTime now = ctx_->sim->Now();
  auto it = pending_.find(serve->object);
  if (it != pending_.end()) {
    SimTime distance = ctx_->network->Latency(serve->provider, address());
    const Topology& topo = ctx_->network->topology();
    Metrics::ProviderKind kind =
        topo.LocalityOf(serve->provider) == topo.LocalityOf(node())
            ? Metrics::ProviderKind::kLocalPeer
            : Metrics::ProviderKind::kRemotePeer;
    ctx_->metrics->OnServed(now, !serve->from_server, distance, kind);
    it->second.timeout.Cancel();
    pending_.erase(it);
  }
  // else: a retry raced the original answer — the query was already
  // counted served once; just keep the object.
  AddObject(serve->object);
  if (!serve->view_subset.empty()) {
    view_.Merge(serve->view_subset, std::nullopt, address());
  }
}

void ContentPeer::HandleWelcome(std::unique_ptr<WelcomeMsg> welcome) {
  view_.Merge(welcome->contacts, std::nullopt, address());
  MergeDirPointer(DirectoryPointer{welcome->sender, 0});
  if (!joined_) {
    joined_ = true;
    StartOverlayTimers();
  }
}

void ContentPeer::HandleNotFound(std::unique_ptr<NotFoundMsg> nf) {
  auto it = pending_.find(nf->object);
  if (it == pending_.end()) return;
  ContinueQuery(nf->object);  // try the next candidate / fall back
}

// --- Gossip (Algorithm 4) ----------------------------------------------------------

void ContentPeer::StartOverlayTimers() {
  const SimConfig& cfg = *ctx_->config;
  // Random phase so the overlay's gossip rounds are desynchronized.
  SimTime gossip_offset =
      static_cast<SimTime>(rng_.UniformInt(0, cfg.gossip_period - 1));
  ctx_->sim->SchedulePeriodic(&gossip_timer_, gossip_offset,
                              cfg.gossip_period,
                              [this]() { ActiveGossipRound(); });
  SimTime ka_offset =
      static_cast<SimTime>(rng_.UniformInt(0, cfg.keepalive_period - 1));
  ctx_->sim->SchedulePeriodic(&keepalive_timer_, ka_offset,
                              cfg.keepalive_period,
                              [this]() { SendKeepalive(); });
}

SummaryRef ContentPeer::CurrentSummary() {
  if (summary_dirty_ || !summary_) {
    const SimConfig& cfg = *ctx_->config;
    summary_ = ContentSummary::Build(
        cfg.num_objects_per_website, cfg.summary_bits_per_object,
        cfg.summary_num_hashes, [this](BloomFilter& f) {
          for (ObjectId o : content_.keys()) f.Add(o);
        });
    summary_dirty_ = false;
  }
  return summary_;
}

void ContentPeer::ActiveGossipRound() {
  if (!alive_ || !joined_) return;
  ++dir_pointer_.age;
  view_.IncrementAges();
  view_.DropOlderThan(ctx_->config->view_age_limit);
  const ViewEntry* oldest = view_.SelectOldest();
  if (oldest == nullptr) return;
  auto req = std::make_unique<GossipRequestMsg>();
  req->own_summary = CurrentSummary();
  req->view_subset =
      view_.SelectSubset(ctx_->config->gossip_length, &rng_, oldest->addr);
  req->dir_pointer = dir_pointer_;
  ctx_->network->Send(this, oldest->addr, std::move(req));
}

void ContentPeer::HandleGossipRequest(std::unique_ptr<GossipRequestMsg> req) {
  // Passive behavior: answer with our own summary + subset + dir pointer,
  // then merge what we received.
  auto reply = std::make_unique<GossipReplyMsg>();
  reply->own_summary = CurrentSummary();
  reply->view_subset =
      view_.SelectSubset(ctx_->config->gossip_length, &rng_, req->sender);
  reply->dir_pointer = dir_pointer_;
  ctx_->network->Send(this, req->sender, std::move(reply));

  ViewEntry fresh;
  fresh.addr = req->sender;
  fresh.age = 0;
  fresh.summary = req->own_summary;
  view_.Merge(req->view_subset, fresh, address());
  MergeDirPointer(req->dir_pointer);
}

void ContentPeer::HandleGossipReply(std::unique_ptr<GossipReplyMsg> reply) {
  ViewEntry fresh;
  fresh.addr = reply->sender;
  fresh.age = 0;
  fresh.summary = reply->own_summary;
  view_.Merge(reply->view_subset, fresh, address());
  MergeDirPointer(reply->dir_pointer);
}

void ContentPeer::MergeDirPointer(const DirectoryPointer& incoming) {
  if (!incoming.valid()) return;
  // Never adopt ourselves: gossip can still circulate pointers naming this
  // address from a directory that lived on this node in a previous life
  // (churn + node rebirth). Self-adoption would turn SendToDirectory into
  // a zero-latency query-to-self loop.
  if (incoming.addr == address()) return;
  if (!dir_pointer_.valid() || incoming.age < dir_pointer_.age) {
    bool changed = incoming.addr != dir_pointer_.addr;
    dir_pointer_ = incoming;
    if (changed && joined_ &&
        (!push_delta_.empty() || !push_removed_.empty())) {
      MaybePush();
    }
  }
}

// --- Push & keepalive (Algorithm 5 / Sec 5.1) ------------------------------------

void ContentPeer::AddObject(ObjectId object) {
  if (content_.Contains(object)) {
    content_.Touch(object);
    return;
  }
  std::vector<ObjectId> evicted;
  const bool inserted = content_.Insert(object, &evicted);
  if (!evicted.empty()) {
    // Evictions invalidate our gossiped summary and the directory's index
    // entry for us; both go stale gracefully — the summary rebuilds before
    // the next gossip exchange, and the deletions ride the next push delta
    // (PushMsg.removed). Until then misdirected queries fall back through
    // the query pipeline and are counted (OnStaleRedirect).
    ctx_->metrics->OnCacheEvictions(evicted.size());
    for (ObjectId victim : evicted) {
      ObjectSlot vslot = site_->SlotOf(victim);
      DropDelta(&push_delta_, vslot);  // never pushed: add+remove cancel
      push_removed_.push_back(vslot);
    }
    summary_dirty_ = true;
  }
  if (!inserted) {
    if (!evicted.empty()) MaybePush();
    return;  // not admitted: nothing new to summarize or push
  }
  // An evict-then-refetch within one push window must not ship the object
  // in both lists: the directory applies additions before removals, so the
  // pair would net out to a (wrong) removal of a held object.
  const ObjectSlot slot = site_->SlotOf(object);
  DropDelta(&push_removed_, slot);
  summary_dirty_ = true;
  push_delta_.push_back(slot);
  MaybePush();
}

void ContentPeer::DropDelta(std::vector<ObjectSlot>* delta, ObjectSlot slot) {
  delta->erase(std::remove(delta->begin(), delta->end(), slot),
               delta->end());
}

void ContentPeer::MaybePush() {
  if (!joined_ || !dir_pointer_.valid()) return;
  size_t changed = push_delta_.size() + push_removed_.size();
  if (changed == 0) return;
  double frac = static_cast<double>(changed) /
                static_cast<double>(std::max<size_t>(content_.size(), 1));
  if (frac < ctx_->config->push_threshold) return;
  auto push = std::make_unique<PushMsg>();
  push->added = push_delta_;
  push->removed = push_removed_;
  ctx_->network->Send(this, dir_pointer_.addr, std::move(push));
  dir_pointer_.age = 0;  // the push doubles as a liveness signal
  push_delta_.clear();
  push_removed_.clear();
}

void ContentPeer::SendKeepalive() {
  if (!alive_ || !joined_ || !dir_pointer_.valid()) return;
  const int suspicion = ctx_->config->suspicion_keepalive_misses;
  if (suspicion > 0 && keepalive_awaiting_ack_) {
    // The previous keepalive was never acknowledged. Bounce-based
    // detection handles a clean crash; this path catches the *silent*
    // one (and plain ack loss, which the threshold absorbs).
    ++keepalive_misses_;
    if (keepalive_misses_ >= suspicion) {
      keepalive_misses_ = 0;
      keepalive_awaiting_ack_ = false;
      ctx_->metrics->OnSuspicionConfirmed();
      OnDirectoryUnreachable();
      if (!dir_pointer_.valid()) return;
    }
  }
  auto ka = std::make_unique<KeepaliveMsg>();
  if (suspicion > 0) {
    ka->want_ack = true;
    keepalive_awaiting_ack_ = true;
  }
  ctx_->network->Send(this, dir_pointer_.addr, std::move(ka));
}

// --- Directory failure handling (Sec 5.2) ------------------------------------------

void ContentPeer::OnDirectoryUnreachable() {
  const SimTime now = ctx_->sim->Now();
  if (!joined_ || now < replacement_blocks_until_) return;
  Key dir_key = ctx_->scheme->MakeKey(site_->dring_hash, locality_);
  PeerAddress bootstrap = ctx_->system->BootstrapDirectory(&rng_);
  if (bootstrap == kInvalidAddress) return;
  replacement_blocks_until_ = now + ctx_->config->keepalive_period;
  auto req = std::make_unique<JoinDirectoryReq>(dir_key, address());
  auto route = std::make_unique<RouteMsg>(dir_key, std::move(req));
  ctx_->network->Send(this, bootstrap, std::move(route));
}

void ContentPeer::HandleJoinDirectoryResp(const JoinDirectoryResp& resp) {
  replacement_blocks_until_ = 0;
  // Suspicion state refers to the old directory; start clean with the
  // replacement.
  keepalive_misses_ = 0;
  keepalive_awaiting_ack_ = false;
  if (resp.granted) {
    PeerAddress result =
        ctx_->system->PromoteReplacement(this, resp.dir_key);
    if (result == address()) {
      // We are now the directory peer; this object is defunct. Do not touch
      // any member state past this point.
      return;
    }
    if (result != kInvalidAddress) {
      dir_pointer_ = DirectoryPointer{result, 0};
    }
  } else if (resp.current_dir.valid()) {
    dir_pointer_ = DirectoryPointer{resp.current_dir.addr, 0};
  }
  if (dir_pointer_.valid()) {
    // Re-introduce ourselves to the (new) directory with a full push.
    // Cache keys are ascending ObjectIds, so the slot list is ascending
    // too (slot order == id order within a site).
    auto push = std::make_unique<PushMsg>();
    push->added.reserve(content_.size());
    for (ObjectId o : content_.keys()) {
      push->added.push_back(site_->SlotOf(o));
    }
    ctx_->network->Send(this, dir_pointer_.addr, std::move(push));
    push_delta_.clear();
    push_removed_.clear();
  }
}

void ContentPeer::HandleDirectoryHandoff(
    std::unique_ptr<DirectoryHandoffMsg> handoff) {
  // The departing directory chose us as its successor (Sec 5.2).
  if (ctx_->system->PromoteWithHandoff(this, std::move(handoff))) {
    return;  // defunct: promoted in place
  }
}

// --- Lifecycle ---------------------------------------------------------------------

void ContentPeer::Leave() {
  if (!alive_) return;
  if (joined_ && dir_pointer_.valid()) {
    ctx_->network->Send(this, dir_pointer_.addr,
                        std::make_unique<LeaveMsg>());
  }
  Fail();
}

void ContentPeer::Fail() {
  if (!alive_) return;
  gossip_timer_.Cancel();
  keepalive_timer_.Cancel();
  CancelPendingTimeouts();
  alive_ = false;
  ctx_->network->UnregisterPeer(this);
}

ContentPeer::PromotionState ContentPeer::PrepareForPromotion() {
  gossip_timer_.Cancel();
  keepalive_timer_.Cancel();
  CancelPendingTimeouts();
  alive_ = false;
  ctx_->network->UnregisterPeer(this);
  return PromotionState{std::move(content_), std::move(view_)};
}

// --- Message dispatch -----------------------------------------------------------------

void ContentPeer::HandleMessage(MessagePtr msg) {
  if (!alive_) return;
  switch (msg->type()) {
    case MessageKind::kFlowerQuery:
      HandleIncomingQuery(MessageCast<FlowerQueryMsg>(std::move(msg)));
      return;
    case MessageKind::kServe:
      HandleServe(MessageCast<ServeMsg>(std::move(msg)));
      return;
    case MessageKind::kWelcome:
      HandleWelcome(MessageCast<WelcomeMsg>(std::move(msg)));
      return;
    case MessageKind::kNotFound:
      HandleNotFound(MessageCast<NotFoundMsg>(std::move(msg)));
      return;
    case MessageKind::kGossipRequest:
      HandleGossipRequest(MessageCast<GossipRequestMsg>(std::move(msg)));
      return;
    case MessageKind::kGossipReply:
      HandleGossipReply(MessageCast<GossipReplyMsg>(std::move(msg)));
      return;
    case MessageKind::kKeepaliveAck:
      keepalive_misses_ = 0;
      keepalive_awaiting_ack_ = false;
      return;
    case MessageKind::kJoinDirectoryResp:
      HandleJoinDirectoryResp(
          *MessageCast<JoinDirectoryResp>(std::move(msg)));
      return;
    case MessageKind::kDirectoryHandoff:
      HandleDirectoryHandoff(
          MessageCast<DirectoryHandoffMsg>(std::move(msg)));
      return;
    default:
      FLOWER_LOG(Debug) << "content peer " << address()
                        << " ignoring unknown message";
  }
}

void ContentPeer::HandleUndeliverable(PeerAddress dest, MessagePtr msg) {
  if (!alive_) return;
  switch (msg->type()) {
    case MessageKind::kGossipRequest:
    case MessageKind::kGossipReply:
      view_.Remove(dest);  // dead contact (Sec 5.4: treated like dead peers)
      return;
    case MessageKind::kPush: {
      // Re-queue the delta and start directory replacement. The cache may
      // have moved on while the push was in flight: only re-queue entries
      // that still describe the current content (and are not queued
      // already), so added/removed never contradict each other.
      auto push = MessageCast<PushMsg>(std::move(msg));
      for (auto it = push->added.rbegin(); it != push->added.rend(); ++it) {
        if (!content_.Contains(site_->IdAtSlot(*it))) continue;
        if (std::find(push_delta_.begin(), push_delta_.end(), *it) !=
            push_delta_.end()) {
          continue;
        }
        push_delta_.insert(push_delta_.begin(), *it);
      }
      for (auto it = push->removed.rbegin(); it != push->removed.rend();
           ++it) {
        if (content_.Contains(site_->IdAtSlot(*it))) continue;
        if (std::find(push_removed_.begin(), push_removed_.end(), *it) !=
            push_removed_.end()) {
          continue;
        }
        push_removed_.insert(push_removed_.begin(), *it);
      }
      OnDirectoryUnreachable();
      return;
    }
    case MessageKind::kKeepalive:
      // Bounce-detected failure: the suspicion state was about this (now
      // confirmed-dead) directory.
      keepalive_misses_ = 0;
      keepalive_awaiting_ack_ = false;
      OnDirectoryUnreachable();
      return;
    case MessageKind::kFlowerQuery: {
      auto q = MessageCast<FlowerQueryMsg>(std::move(msg));
      switch (q->stage) {
        case QueryStage::kPeerDirect:
          view_.Remove(dest);
          ContinueQuery(q->object);
          return;
        case QueryStage::kToDirectory: {
          OnDirectoryUnreachable();
          auto it = pending_.find(q->object);
          if (it != pending_.end()) SendViaDRing(q->object, &it->second);
          return;
        }
        case QueryStage::kViaDRing: {
          auto it = pending_.find(q->object);
          if (it != pending_.end()) SendViaDRing(q->object, &it->second);
          return;
        }
        default:
          FLOWER_LOG(Warn) << "query to stage " << static_cast<int>(q->stage)
                           << " undeliverable";
          return;
      }
    }
    case MessageKind::kRoute: {
      // Bootstrap entry point died before forwarding our routed message.
      // A bounced replacement request stops blocking a new attempt one
      // keepalive period after it started, like a lost one.
      auto route = MessageCast<RouteMsg>(std::move(msg));
      if (route->payload->type() != MessageKind::kFlowerQuery) return;
      const ObjectId object =
          MessageCast<FlowerQueryMsg>(std::move(route->payload))->object;
      auto it = pending_.find(object);
      if (it != pending_.end()) SendViaDRing(object, &it->second);
      return;
    }
    default:
      // Anything else is deliberately dropped; the base logs it in debug
      // builds so silently ignored bounces stay visible.
      Peer::HandleUndeliverable(dest, std::move(msg));
  }
}

}  // namespace flower

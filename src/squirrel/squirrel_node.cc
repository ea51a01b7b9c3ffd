#include "squirrel/squirrel_node.h"

#include <cassert>
#include <vector>

#include "common/logging.h"

namespace flower {

SquirrelNode::SquirrelNode(SquirrelContext* ctx, Key id, uint64_t rng_seed)
    : ChordNode(ctx->sim, ctx->network, ctx->ring, id),
      ctx_(ctx),
      rng_(rng_seed),
      cache_(ContentStore::FromConfig(*ctx->config)) {
  set_app(this);
}

SquirrelNode::~SquirrelNode() = default;

bool SquirrelNode::Start(NodeId node) {
  Activate(node);
  if (!JoinStructural()) {
    ctx_->network->UnregisterPeer(this);
    return false;
  }
  alive_ = true;
  return true;
}

void SquirrelNode::FailAbruptly() {
  if (!alive_) return;
  alive_ = false;
  Fail();
}

const Website* SquirrelNode::SiteOf(const FlowerQueryMsg& query) const {
  return &ctx_->catalog->site(query.website);
}

size_t SquirrelNode::HomeDirectorySize(ObjectId object) const {
  auto it = home_dirs_.find(object);
  return it == home_dirs_.end() ? 0 : it->second.size();
}

void SquirrelNode::RequestObject(const Website* site, ObjectId object) {
  if (!alive_) return;
  SimTime now = ctx_->sim->Now();
  // Local-cache hits never become queries (web-cache semantics; matches
  // the Squirrel paper, where only browser-cache misses reach the overlay).
  if (cache_.Contains(object)) {
    cache_.Touch(object);
    return;
  }
  if (!pending_own_.insert(object).second) return;  // already in flight
  ctx_->metrics->OnQuerySubmitted(now);
  auto q = std::make_unique<FlowerQueryMsg>(
      site->index, site->dring_hash, object, address(), /*client_loc=*/0,
      now, QueryStage::kViaDRing);
  // Squirrel: every query navigates the DHT to the object's home node.
  Route(space().Clamp(object), std::move(q));
}

void SquirrelNode::Deliver(Key key, MessagePtr payload,
                           const DeliveryInfo& info) {
  (void)key;
  (void)info;
  if (payload->type() != MessageKind::kFlowerQuery) {
    FLOWER_LOG(Warn) << "squirrel home got unknown routed payload";
    return;
  }
  ProcessAsHome(MessageCast<FlowerQueryMsg>(std::move(payload)));
}

void SquirrelNode::CacheObject(ObjectId object) {
  if (cache_.Contains(object)) {
    cache_.Touch(object);
    return;
  }
  std::vector<ObjectId> evicted;
  const bool inserted = cache_.Insert(object, &evicted);
  if (inserted) evicted_ids_.erase(object);
  // Evictions leave stale downloader pointers at the objects' home nodes;
  // those heal through the existing NotFound retry path when followed.
  if (!evicted.empty()) {
    ctx_->metrics->OnCacheEvictions(evicted.size());
    evicted_ids_.insert(evicted.begin(), evicted.end());
  }
}

void SquirrelNode::RememberDownloader(ObjectId object, PeerAddress peer) {
  auto& dir = home_dirs_[object];
  for (auto it = dir.begin(); it != dir.end(); ++it) {
    if (*it == peer) {
      dir.erase(it);
      break;
    }
  }
  dir.push_back(peer);
  while (dir.size() > static_cast<size_t>(ctx_->directory_capacity)) {
    dir.pop_front();
  }
}

void SquirrelNode::ServeClient(const FlowerQueryMsg& query) {
  ctx_->metrics->OnLookupResolved(query.submit_time, ctx_->sim->Now(),
                                  /*provider_is_server=*/false);
  auto serve = std::make_unique<ServeMsg>(
      query.object, query.website, query.website_hash, address(),
      /*from_server=*/false, query.submit_time,
      ctx_->config->object_size_bits);
  ctx_->network->Send(this, query.client, std::move(serve));
}

void SquirrelNode::ProcessAsHome(std::unique_ptr<FlowerQueryMsg> query) {
  const ObjectId object = query->object;

  if (cache_.Contains(object)) {
    // The home node happens to hold the object (it downloaded it itself).
    cache_.Touch(object);
    ServeClient(*query);
    return;
  }

  auto dit = home_dirs_.find(object);
  std::vector<PeerAddress> candidates;
  if (dit != home_dirs_.end()) {
    for (PeerAddress p : dit->second) {
      if (p != query->client) candidates.push_back(p);
    }
  }
  // Optimistically remember the requester as a (future) downloader.
  RememberDownloader(object, query->client);
  if (!candidates.empty()) {
    PeerAddress target = candidates[rng_.Index(candidates.size())];
    query->stage = QueryStage::kDirRedirect;
    ctx_->network->Send(this, target, std::move(query));
    return;
  }
  const Website* site = SiteOf(*query);
  query->stage = QueryStage::kToServer;
  ctx_->network->Send(this, site->server_addr, std::move(query));
}

void SquirrelNode::HandleServe(std::unique_ptr<ServeMsg> serve) {
  SimTime now = ctx_->sim->Now();
  const ObjectId object = serve->object;
  if (pending_own_.erase(object) > 0) {
    SimTime distance = ctx_->network->Latency(serve->provider, address());
    const Topology& topo = ctx_->network->topology();
    Metrics::ProviderKind kind =
        topo.LocalityOf(serve->provider) == topo.LocalityOf(node())
            ? Metrics::ProviderKind::kLocalPeer
            : Metrics::ProviderKind::kRemotePeer;
    ctx_->metrics->OnServed(now, !serve->from_server, distance, kind);
  }
  CacheObject(object);
}

void SquirrelNode::HandleMessage(MessagePtr msg) {
  const PeerAddress from = msg->sender;
  switch (msg->type()) {
    case MessageKind::kFlowerQuery: {
      // A home node redirected a requester to us.
      auto query = MessageCast<FlowerQueryMsg>(std::move(msg));
      if (cache_.Contains(query->object)) {
        cache_.Touch(query->object);
        ServeClient(*query);
        return;
      }
      // Count the wasted hop only when the pointer went stale because we
      // evicted the object. (Pointers can also miss because the home
      // remembers requesters optimistically — that pre-existing path
      // stays uncounted, keeping unbounded runs bit-identical with the
      // v1 baseline and the eviction-staleness metric exact.)
      if (evicted_ids_.count(query->object) > 0) {
        ctx_->metrics->OnStaleRedirect();
      }
      auto nf = std::make_unique<NotFoundMsg>(query->object,
                                              query->website_hash,
                                              query->stage);
      nf->query = std::move(query);
      ctx_->network->Send(this, from, std::move(nf));
      return;
    }
    case MessageKind::kNotFound: {
      // A pointer was stale: drop it and retry as home.
      auto nf = MessageCast<NotFoundMsg>(std::move(msg));
      if (nf->query != nullptr) {
        auto& dir = home_dirs_[nf->object];
        for (auto it = dir.begin(); it != dir.end(); ++it) {
          if (*it == from) {
            dir.erase(it);
            break;
          }
        }
        ProcessAsHome(std::move(nf->query));
      }
      return;
    }
    case MessageKind::kServe:
      HandleServe(MessageCast<ServeMsg>(std::move(msg)));
      return;
    default:
      ChordNode::HandleMessage(std::move(msg));
  }
}

void SquirrelNode::HandleUndeliverable(PeerAddress dest, MessagePtr msg) {
  if (msg->type() != MessageKind::kFlowerQuery) {
    ChordNode::HandleUndeliverable(dest, std::move(msg));
    return;
  }
  auto query = MessageCast<FlowerQueryMsg>(std::move(msg));
  if (query->stage == QueryStage::kDirRedirect) {
    // Dead downloader: purge the pointer and retry.
    auto& dir = home_dirs_[query->object];
    for (auto it = dir.begin(); it != dir.end(); ++it) {
      if (*it == dest) {
        dir.erase(it);
        break;
      }
    }
    ProcessAsHome(std::move(query));
    return;
  }
  if (query->stage == QueryStage::kToServer) {
    FLOWER_LOG(Warn) << "squirrel: origin server unreachable";
    return;
  }
  // A routed query bounced: retry routing from here.
  Route(space().Clamp(query->object), std::move(query));
}

}  // namespace flower

#include "stats/metrics.h"

#include <cassert>
#include <sstream>

namespace flower {

namespace {
// Histogram geometry: 25 ms buckets to 6 s for lookups (the paper's Fig 7b
// uses 150 ms granularity; Squirrel lookups reach seconds), 25 ms buckets
// to 1.5 s for transfer distances (max one-way latency is 500 ms).
constexpr double kLookupBucketMs = 25.0;
constexpr size_t kLookupBuckets = 240;
constexpr double kTransferBucketMs = 25.0;
constexpr size_t kTransferBuckets = 60;

SimConfig WindowOnlyConfig(SimTime window, size_t max_points) {
  SimConfig c;
  c.metrics_window = window;
  c.metrics_max_points = max_points;
  return c;
}
}  // namespace

Metrics::Metrics(const SimConfig& config)
    : window_(config.metrics_window),
      max_points_(config.metrics_max_points),
      hit_series_(config.metrics_window, config.metrics_max_points),
      lookup_series_(config.metrics_window, config.metrics_max_points),
      transfer_series_(config.metrics_window, config.metrics_max_points),
      lookup_hist_(kLookupBucketMs, kLookupBuckets),
      transfer_hist_(kTransferBucketMs, kTransferBuckets) {}

void Metrics::EnableLanes(int locality_lanes) {
  assert(lanes_.empty() && "lanes already enabled");
  assert(locality_lanes >= 1);
  const SimConfig config = WindowOnlyConfig(window_, max_points_);
  lanes_.reserve(static_cast<size_t>(locality_lanes) + 1);
  for (int l = 0; l < locality_lanes + 1; ++l) {
    lanes_.push_back(std::make_unique<Metrics>(config));
  }
}

void Metrics::OnLookupResolved(SimTime submit, SimTime now,
                               bool provider_is_server) {
  (void)provider_is_server;
  Metrics& m = Self();
  double latency = static_cast<double>(now - submit);
  m.lookup_hist_.Add(latency);
  m.lookup_series_.Add(now, latency);
}

void Metrics::OnServed(SimTime t, bool from_p2p, SimTime transfer_distance,
                       ProviderKind kind) {
  Metrics& m = Self();
  m.hit_series_.Add(t, from_p2p);
  double d = static_cast<double>(transfer_distance);
  m.transfer_hist_.Add(d);
  m.transfer_series_.Add(t, d);
  if (!from_p2p) kind = ProviderKind::kServer;
  ++m.serves_by_kind_[static_cast<size_t>(kind)];
}

uint64_t Metrics::queries_served() const {
  if (lanes_.empty()) return hit_series_.total_trials();
  uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->hit_series_.total_trials();
  return total;
}

void Metrics::MergeFrom(const Metrics& other) {
  hit_series_.Merge(other.hit_series_);
  lookup_series_.Merge(other.lookup_series_);
  transfer_series_.Merge(other.transfer_series_);
  lookup_hist_.Merge(other.lookup_hist_);
  transfer_hist_.Merge(other.transfer_hist_);
}

const Metrics& Metrics::Folded() const {
  if (lanes_.empty()) return *this;
  // Rebuild the scratch view from the lanes, in lane order — a fixed
  // summation order, so folded floating-point values are reproducible.
  // Reads happen at barriers and are rare (observers, end of run), so
  // refolding per read burst is cheap and needs no write-side dirty
  // tracking that lane threads would have to synchronize on. The scratch
  // object is reused in place so series references handed out by earlier
  // reads stay valid.
  if (folded_ == nullptr) {
    folded_ = std::make_unique<Metrics>(
        WindowOnlyConfig(window_, max_points_));
  } else {
    folded_->hit_series_.Clear();
    folded_->lookup_series_.Clear();
    folded_->transfer_series_.Clear();
    folded_->lookup_hist_.Clear();
    folded_->transfer_hist_.Clear();
  }
  for (const auto& lane : lanes_) folded_->MergeFrom(*lane);
  return *folded_;
}

double Metrics::BackgroundBps(const Network& network,
                              const std::vector<PeerAddress>& peers,
                              SimTime elapsed) {
  if (peers.empty() || elapsed <= 0) return 0.0;
  uint64_t bits = network.BackgroundBits(peers);
  double seconds = static_cast<double>(elapsed) / kSecond;
  return static_cast<double>(bits) / seconds /
         static_cast<double>(peers.size());
}

std::string Metrics::Summary(SimTime elapsed) const {
  std::ostringstream os;
  os << "queries=" << queries_submitted()
     << " served=" << queries_served()
     << " hit_ratio(final)=" << FinalHitRatio()
     << " hit_ratio(cum)=" << CumulativeHitRatio()
     << " lookup_mean=" << MeanLookupLatency() << "ms"
     << " transfer_mean=" << MeanTransferDistance() << "ms"
     << " server_hits=" << server_hits();
  if (cache_evictions() > 0 || stale_redirects() > 0) {
    os << " evictions=" << cache_evictions()
       << " stale_redirects=" << stale_redirects();
  }
  if (dir_index_evictions() > 0) {
    os << " dir_index_evictions=" << dir_index_evictions();
  }
  os << " elapsed=" << elapsed / kHour << "h";
  return os.str();
}

}  // namespace flower

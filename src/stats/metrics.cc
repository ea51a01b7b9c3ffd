#include "stats/metrics.h"

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
}  // namespace

Metrics::Metrics(const SimConfig& config)
    : hit_series_(config.metrics_window, config.metrics_max_points),
      lookup_series_(config.metrics_window, config.metrics_max_points),
      transfer_series_(config.metrics_window, config.metrics_max_points),
      lookup_hist_(kLookupBucketMs, kLookupBuckets),
      transfer_hist_(kTransferBucketMs, kTransferBuckets) {}

void Metrics::OnLookupResolved(SimTime submit, SimTime now,
                               bool provider_is_server) {
  (void)provider_is_server;
  double latency = static_cast<double>(now - submit);
  lookup_hist_.Add(latency);
  lookup_series_.Add(now, latency);
}

void Metrics::OnServed(SimTime t, bool from_p2p, SimTime transfer_distance,
                       ProviderKind kind) {
  hit_series_.Add(t, from_p2p);
  double d = static_cast<double>(transfer_distance);
  transfer_hist_.Add(d);
  transfer_series_.Add(t, d);
  if (!from_p2p) kind = ProviderKind::kServer;
  ++serves_by_kind_[static_cast<size_t>(kind)];
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

#include "api/result_sink.h"

#include <iomanip>
#include <limits>
#include <sstream>

#include "common/config.h"
#include "common/logging.h"

namespace flower {

std::string FormatRunSummary(const RunResult& r) {
  std::ostringstream os;
  os << r.system_name << ": hit_ratio=" << r.final_hit_ratio
     << " (cum " << r.cumulative_hit_ratio << ")"
     << " lookup=" << r.mean_lookup_ms << "ms"
     << " transfer=" << r.mean_transfer_ms << "ms"
     << " background=" << r.background_bps << "bps"
     << " peers=" << r.participants << " queries=" << r.queries_submitted
     << " server_hits=" << r.server_hits
     << " events=" << r.events_processed;
  if (r.cache_evictions > 0 || r.stale_redirects > 0) {
    os << " evictions=" << r.cache_evictions
       << " stale_redirects=" << r.stale_redirects;
  }
  if (r.dir_index_evictions > 0) {
    os << " dir_index_evictions=" << r.dir_index_evictions;
  }
  if (r.routes_dropped > 0) os << " route_drops=" << r.routes_dropped;
  // Fault-injection / hardening segment, only when some fault_* or
  // hardening knob is on: default summaries must stay byte-identical to
  // pre-fault-layer builds.
  if (r.faults_enabled) {
    os << " success=" << r.QuerySuccessRate()
       << " drops=" << r.injected_drops
       << " partition_drops=" << r.partition_drops
       << " silent=" << r.silent_crashes
       << " timeouts=" << r.queries_timed_out
       << " retries=" << r.query_retries
       << " suspicions=" << r.suspicions_confirmed;
  }
  return os.str();
}

// --- TextSummarySink ----------------------------------------------------------

TextSummarySink::TextSummarySink(std::FILE* out, std::string indent)
    : out_(out), indent_(std::move(indent)) {}

void TextSummarySink::Write(const SimConfig& config,
                            const RunResult& result) {
  (void)config;
  std::fprintf(out_, "%s%s\n", indent_.c_str(),
               FormatRunSummary(result).c_str());
}

// --- JSON ---------------------------------------------------------------------

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendSeries(std::ostringstream* os, const char* key,
                  const std::vector<double>& series) {
  *os << "\"" << key << "\":[";
  for (size_t i = 0; i < series.size(); ++i) {
    if (i > 0) *os << ",";
    *os << series[i];
  }
  *os << "]";
}

}  // namespace

JsonResultSink::JsonResultSink(std::string path) : path_(std::move(path)) {}

JsonResultSink::~JsonResultSink() { Flush(); }

void JsonResultSink::Write(const SimConfig& config, const RunResult& r) {
  std::ostringstream os;
  // Round-trip-exact doubles: trajectory files exist to detect drift
  // between runs, which default 6-digit precision would mask.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"system\":\"" << JsonEscape(r.system) << "\""
     << ",\"system_name\":\"" << JsonEscape(r.system_name) << "\""
     << ",\"label\":\"" << JsonEscape(r.label) << "\""
     << ",\"seed\":" << config.seed
     << ",\"config\":\"" << JsonEscape(config.ToString()) << "\""
     << ",\"duration_ms\":" << config.duration
     << ",\"metrics_window_ms\":" << config.metrics_window
     << ",\"queries_submitted\":" << r.queries_submitted
     << ",\"queries_served\":" << r.queries_served
     << ",\"server_hits\":" << r.server_hits
     << ",\"participants\":" << r.participants
     << ",\"final_hit_ratio\":" << r.final_hit_ratio
     << ",\"cumulative_hit_ratio\":" << r.cumulative_hit_ratio
     << ",\"mean_lookup_ms\":" << r.mean_lookup_ms
     << ",\"mean_transfer_ms\":" << r.mean_transfer_ms
     << ",\"background_bps\":" << r.background_bps
     << ",\"served_by_server\":" << r.served_by_server
     << ",\"served_by_local_peer\":" << r.served_by_local_peer
     << ",\"served_by_remote_peer\":" << r.served_by_remote_peer
     << ",\"cache_evictions\":" << r.cache_evictions
     << ",\"stale_redirects\":" << r.stale_redirects
     << ",\"stale_redirects_peer_summary\":" << r.stale_redirects_peer_summary
     << ",\"stale_redirects_dir_index\":" << r.stale_redirects_dir_index
     << ",\"dir_index_evictions\":" << r.dir_index_evictions
     << ",\"dir_summary_fallthroughs\":" << r.dir_summary_fallthroughs
     << ",\"churn_failures\":" << r.churn_failures
     << ",\"churn_leaves\":" << r.churn_leaves
     << ",\"directory_promotions\":" << r.directory_promotions
     // Deterministic engine counters only: wall_ms/events-per-second are
     // host-dependent and would break byte-identical trajectory diffs
     // (they live in RunResult; flower_perf measures them).
     << ",\"events_processed\":" << r.events_processed
     << ",\"events_cancelled\":" << r.events_cancelled;
  // Fault-injection / hardening record, emitted only when some fault_*
  // or hardening knob is on so default records stay byte-identical to
  // pre-fault-layer builds.
  if (r.faults_enabled) {
    os << ",\"query_success_rate\":" << r.QuerySuccessRate()
       << ",\"injected_drops\":" << r.injected_drops
       << ",\"partition_drops\":" << r.partition_drops
       << ",\"bounces_suppressed\":" << r.bounces_suppressed
       << ",\"silent_crashes\":" << r.silent_crashes
       << ",\"queries_timed_out\":" << r.queries_timed_out
       << ",\"query_retries\":" << r.query_retries
       << ",\"suspicions_confirmed\":" << r.suspicions_confirmed;
  }
  os << ",";
  AppendSeries(&os, "hit_ratio_by_window", r.hit_ratio_by_window);
  os << ",";
  AppendSeries(&os, "lookup_ms_by_window", r.lookup_ms_by_window);
  os << ",";
  AppendSeries(&os, "transfer_ms_by_window", r.transfer_ms_by_window);
  os << ",";
  AppendSeries(&os, "background_bps_by_window", r.background_bps_by_window);
  os << "}";
  records_.push_back(os.str());
  dirty_ = true;
}

void JsonResultSink::Flush() {
  if (!dirty_) return;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    FLOWER_LOG(Warn) << "cannot write JSON results to " << path_;
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records_.size(); ++i) {
    std::fprintf(f, "  %s%s\n", records_[i].c_str(),
                 i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  dirty_ = false;
}

}  // namespace flower

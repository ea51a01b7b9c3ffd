#include "common/config.h"

#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "bloom/bloom_filter.h"
#include "net/fault_injector.h"

namespace flower {

namespace {

bool ParseInt(const std::string& v, int64_t* out) {
  char* end = nullptr;
  long long x = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') return false;
  *out = x;
  return true;
}

bool ParseDouble(const std::string& v, double* out) {
  char* end = nullptr;
  double x = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') return false;
  *out = x;
  return true;
}

bool ParseBool(const std::string& v, bool* out) {
  if (v == "true" || v == "1" || v == "on") {
    *out = true;
    return true;
  }
  if (v == "false" || v == "0" || v == "off") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

// Accepts "500", "500ms", "30s", "30min", "24h".
bool ParseTimeString(const std::string& v, SimTime* out) {
  size_t i = 0;
  while (i < v.size() && (isdigit(v[i]) || v[i] == '-')) ++i;
  if (i == 0) return false;
  int64_t num;
  if (!ParseInt(v.substr(0, i), &num)) return false;
  std::string unit = v.substr(i);
  SimTime mult;
  if (unit.empty() || unit == "ms") {
    mult = kMillisecond;
  } else if (unit == "s") {
    mult = kSecond;
  } else if (unit == "min" || unit == "m") {
    mult = kMinute;
  } else if (unit == "h") {
    mult = kHour;
  } else {
    return false;
  }
  *out = num * mult;
  return true;
}

namespace {

bool ParseTime(const std::string& v, SimTime* out) {
  return ParseTimeString(v, out);
}

// Uniform fail-fast diagnostic for enum-valued keys: name the offending
// value and every accepted one, so a typo in a sweep script dies with
// the fix in the message.
Status UnknownEnumValue(const std::string& key, const std::string& value,
                        std::initializer_list<const char*> accepted) {
  std::string msg = "unknown " + key + ": \"" + value + "\" (accepted: ";
  bool first = true;
  for (const char* a : accepted) {
    if (!first) msg += ", ";
    msg += a;
    first = false;
  }
  msg += ")";
  return Status::InvalidArgument(msg);
}

}  // namespace

Status SimConfig::Apply(const std::string& key, const std::string& value) {
  int64_t i;
  double d;
  bool b;
  SimTime t;

#define INT_KEY(name, field)                                             \
  if (key == name) {                                                     \
    if (!ParseInt(value, &i))                                            \
      return Status::InvalidArgument("bad int for " + key);              \
    field = static_cast<decltype(field)>(i);                             \
    return Status::Ok();                                                 \
  }
// Integer keys with a floor: a value below `lo` has no meaning (or would
// crash the run), so it dies at parse time.
#define INT_KEY_AT_LEAST(name, field, lo)                                \
  if (key == name) {                                                     \
    if (!ParseInt(value, &i) || i < lo)                                  \
      return Status::InvalidArgument(key + " wants an integer >= " #lo); \
    field = static_cast<decltype(field)>(i);                             \
    return Status::Ok();                                                 \
  }
// Doubles with a closed range [lo, hi]. The test is written
// !(d >= lo && d <= hi) so that NaN, which compares false with
// everything, is rejected too.
#define DOUBLE_KEY_IN(name, field, lo, hi, wants)                        \
  if (key == name) {                                                     \
    if (!ParseDouble(value, &d) || !(d >= (lo) && d <= (hi)))            \
      return Status::InvalidArgument(key + " wants " wants);             \
    field = d;                                                           \
    return Status::Ok();                                                 \
  }
#define BOOL_KEY(name, field)                                            \
  if (key == name) {                                                     \
    if (!ParseBool(value, &b))                                           \
      return Status::InvalidArgument("bad bool for " + key);             \
    field = b;                                                           \
    return Status::Ok();                                                 \
  }
#define TIME_KEY(name, field)                                            \
  if (key == name) {                                                     \
    if (!ParseTime(value, &t))                                           \
      return Status::InvalidArgument("bad time for " + key);             \
    field = t;                                                           \
    return Status::Ok();                                                 \
  }
// Periods and windows: a time <= 0 would crash or hang the run.
#define POSITIVE_TIME_KEY(name, field)                                   \
  if (key == name) {                                                     \
    if (!ParseTime(value, &t) || t <= 0)                                 \
      return Status::InvalidArgument(key + " wants a time > 0");         \
    field = t;                                                           \
    return Status::Ok();                                                 \
  }

  INT_KEY("seed", seed)
  if (key == "system") {
    // Validated against the SystemRegistry when the Experiment is built
    // (the registry lives above this layer and is user-extensible).
    if (value.empty()) {
      return Status::InvalidArgument("system key must not be empty");
    }
    system = value;
    return Status::Ok();
  }
  INT_KEY_AT_LEAST("shards", shards, 1)
  INT_KEY("num_topology_nodes", num_topology_nodes)
  INT_KEY_AT_LEAST("num_localities", num_localities, 1)
  TIME_KEY("min_intra_latency", min_intra_latency)
  TIME_KEY("max_intra_latency", max_intra_latency)
  TIME_KEY("min_inter_latency", min_inter_latency)
  TIME_KEY("max_inter_latency", max_inter_latency)
  INT_KEY_AT_LEAST("num_websites", num_websites, 1)
  INT_KEY_AT_LEAST("num_active_websites", num_active_websites, 1)
  INT_KEY_AT_LEAST("num_objects_per_website", num_objects_per_website, 1)
  DOUBLE_KEY_IN("zipf_alpha", zipf_alpha, 0.0,
                std::numeric_limits<double>::max(), "a finite number >= 0")
  INT_KEY("object_size_bits", object_size_bits)
  if (key == "cache_policy" || key == "directory_index_policy") {
    if (value != "unbounded" && value != "lru") {
      return UnknownEnumValue(key, value, {"unbounded", "lru"});
    }
    (key == "cache_policy" ? cache_policy : directory_index_policy) = value;
    return Status::Ok();
  }
  INT_KEY("cache_capacity_bytes", cache_capacity_bytes)
  if (key == "directory_index_capacity") {
    if (value == "unbounded") {
      directory_index_capacity_bytes = 0;
      return Status::Ok();
    }
    if (!ParseInt(value, &i) || i < 0) {
      return Status::InvalidArgument(
          "directory_index_capacity wants a byte count or \"unbounded\"");
    }
    directory_index_capacity_bytes = static_cast<uint64_t>(i);
    return Status::Ok();
  }
  INT_KEY_AT_LEAST("max_content_overlay_size", max_content_overlay_size, 1)
  if (key == "queries_per_second") {
    // A rate <= 0 gives a negative or infinite mean gap, and the first
    // arrival lands in the past.
    if (!ParseDouble(value, &d) || !(d > 0)) {
      return Status::InvalidArgument("queries_per_second wants a rate > 0");
    }
    queries_per_second = d;
    return Status::Ok();
  }
  TIME_KEY("duration", duration)
  POSITIVE_TIME_KEY("gossip_period", gossip_period)
  INT_KEY("gossip_length", gossip_length)
  INT_KEY_AT_LEAST("view_size", view_size, 1)
  DOUBLE_KEY_IN("push_threshold", push_threshold, 0.0, 1.0,
                "a fraction in [0, 1]")
  POSITIVE_TIME_KEY("keepalive_period", keepalive_period)
  INT_KEY("dead_age_limit", dead_age_limit)
  INT_KEY("view_age_limit", view_age_limit)
  INT_KEY_AT_LEAST("summary_bits_per_object", summary_bits_per_object, 1)
  if (key == "summary_num_hashes") {
    // Bloom probes cache their bit positions inline, up to kMaxHashes.
    if (!ParseInt(value, &i) || i < 1 || i > BloomProbe::kMaxHashes) {
      return Status::InvalidArgument(
          "summary_num_hashes wants an integer in [1, " +
          std::to_string(BloomProbe::kMaxHashes) + "]");
    }
    summary_num_hashes = static_cast<int>(i);
    return Status::Ok();
  }
  DOUBLE_KEY_IN("directory_summary_threshold", directory_summary_threshold,
                0.0, 1.0, "a fraction in [0, 1]")
  INT_KEY("chord_id_bits", chord_id_bits)
  INT_KEY("locality_id_bits", locality_id_bits)
  INT_KEY("scaleup_extra_bits", scaleup_extra_bits)
  INT_KEY("scaleup_instances", scaleup_instances)
  BOOL_KEY("churn_enabled", churn_enabled)
  TIME_KEY("churn_mean_session", churn_mean_session)
  TIME_KEY("churn_mean_downtime", churn_mean_downtime)
  DOUBLE_KEY_IN("churn_fail_probability", churn_fail_probability, 0.0, 1.0,
                "a probability in [0, 1]")
  if (key == "fault_loss") {
    // Validate the spec here so a sweep typo dies at parse time, not
    // mid-run; the FaultPlan re-parses it when the injector is built.
    double p;
    Status s = ParseLossSpec(value, &p);
    if (!s.ok()) return s;
    fault_loss = value;
    return Status::Ok();
  }
  if (key == "fault_partitions") {
    std::vector<PartitionWindow> windows;
    Status s = ParsePartitionSpec(value, &windows);
    if (!s.ok()) return s;
    fault_partitions = value;
    return Status::Ok();
  }
  DOUBLE_KEY_IN("fault_silent_crash_probability",
                fault_silent_crash_probability, 0.0, 1.0,
                "a probability in [0, 1]")
  if (key == "query_timeout") {
    if (!ParseTime(value, &t) || t < 0) {
      return Status::InvalidArgument("query_timeout wants a time >= 0");
    }
    query_timeout = t;
    return Status::Ok();
  }
  INT_KEY_AT_LEAST("query_max_retries", query_max_retries, 0)
  INT_KEY_AT_LEAST("suspicion_keepalive_misses", suspicion_keepalive_misses,
                   0)
  POSITIVE_TIME_KEY("metrics_window", metrics_window)
  INT_KEY_AT_LEAST("metrics_max_points", metrics_max_points, 0)

#undef INT_KEY
#undef INT_KEY_AT_LEAST
#undef DOUBLE_KEY_IN
#undef BOOL_KEY
#undef TIME_KEY
#undef POSITIVE_TIME_KEY

  return Status::InvalidArgument("unknown config key: " + key);
}

Status SimConfig::ApplyArgs(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    std::string tok = argv[a];
    size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("expected key=value, got: " + tok);
    }
    Status s = Apply(tok.substr(0, eq), tok.substr(eq + 1));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

std::string SimConfig::ToString() const {
  std::ostringstream os;
  os << "seed=" << seed << " topology=" << num_topology_nodes
     << " localities=" << num_localities << " websites=" << num_websites
     << " active=" << num_active_websites
     << " objects/site=" << num_objects_per_website
     << " zipf=" << zipf_alpha << " S_co=" << max_content_overlay_size
     << " qps=" << queries_per_second
     << " duration=" << duration / kHour << "h"
     << " T_gossip=" << gossip_period / kMinute << "min"
     << " L_gossip=" << gossip_length << " V_gossip=" << view_size
     << " push_thr=" << push_threshold
     << " cache=" << cache_policy;
  if (cache_capacity_bytes > 0) {
    os << "/" << cache_capacity_bytes << "B";
  }
  // Non-default knobs only: the default line must stay byte-identical
  // across PRs so trajectory diffs catch real drift.
  if (directory_index_policy != "unbounded" ||
      directory_index_capacity_bytes > 0) {
    os << " dir_index=" << directory_index_policy;
    if (directory_index_capacity_bytes > 0) {
      os << "/" << directory_index_capacity_bytes << "B";
    }
  }
  if (system != "flower") os << " system=" << system;
  // The sharded engine is a different deterministic schedule, so the
  // config line must say so — but the shard count changes no output
  // byte, so it is not printed (a shards=2 and a shards=4 trajectory
  // must diff clean).
  if (shards > 1) os << " sharded=on";
  // Fault-injection / hardening knobs, non-default only (the default
  // line must not move).
  if (!fault_loss.empty()) os << " fault_loss=" << fault_loss;
  if (!fault_partitions.empty()) {
    os << " fault_partitions=" << fault_partitions;
  }
  if (fault_silent_crash_probability > 0) {
    os << " fault_silent=" << fault_silent_crash_probability;
  }
  if (query_timeout > 0) {
    os << " query_timeout=" << query_timeout << "ms/r=" << query_max_retries;
  }
  if (suspicion_keepalive_misses > 0) {
    os << " suspicion=" << suspicion_keepalive_misses;
  }
  if (metrics_max_points > 0) {
    os << " metrics_max_points=" << metrics_max_points;
  }
  return os.str();
}

}  // namespace flower

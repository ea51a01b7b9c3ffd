#include "common/config.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace flower {
namespace {

TEST(ConfigTest, DefaultsMatchPaperTable1) {
  SimConfig c;
  EXPECT_EQ(c.num_topology_nodes, 5000);
  EXPECT_EQ(c.num_localities, 6);
  EXPECT_EQ(c.num_websites, 100);
  EXPECT_EQ(c.max_content_overlay_size, 100);
  EXPECT_DOUBLE_EQ(c.queries_per_second, 6.0);
  EXPECT_EQ(c.gossip_period, 30 * kMinute);
  EXPECT_EQ(c.gossip_length, 10);
  EXPECT_EQ(c.view_size, 50);
  EXPECT_DOUBLE_EQ(c.push_threshold, 0.1);
  EXPECT_EQ(c.duration, 24 * kHour);
  EXPECT_EQ(c.summary_bits_per_object, 8);
}

TEST(ConfigTest, ApplyIntKey) {
  SimConfig c;
  EXPECT_TRUE(c.Apply("view_size", "70").ok());
  EXPECT_EQ(c.view_size, 70);
}

TEST(ConfigTest, ApplyDoubleKey) {
  SimConfig c;
  EXPECT_TRUE(c.Apply("zipf_alpha", "1.2").ok());
  EXPECT_DOUBLE_EQ(c.zipf_alpha, 1.2);
}

TEST(ConfigTest, ApplyBoolKey) {
  SimConfig c;
  EXPECT_TRUE(c.Apply("churn_enabled", "true").ok());
  EXPECT_TRUE(c.churn_enabled);
  EXPECT_TRUE(c.Apply("churn_enabled", "0").ok());
  EXPECT_FALSE(c.churn_enabled);
}

TEST(ConfigTest, TimeSuffixes) {
  SimConfig c;
  EXPECT_TRUE(c.Apply("gossip_period", "90s").ok());
  EXPECT_EQ(c.gossip_period, 90 * kSecond);
  EXPECT_TRUE(c.Apply("gossip_period", "5min").ok());
  EXPECT_EQ(c.gossip_period, 5 * kMinute);
  EXPECT_TRUE(c.Apply("duration", "2h").ok());
  EXPECT_EQ(c.duration, 2 * kHour);
  EXPECT_TRUE(c.Apply("min_intra_latency", "15ms").ok());
  EXPECT_EQ(c.min_intra_latency, 15);
  EXPECT_TRUE(c.Apply("max_intra_latency", "120").ok());
  EXPECT_EQ(c.max_intra_latency, 120);
}

TEST(ConfigTest, UnknownKeyRejected) {
  SimConfig c;
  Status s = c.Apply("no_such_key", "1");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Removed keys fail fast, even with values they used to accept.
  const std::pair<const char*, const char*> removed[] = {
      {"chord_oracle_maintenance", "false"},
      {"chord_stabilize_period", "30s"},
      {"chord_fix_fingers_period", "30s"},
      {"new_client_probability", "0.5"},
      {"gossip_protocol", "hyparview"},
      {"hyparview_active_size", "7"},
      {"hyparview_passive_size", "40"},
      {"hyparview_shuffle_period", "2min"},
      {"plumtree_ihave_timeout", "5s"},
      {"plumtree_summary_capacity", "128"},
      {"plumtree_broadcast_threshold", "0.25"},
      {"active_replication", "true"},
      {"replication_top_objects", "10"},
      {"replication_period", "1h"},
      {"replication_admission_headroom", "0.1"},
      {"fault_duplicate", "query:0.05"},
      {"fault_delay_jitter", "20ms"},
      {"fault_delay_spike", "500ms"},
      {"fault_delay_spike_probability", "0.01"},
      {"object_size_distribution", "pareto"},
      {"object_size_min_bytes", "2048"},
      {"object_size_max_bytes", "65536"},
      {"object_size_pareto_alpha", "1.2"},
      {"shard_executor", "serial"},
      {"chord_successor_list", "4"},
      {"directory_summary_neighbors", "2"},
      {"query_backoff_base", "2.0"},
      {"cache_cost_ewma_alpha", "0.3"},
      {"workload_trace", "run.trace"},
      {"shards", "2"},
      {"cache_policy", "lru"},
      {"directory_index_policy", "lru"},
  };
  for (const auto& [key, value] : removed) {
    s = c.Apply(key, value);
    EXPECT_FALSE(s.ok()) << key;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << key;
  }
}

TEST(ConfigTest, DoubleKeysRejectNaNAndOutOfRange) {
  // NaN compares false with every bound, so each range is tested as
  // !(lo <= d <= hi); a rejected value must leave the field alone.
  SimConfig c;
  const SimConfig defaults;
  const std::pair<const char*, double SimConfig::*> keys[] = {
      {"zipf_alpha", &SimConfig::zipf_alpha},
      {"push_threshold", &SimConfig::push_threshold},
      {"directory_summary_threshold", &SimConfig::directory_summary_threshold},
      {"churn_fail_probability", &SimConfig::churn_fail_probability},
      {"fault_silent_crash_probability",
       &SimConfig::fault_silent_crash_probability},
  };
  for (const auto& [key, field] : keys) {
    for (const char* bad : {"nan", "-nan", "-0.5", "inf"}) {
      Status s = c.Apply(key, bad);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << key << "=" << bad;
      EXPECT_EQ(c.*field, defaults.*field) << key << "=" << bad;
    }
    EXPECT_TRUE(c.Apply(key, "0").ok()) << key;
    EXPECT_TRUE(c.Apply(key, "1").ok()) << key;
    EXPECT_DOUBLE_EQ(c.*field, 1.0) << key;
  }
  // The fractions and probabilities stop at 1; zipf_alpha only at
  // infinity.
  for (const char* key :
       {"push_threshold", "directory_summary_threshold",
        "churn_fail_probability", "fault_silent_crash_probability"}) {
    EXPECT_FALSE(c.Apply(key, "1.5").ok()) << key;
  }
  EXPECT_TRUE(c.Apply("zipf_alpha", "1.5").ok());
}

TEST(ConfigTest, MalformedValueRejected) {
  SimConfig c;
  EXPECT_FALSE(c.Apply("view_size", "abc").ok());
  EXPECT_FALSE(c.Apply("zipf_alpha", "..").ok());
  EXPECT_FALSE(c.Apply("gossip_period", "5parsecs").ok());
  EXPECT_FALSE(c.Apply("churn_enabled", "maybe").ok());
}

TEST(ConfigTest, SummaryGeometryKeysValidated) {
  // Bloom probes cache positions for at most BloomProbe::kMaxHashes (16)
  // hashes, and a zero-bit filter has no positions at all.
  SimConfig c;
  EXPECT_TRUE(c.Apply("summary_num_hashes", "16").ok());
  EXPECT_EQ(c.summary_num_hashes, 16);
  EXPECT_TRUE(c.Apply("summary_bits_per_object", "1").ok());
  EXPECT_EQ(c.summary_bits_per_object, 1);
  EXPECT_FALSE(c.Apply("summary_num_hashes", "0").ok());
  EXPECT_FALSE(c.Apply("summary_num_hashes", "17").ok());
  EXPECT_FALSE(c.Apply("summary_num_hashes", "five").ok());
  EXPECT_FALSE(c.Apply("summary_bits_per_object", "0").ok());
  EXPECT_FALSE(c.Apply("summary_bits_per_object", "-8").ok());
  EXPECT_EQ(c.summary_num_hashes, 16);  // rejected values leave it alone
  EXPECT_EQ(c.summary_bits_per_object, 1);
}

TEST(ConfigTest, ValuesThatCrashOrHangARunRejected) {
  // Past Apply, each of these would segfault, abort with
  // std::length_error, fail an assert in a Debug build (a timer phase
  // drawn from an empty range, an arrival scheduled in the past), or
  // spin forever (metrics_window=0) once the run starts.
  const std::pair<const char*, const char*> bad[] = {
      {"num_localities", "0"},
      {"num_localities", "-1"},
      {"num_websites", "0"},
      {"num_active_websites", "0"},
      {"num_objects_per_website", "0"},
      {"max_content_overlay_size", "0"},
      {"metrics_window", "0"},
      {"metrics_window", "-1"},
      {"view_size", "0"},
      {"view_size", "-1"},
      {"gossip_period", "0"},
      {"gossip_period", "-30min"},
      {"keepalive_period", "0"},
      {"keepalive_period", "-1"},
      {"queries_per_second", "0"},
      {"queries_per_second", "-1"},
      {"queries_per_second", "nan"},
      // Unsigned fields: -1 would wrap to 2^64-1. Stores count whole
      // objects of object_size_bits / 8 bytes, which is 0 below 8 bits.
      {"object_size_bits", "-1"},
      {"object_size_bits", "0"},
      {"object_size_bits", "7"},
      {"cache_capacity_bytes", "-1"},
  };
  SimConfig c;
  for (const auto& [key, value] : bad) {
    Status s = c.Apply(key, value);
    EXPECT_FALSE(s.ok()) << key << "=" << value;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << key << "=" << value;
  }
  // The smallest legal values, and a tiny positive rate, still apply.
  for (const char* key :
       {"num_localities", "num_websites", "num_active_websites",
        "num_objects_per_website", "max_content_overlay_size",
        "metrics_window", "view_size", "gossip_period", "keepalive_period"}) {
    EXPECT_TRUE(c.Apply(key, "1").ok()) << key;
  }
  EXPECT_TRUE(c.Apply("queries_per_second", "0.001").ok());
  EXPECT_TRUE(c.Apply("object_size_bits", "8").ok());
  EXPECT_TRUE(c.Apply("cache_capacity_bytes", "0").ok());
  EXPECT_EQ(c.object_size_bits, 8u);
  EXPECT_EQ(c.view_size, 1);
  EXPECT_EQ(c.gossip_period, 1);
  EXPECT_EQ(c.keepalive_period, 1);
  EXPECT_DOUBLE_EQ(c.queries_per_second, 0.001);
}

TEST(ConfigTest, ApplyArgs) {
  SimConfig c;
  const char* argv[] = {"prog", "view_size=20", "gossip_period=1h"};
  EXPECT_TRUE(c.ApplyArgs(3, const_cast<char**>(argv)).ok());
  EXPECT_EQ(c.view_size, 20);
  EXPECT_EQ(c.gossip_period, kHour);
}

TEST(ConfigTest, ApplyArgsRejectsNonKeyValue) {
  SimConfig c;
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(c.ApplyArgs(2, const_cast<char**>(argv)).ok());
}

TEST(ConfigTest, DirectoryIndexKeys) {
  SimConfig c;
  EXPECT_EQ(c.directory_index_capacity_bytes, 0u);
  EXPECT_TRUE(c.Apply("directory_index_capacity", "8192").ok());
  EXPECT_EQ(c.directory_index_capacity_bytes, 8192u);
  EXPECT_FALSE(c.Apply("directory_index_capacity", "-5").ok());
  EXPECT_FALSE(c.Apply("directory_index_capacity", "lots").ok());
  EXPECT_EQ(c.directory_index_capacity_bytes, 8192u)
      << "bad values must not stick";
  // The capacity key also accepts the spelled-out default.
  EXPECT_TRUE(c.Apply("directory_index_capacity", "unbounded").ok());
  EXPECT_EQ(c.directory_index_capacity_bytes, 0u);
}

TEST(ConfigTest, CacheCostKey) {
  // Inserts are no longer priced, so cache_cost is an unknown key: every
  // value it used to accept is rejected and the config line never
  // mentions it.
  SimConfig c;
  for (const char* value : {"uniform", "distance", "hops"}) {
    Status s = c.Apply("cache_cost", value);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << value;
  }
  EXPECT_EQ(c.ToString().find("cache_cost"), std::string::npos);
}

TEST(ConfigTest, ToStringGuardsNonDefaultStorageKnobs) {
  SimConfig c;
  std::string defaults = c.ToString();
  EXPECT_EQ(defaults.find("dir_index"), std::string::npos)
      << "the default config line must stay byte-identical across PRs";
  EXPECT_NE(defaults.find(" cache=unbounded"), std::string::npos);
  // A capacity is printed with the policy it implies.
  ASSERT_TRUE(c.Apply("cache_capacity_bytes", "102400").ok());
  ASSERT_TRUE(c.Apply("directory_index_capacity", "4096").ok());
  std::string overridden = c.ToString();
  EXPECT_NE(overridden.find(" cache=lru/102400B"), std::string::npos);
  EXPECT_NE(overridden.find(" dir_index=lru/4096B"), std::string::npos);
}

TEST(ConfigTest, ToStringMentionsKeyParameters) {
  SimConfig c;
  std::string s = c.ToString();
  EXPECT_NE(s.find("T_gossip=30min"), std::string::npos);
  EXPECT_NE(s.find("V_gossip=50"), std::string::npos);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status nf = Status::NotFound("x");
  EXPECT_FALSE(nf.ok());
  EXPECT_EQ(nf.code(), StatusCode::kNotFound);
  EXPECT_EQ(nf.ToString(), "NOT_FOUND: x");
}

TEST(StatusTest, ResultHoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad(Status::Internal("boom"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace flower

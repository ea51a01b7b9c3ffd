// Tests for the deterministic fault-injection layer
// (src/net/fault_injector.h) and the protocol hardening it exercises:
//
//  - spec parsing (one loss probability, partition windows) and FaultPlan
//    validation, including the rejection of class-tagged loss specs and
//    node-list partition sides;
//  - Network-level injection semantics: loss, partition windows,
//    silent-crash bounce suppression;
//  - end-to-end: with query timeouts + retries a lossy network still
//    serves every query (availability 1.0, latency degrades instead),
//    without retries it does not; uniform loss makes the same draws at a
//    fixed seed; default configs leave no fault fingerprint in any sink.
#include "net/fault_injector.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/experiment.h"
#include "net/network.h"
#include "test_util.h"

namespace flower {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- Spec parsing -------------------------------------------------------------

TEST(FaultSpecTest, BareProbabilityAppliesToAllClasses) {
  double p = -1;
  ASSERT_TRUE(ParseLossSpec("0.25", &p).ok());
  EXPECT_DOUBLE_EQ(p, 0.25);
  ASSERT_TRUE(ParseLossSpec("", &p).ok());
  EXPECT_DOUBLE_EQ(p, 0.0);
}

TEST(FaultSpecTest, ClassPairsAndWildcardAreRejected) {
  double p;
  EXPECT_FALSE(ParseLossSpec("query:0.1,transfer:0.2", &p).ok());
  EXPECT_FALSE(ParseLossSpec("*:0.5,query:0", &p).ok());
  // The config key fails fast, before any run starts.
  SimConfig config;
  for (const char* spec : {"query:0.05", "*:0.1"}) {
    Status s = config.Apply("fault_loss", spec);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << spec;
  }
  EXPECT_TRUE(config.fault_loss.empty());
}

TEST(FaultSpecTest, RejectsUnknownClassAndBadProbability) {
  double p;
  EXPECT_FALSE(ParseLossSpec("bogus:0.1", &p).ok());
  EXPECT_FALSE(ParseLossSpec("query:1.5", &p).ok());
  EXPECT_FALSE(ParseLossSpec("1.5", &p).ok());
  EXPECT_FALSE(ParseLossSpec("-0.1", &p).ok());
  EXPECT_FALSE(ParseLossSpec("nan", &p).ok());
  EXPECT_FALSE(ParseLossSpec("nonsense", &p).ok());
}

TEST(FaultSpecTest, PartitionWindows) {
  std::vector<PartitionWindow> wins;
  ASSERT_TRUE(ParsePartitionSpec("0|1@10min-20min;2|*@1h-90min", &wins).ok());
  ASSERT_EQ(wins.size(), 2u);
  EXPECT_EQ(wins[0].a.kind, PartitionSide::Kind::kLocality);
  EXPECT_EQ(wins[0].a.locality, 0);
  EXPECT_EQ(wins[0].b.locality, 1);
  EXPECT_EQ(wins[0].start, 10 * kMinute);
  EXPECT_EQ(wins[0].end, 20 * kMinute);
  EXPECT_EQ(wins[1].a.kind, PartitionSide::Kind::kLocality);
  EXPECT_EQ(wins[1].a.locality, 2);
  EXPECT_EQ(wins[1].b.kind, PartitionSide::Kind::kRest);
  EXPECT_EQ(wins[1].start, kHour);
  EXPECT_EQ(wins[1].end, 90 * kMinute);
}

TEST(FaultSpecTest, RejectsMalformedPartitions) {
  std::vector<PartitionWindow> wins;
  EXPECT_FALSE(ParsePartitionSpec("0|1", &wins).ok());      // no window
  EXPECT_FALSE(ParsePartitionSpec("0@1h-2h", &wins).ok());  // one side
  EXPECT_FALSE(ParsePartitionSpec("*|*@1h-2h", &wins).ok());
  EXPECT_FALSE(ParsePartitionSpec("0|1@2h-1h", &wins).ok());  // inverted
  EXPECT_FALSE(ParsePartitionSpec("0|1@xyz-2h", &wins).ok());
  EXPECT_FALSE(ParsePartitionSpec("|1@1h-2h", &wins).ok());  // empty side
  // Sides are localities or "*"; node lists are not a side.
  EXPECT_FALSE(ParsePartitionSpec("n3,n7|*@1h-90min", &wins).ok());
  SimConfig config;
  Status s = config.Apply("fault_partitions", "n5|*@1h-2h");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(config.fault_partitions.empty());
}

TEST(FaultSpecTest, DefaultPlanIsInactive) {
  SimConfig config;
  Result<FaultPlan> plan = FaultPlan::FromConfig(config);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().Active());
}

TEST(FaultSpecTest, FromConfigValidates) {
  SimConfig config;
  config.fault_silent_crash_probability = 1.5;
  EXPECT_FALSE(FaultPlan::FromConfig(config).ok());
  config.fault_silent_crash_probability = std::nan("");
  EXPECT_FALSE(FaultPlan::FromConfig(config).ok());
  config.fault_silent_crash_probability = 0;
  config.fault_loss = "query:nope";
  EXPECT_FALSE(FaultPlan::FromConfig(config).ok());
}

// --- Network-level injection --------------------------------------------------

class PlainMsg : public Message {
 public:
  explicit PlainMsg(TrafficClass cls = TrafficClass::kControl)
      : Message(MessageKind::kProbe, cls) {}
  uint64_t SizeBits() const override { return 100; }
};

class CountingPeer : public Peer {
 public:
  void HandleMessage(MessagePtr msg) override {
    ++received;
    (void)msg;
  }
  void HandleUndeliverable(PeerAddress dest, MessagePtr msg) override {
    ++undeliverable;
    (void)dest;
    (void)msg;
  }
  int received = 0;
  int undeliverable = 0;
};

class FaultNetworkTest : public ::testing::Test {
 protected:
  FaultNetworkTest() {
    SimConfig config;
    config.num_topology_nodes = 50;
    config.num_localities = 2;
    config.locality_weights = {1, 1};
    world_ = std::make_unique<TestWorld>(config);
  }

  /// Builds the injector from `plan` and wires it into the world's
  /// network (the Experiment does the same through FaultPlan::FromConfig).
  FaultInjector* Attach(FaultPlan plan) {
    injector_ = std::make_unique<FaultInjector>(std::move(plan), world_->sim(),
                                                world_->topology());
    world_->network()->AttachFaultInjector(injector_.get());
    return injector_.get();
  }

  std::unique_ptr<TestWorld> world_;
  std::unique_ptr<FaultInjector> injector_;
};

TEST_F(FaultNetworkTest, CertainLossDropsEverything) {
  FaultPlan plan;
  plan.loss = 1.0;
  FaultInjector* inj = Attach(std::move(plan));

  CountingPeer a, b;
  world_->network()->RegisterPeer(&a, 0);
  world_->network()->RegisterPeer(&b, 1);
  for (int i = 0; i < 10; ++i) {
    world_->network()->Send(&a, b.address(), std::make_unique<PlainMsg>());
  }
  world_->sim()->Run();
  EXPECT_EQ(b.received, 0);
  EXPECT_EQ(inj->injected_drops(), 10u);
  // Loss is not an undeliverable: the sender hears nothing.
  EXPECT_EQ(a.undeliverable, 0);
}

TEST_F(FaultNetworkTest, LossAppliesToEveryClass) {
  FaultPlan plan;
  plan.loss = 1.0;
  FaultInjector* inj = Attach(std::move(plan));

  CountingPeer a, b;
  world_->network()->RegisterPeer(&a, 0);
  world_->network()->RegisterPeer(&b, 1);
  const int classes = static_cast<int>(TrafficClass::kNumClasses);
  for (int c = 0; c < classes; ++c) {
    world_->network()->Send(
        &a, b.address(),
        std::make_unique<PlainMsg>(static_cast<TrafficClass>(c)));
  }
  world_->sim()->Run();
  EXPECT_EQ(b.received, 0);
  EXPECT_EQ(inj->injected_drops(), static_cast<uint64_t>(classes));
}

TEST_F(FaultNetworkTest, PartitionWindowCutsBothDirectionsThenHeals) {
  FaultPlan plan;
  PartitionWindow w;
  w.a.kind = PartitionSide::Kind::kLocality;
  w.a.locality = 0;
  w.b.kind = PartitionSide::Kind::kRest;
  w.start = 0;
  w.end = 1000;
  plan.partitions.push_back(w);
  FaultInjector* inj = Attach(std::move(plan));

  // Node 0 and 1 land in different localities in this 2-locality world?
  // Find one node per locality explicitly.
  NodeId in0 = 0, in1 = 0;
  for (NodeId n = 0; n < 50; ++n) {
    if (world_->topology()->LocalityOf(n) == 0) in0 = n;
    if (world_->topology()->LocalityOf(n) == 1) in1 = n;
  }
  ASSERT_NE(world_->topology()->LocalityOf(in0),
            world_->topology()->LocalityOf(in1));

  CountingPeer a, b;
  world_->network()->RegisterPeer(&a, in0);
  world_->network()->RegisterPeer(&b, in1);

  EXPECT_TRUE(inj->CutsLink(a.address(), b.address(), 0));
  EXPECT_TRUE(inj->CutsLink(b.address(), a.address(), 500));
  EXPECT_FALSE(inj->CutsLink(a.address(), b.address(), 1000))
      << "window end is exclusive";

  world_->network()->Send(&a, b.address(), std::make_unique<PlainMsg>());
  world_->sim()->RunUntil(1000);  // advance past the window's end
  EXPECT_EQ(b.received, 0);
  EXPECT_EQ(inj->partition_drops(), 1u);

  // After the window the link heals.
  world_->network()->Send(&a, b.address(), std::make_unique<PlainMsg>());
  world_->sim()->Run();
  EXPECT_EQ(b.received, 1);
  EXPECT_EQ(inj->partition_drops(), 1u);
}

TEST_F(FaultNetworkTest, SilentCrashSuppressesTheBounce) {
  FaultPlan plan;
  plan.silent_crash_probability = 1.0;  // makes the injector active
  FaultInjector* inj = Attach(std::move(plan));

  CountingPeer a, b;
  world_->network()->RegisterPeer(&a, 0);
  world_->network()->RegisterPeer(&b, 1);

  // b crashes silently: in-flight and future messages vanish without the
  // undeliverable bounce the failure detectors rely on.
  world_->network()->Send(&a, b.address(), std::make_unique<PlainMsg>());
  inj->MarkSilent(b.address());
  world_->network()->UnregisterPeer(&b);
  world_->sim()->Run();
  EXPECT_EQ(b.received, 0);
  EXPECT_EQ(a.undeliverable, 0) << "silent crash must not bounce";
  EXPECT_EQ(inj->bounces_suppressed(), 1u);

  // Re-registration (rebirth) clears the mark: bounces resume for real
  // undeliverables.
  world_->network()->RegisterPeer(&b, 1);
  world_->network()->UnregisterPeer(&b);
  world_->network()->Send(&a, b.address(), std::make_unique<PlainMsg>());
  world_->sim()->Run();
  EXPECT_EQ(a.undeliverable, 1);
  EXPECT_EQ(inj->bounces_suppressed(), 1u);
}

TEST_F(FaultNetworkTest, InactiveInjectorChangesNothing) {
  FaultInjector* inj = Attach(FaultPlan{});
  EXPECT_FALSE(inj->active());

  CountingPeer a, b;
  world_->network()->RegisterPeer(&a, 0);
  world_->network()->RegisterPeer(&b, 1);
  world_->network()->Send(&a, b.address(), std::make_unique<PlainMsg>());
  world_->sim()->Run();
  EXPECT_EQ(b.received, 1);
  EXPECT_EQ(inj->injected_drops(), 0u);
}

// --- End to end: hardening under loss -----------------------------------------

SimConfig LossyConfig() {
  SimConfig c = TinyConfig();
  c.fault_loss = "0.05";
  c.query_timeout = 5 * kSecond;
  c.query_max_retries = 4;
  return c;
}

TEST(FaultEndToEndTest, RetriesKeepAvailabilityAtOneUnderLoss) {
  RunResult r = Experiment(LossyConfig()).Run();
  EXPECT_GT(r.injected_drops, 0u) << "5% loss must actually drop messages";
  EXPECT_GT(r.queries_timed_out, 0u);
  EXPECT_GT(r.query_retries, 0u);
  EXPECT_TRUE(r.faults_enabled);
  // The availability headline: every submitted query is eventually
  // served (latency degrades instead of the success rate).
  EXPECT_DOUBLE_EQ(r.QuerySuccessRate(), 1.0);
}

TEST(FaultEndToEndTest, UniformLossDrawsArePinned) {
  // A fixed-seed pin of the loss draws: one draw per send from the
  // sending lane's fault stream, so these counts move only when the
  // draw sequence does.
  SimConfig c = TinyConfig();
  c.fault_loss = "0.05";
  RunResult r = Experiment(c).Run();
  EXPECT_EQ(r.injected_drops, 868u);
  EXPECT_EQ(r.queries_served, 3324u);
}

TEST(FaultEndToEndTest, WithoutRetriesLossLosesQueries) {
  SimConfig c = LossyConfig();
  c.query_timeout = 0;  // hardening off
  RunResult r = Experiment(c).Run();
  EXPECT_GT(r.injected_drops, 0u);
  EXPECT_EQ(r.queries_timed_out, 0u);
  EXPECT_LT(r.QuerySuccessRate(), 1.0)
      << "without timeouts a lost query or reply is gone for good";
}

TEST(FaultEndToEndTest, SinksEmitFaultBlockOnlyWhenEnabled) {
  auto run_with_sinks = [](const SimConfig& config, const std::string& tag,
                           std::string* text_out, std::string* json_out) {
    const std::string text_path = ::testing::TempDir() + "fault_" + tag + ".txt";
    const std::string json_path =
        ::testing::TempDir() + "fault_" + tag + ".json";
    std::FILE* text_file = std::fopen(text_path.c_str(), "w");
    ASSERT_NE(text_file, nullptr);
    {
      TextSummarySink text(text_file);
      JsonResultSink json(json_path);
      Experiment(config).AddSink(&text).AddSink(&json).Run();
      json.Flush();
    }
    std::fclose(text_file);
    *text_out = ReadFile(text_path);
    *json_out = ReadFile(json_path);
  };

  std::string text, json;
  run_with_sinks(TinyConfig(), "off", &text, &json);
  EXPECT_EQ(text.find("success="), std::string::npos)
      << "default runs must stay byte-identical to pre-fault-layer builds";
  EXPECT_EQ(json.find("query_success_rate"), std::string::npos);
  EXPECT_EQ(json.find("injected_drops"), std::string::npos);

  run_with_sinks(LossyConfig(), "on", &text, &json);
  EXPECT_NE(text.find("success="), std::string::npos);
  EXPECT_NE(json.find("\"query_success_rate\":"), std::string::npos);
  EXPECT_NE(json.find("\"injected_drops\":"), std::string::npos);
}

TEST(FaultEndToEndTest, PartitionWindowDegradesThenHeals) {
  SimConfig c = TinyConfig();
  // Cut locality 0 off from everyone for the middle half hour.
  c.fault_partitions = "0|*@30min-1h";
  c.query_timeout = 5 * kSecond;
  RunResult r = Experiment(c).Run();
  EXPECT_TRUE(r.faults_enabled);
  EXPECT_GT(r.partition_drops, 0u) << "the partition must cut real traffic";
  // With timeouts + the origin-server fallback, queries survive even a
  // hard partition (the origin lives outside the overlay; latency and
  // server hits absorb the damage).
  EXPECT_DOUBLE_EQ(r.QuerySuccessRate(), 1.0);
}

TEST(FaultEndToEndTest, PartitionSidesMustNameALocality) {
  // TinyConfig has localities 0..2. A side 3 would cut nothing, and the
  // run would go on as if no partition were set.
  SimConfig c = TinyConfig();
  c.fault_partitions = "3|*@30min-1h";
  Result<RunResult> past = Experiment(c).TryRun();
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(past.status().ToString().find("num_localities=3"),
            std::string::npos)
      << past.status().ToString();

  c.fault_partitions = "*|2@0min-2h";
  Result<RunResult> last = Experiment(c).TryRun();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_GT(last.value().partition_drops, 0u);
}

TEST(FaultEndToEndTest, SilentCrashesSuppressBouncesEndToEnd) {
  SimConfig c = TinyConfig();
  c.churn_enabled = true;
  c.churn_mean_session = 30 * kMinute;
  c.churn_mean_downtime = 10 * kMinute;
  c.fault_silent_crash_probability = 1.0;  // every crash goes dark
  c.query_timeout = 5 * kSecond;
  c.suspicion_keepalive_misses = 2;
  RunResult r = Experiment(c).Run();
  EXPECT_GT(r.churn_failures, 0u);
  EXPECT_EQ(r.silent_crashes, r.churn_failures)
      << "with p=1 every crash-failure is silent";
  EXPECT_GT(r.bounces_suppressed, 0u);
}

}  // namespace
}  // namespace flower

// Engine-level tests for the sharded simulation kernel: lane routing,
// stamped cross-lane exchange, conservative windows, the locality shard
// plan, and executor equivalence (sim/simulator.h,
// sim/sharded_simulator.h).
#include "sim/sharded_simulator.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/topology.h"
#include "sim/shard_plan.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace flower {
namespace {

/// Two lanes of two nodes each, lookahead 10 ms, one executor group.
ShardPlan TwoLanePlan(int groups = 1) {
  ShardPlan plan;
  plan.num_lanes = 2;
  plan.node_lane = {0, 0, 1, 1};
  plan.lookahead = 10;
  plan.num_groups = groups;
  plan.lane_group.resize(2);
  for (int l = 0; l < 2; ++l) plan.lane_group[l] = l * groups / 2;
  return plan;
}

TEST(ShardedSimTest, LaneSchedulingRoutesToCurrentLane) {
  Simulator sim(1);
  sim.EnableSharding(TwoLanePlan());

  std::vector<std::string> order;
  // Events seeded per lane; each reschedules on its own lane via the
  // plain Schedule API (current-lane routing).
  for (int lane = 0; lane < 2; ++lane) {
    sim.ScheduleOnLane(lane, 5, [&sim, &order, lane]() {
      order.push_back("lane" + std::to_string(lane) + "@" +
                      std::to_string(sim.Now()));
      EXPECT_EQ(CurrentSimLane(), lane);
      sim.Schedule(3, [&sim, &order, lane]() {
        EXPECT_EQ(CurrentSimLane(), lane);
        order.push_back("follow" + std::to_string(lane) + "@" +
                        std::to_string(sim.Now()));
      });
    });
  }
  EXPECT_EQ(CurrentSimLane(), Simulator::kControlLane);

  ShardedSimulator coordinator(&sim, ShardedSimulator::Executor::kSerial);
  coordinator.RunUntil(100);

  ASSERT_EQ(order.size(), 4u);
  // Within one window lanes run in lane order; each lane is internally
  // time-ordered.
  EXPECT_EQ(order[0], "lane0@5");
  EXPECT_EQ(order[1], "follow0@8");
  EXPECT_EQ(order[2], "lane1@5");
  EXPECT_EQ(order[3], "follow1@8");
  EXPECT_EQ(sim.events_processed(), 4u);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(ShardedSimTest, CrossLanePostsMergeInStampOrder) {
  // Both lanes post to lane 0 at the same arrival time; the merge must
  // order by (time, source lane, per-source seq), regardless of which
  // lane's events dispatched first.
  std::vector<std::string> arrivals;
  Simulator sim(1);
  sim.EnableSharding(TwoLanePlan());
  for (int lane = 0; lane < 2; ++lane) {
    sim.ScheduleOnLane(lane, 0, [&sim, &arrivals, lane]() {
      for (int i = 0; i < 2; ++i) {
        // Arrival exactly one lookahead out — the earliest legal
        // cross-lane distance.
        sim.RouteToLane(1 - lane, sim.Now() + 10,
                        [&arrivals, lane, i]() {
                          arrivals.push_back("from" + std::to_string(lane) +
                                             "#" + std::to_string(i));
                        });
      }
    });
  }
  ShardedSimulator coordinator(&sim, ShardedSimulator::Executor::kSerial);
  coordinator.RunUntil(50);

  ASSERT_EQ(arrivals.size(), 4u);
  // Destination lanes dispatch in lane order (lane 0 holds lane 1's
  // posts and vice versa); within a destination, stamp order (source
  // lane, then per-source seq) breaks the time tie.
  EXPECT_EQ(arrivals[0], "from1#0");
  EXPECT_EQ(arrivals[1], "from1#1");
  EXPECT_EQ(arrivals[2], "from0#0");
  EXPECT_EQ(arrivals[3], "from0#1");
}

TEST(ShardedSimTest, SameLaneRoutingNeedsNoExchange) {
  Simulator sim(1);
  sim.EnableSharding(TwoLanePlan());
  int fired = 0;
  sim.ScheduleOnLane(0, 0, [&sim, &fired]() {
    // Same-lane target with zero delay: runs inside the same window.
    sim.RouteToLane(0, sim.Now(), [&fired]() { ++fired; });
  });
  ShardedSimulator coordinator(&sim, ShardedSimulator::Executor::kSerial);
  coordinator.RunUntil(5);
  EXPECT_EQ(fired, 1);
}

TEST(ShardedSimTest, ControlPhaseRunsBeforeLanesEachWindow) {
  // A control event injects into a lane at its own timestamp; the lane
  // must observe it within the same window.
  Simulator sim(1);
  sim.EnableSharding(TwoLanePlan());
  std::vector<std::string> order;
  sim.ScheduleAt(3, [&sim, &order]() {  // control lane (no lane scope)
    EXPECT_EQ(CurrentSimLane(), Simulator::kControlLane);
    order.push_back("control@3");
    sim.ScheduleOnLane(1, 3, [&order]() { order.push_back("lane1@3"); });
  });
  sim.ScheduleOnLane(1, 2, [&order]() { order.push_back("lane1@2"); });
  ShardedSimulator coordinator(&sim, ShardedSimulator::Executor::kSerial);
  coordinator.RunUntil(9);  // one window
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "control@3");
  EXPECT_EQ(order[1], "lane1@2");
  EXPECT_EQ(order[2], "lane1@3");
}

TEST(ShardedSimTest, PeriodicTimersStayOnTheirLane) {
  Simulator sim(1);
  sim.EnableSharding(TwoLanePlan());
  int ticks = 0;
  Simulator::PeriodicTimer handle;
  {
    Simulator::LaneScope scope(&sim, 1);
    sim.SchedulePeriodic(&handle, 4, 4, [&ticks]() {
      EXPECT_EQ(CurrentSimLane(), 1);
      ++ticks;
    });
  }
  ShardedSimulator coordinator(&sim, ShardedSimulator::Executor::kSerial);
  coordinator.RunUntil(20);
  EXPECT_EQ(ticks, 5);
  handle.Cancel();
}

TEST(ShardedSimTest, ThreadedExecutorMatchesSerial) {
  // The same event program under the serial and the threaded executor
  // must produce identical per-lane traces. Lanes only touch lane-local
  // state, mirroring the engine's isolation contract.
  auto run = [](ShardedSimulator::Executor executor) {
    Simulator sim(7);
    sim.EnableSharding(TwoLanePlan(2));
    std::vector<std::vector<int64_t>> trace(2);
    std::vector<uint64_t> draws(2);
    for (int lane = 0; lane < 2; ++lane) {
      std::function<void()> tick = [&sim, &trace, &draws, lane]() {
        trace[lane].push_back(sim.Now());
        draws[lane] ^= sim.lane_rng(lane)->Next();
        if (sim.Now() < 200) {
          sim.Schedule(7, [&sim, &trace, &draws, lane]() {
            trace[lane].push_back(sim.Now());
            draws[lane] ^= sim.lane_rng(lane)->Next();
          });
        }
      };
      sim.ScheduleOnLane(lane, lane + 1, tick);
      for (SimTime t = 10; t < 150; t += 12) {
        sim.ScheduleOnLane(lane, t, tick);
      }
    }
    ShardedSimulator coordinator(&sim, executor);
    coordinator.RunUntil(300);
    return std::make_pair(trace, draws);
  };
  auto serial = run(ShardedSimulator::Executor::kSerial);
  auto threaded = run(ShardedSimulator::Executor::kThreads);
  EXPECT_EQ(serial.first, threaded.first);
  EXPECT_EQ(serial.second, threaded.second);
}

TEST(ShardedSimTest, LocalityShardPlanBoundsCrossLocalityLatency) {
  SimConfig config = TinyConfig();
  Simulator sim(42);
  Topology topology(config, sim.rng());
  ShardPlan plan = MakeLocalityShardPlan(topology, 2);

  ASSERT_EQ(plan.num_lanes, topology.num_localities());
  ASSERT_EQ(plan.node_lane.size(),
            static_cast<size_t>(topology.num_nodes()));
  for (int n = 0; n < topology.num_nodes(); ++n) {
    EXPECT_EQ(plan.node_lane[static_cast<size_t>(n)],
              topology.LocalityOf(static_cast<NodeId>(n)));
  }
  // The lookahead must lower-bound every cross-locality link.
  for (NodeId a = 0; a < 60; ++a) {
    for (NodeId b = 0; b < 60; ++b) {
      if (topology.LocalityOf(a) == topology.LocalityOf(b)) continue;
      EXPECT_GE(topology.Latency(a, b), plan.lookahead)
          << "nodes " << a << " and " << b;
    }
  }
  // Groups are a contiguous, monotone cover of the lanes.
  EXPECT_EQ(plan.num_groups, 2);
  for (int l = 1; l < plan.num_lanes; ++l) {
    EXPECT_GE(plan.lane_group[l], plan.lane_group[l - 1]);
  }
  EXPECT_EQ(plan.lane_group.front(), 0);
  EXPECT_EQ(plan.lane_group.back(), plan.num_groups - 1);
}

TEST(ShardedSimTest, SerialSimulatorIsUntouched) {
  // A simulator without EnableSharding must behave exactly as before:
  // one queue, control lane context, Run/RunUntil drive it directly.
  Simulator sim(3);
  EXPECT_FALSE(sim.sharded());
  std::vector<SimTime> fired;
  sim.Schedule(5, [&]() {
    EXPECT_EQ(CurrentSimLane(), Simulator::kControlLane);
    fired.push_back(sim.Now());
  });
  sim.RunUntil(10);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 5);
  EXPECT_EQ(sim.Now(), 10);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_TRUE(sim.LaneEventCounts() == std::vector<uint64_t>{1});
}

}  // namespace
}  // namespace flower

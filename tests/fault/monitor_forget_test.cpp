// FaultMonitor::forgetFlow, driven by an endpoint pool that reuses drained
// pairs: the monitor's maps keep only flows whose endpoints are still in
// the pool, and its recovery metrics match a monitor that forgets nothing.
#include <gtest/gtest.h>

#include <vector>

#include "../transport/pool_rig.hpp"
#include "fault/injector.hpp"
#include "fault/monitor.hpp"
#include "fault/plan.hpp"

namespace tlbsim::fault {
namespace {

struct MonitoredRun {
  int affected = 0;
  int rerouted = 0;
  std::vector<double> rerouteSec;
  std::size_t tracked = 0;
  std::uint64_t reuses = 0;
  /// Flows whose pair was reused but which the monitor still tracks.
  int trackedAfterReuse = 0;
  /// Tracked flows whose pair is still in the pool.
  int trackedInPool = 0;
};

MonitoredRun runWithFaults(bool forget) {
  auto cfg = transport::testing::smallFabric();
  cfg.numSpines = 4;
  transport::testing::PoolRig rig(cfg);
  FaultPlan plan;
  EXPECT_TRUE(parseLinkFaults(
      "leaf0-spine0,down@10ms,up@11ms;leaf0-spine1,down@15ms,up@16ms;"
      "leaf0-spine2,rate=0.5@20ms,rate=1@25ms;leaf0-spine3,down@30ms,"
      "up@31ms;leaf0-spine0,down@35ms,up@36ms",
      &plan));
  FaultMonitor monitor(rig.topo, rig.simr, [](FlowId) { return true; },
                       FaultMonitor::Config{});
  FaultInjector injector(plan, rig.topo, rig.simr, 7);
  injector.setMonitor(&monitor);
  injector.install();
  if (forget) {
    rig.pool.setRetireHook([&monitor](transport::TcpSender& snd,
                                      transport::TcpReceiver&,
                                      std::uint64_t) {
      monitor.forgetFlow(snd.flow().id);
    });
  }
  // 100 KB flows from leaf 0 to leaf 1, one every 400 us: some in flight
  // at each fault, many finished and drained before it.
  auto flows = transport::testing::crossLeafFlows(cfg, 100, 100 * kKB,
                                                  microseconds(400));
  for (auto& f : flows) {
    f.src = static_cast<net::HostId>(f.src % cfg.hostsPerLeaf);
    f.dst = static_cast<net::HostId>(cfg.hostsPerLeaf +
                                     f.dst % cfg.hostsPerLeaf);
  }
  rig.post(flows);
  EXPECT_TRUE(rig.runUntilDone(seconds(1)));
  EXPECT_EQ(rig.orphanPackets(), 0u);

  MonitoredRun run;
  run.affected = monitor.affectedLongFlows();
  run.rerouted = monitor.reroutedLongFlows();
  run.rerouteSec = monitor.rerouteTimesSec();
  run.tracked = monitor.trackedFlows();
  run.reuses = rig.pool.reuses();
  for (const auto& f : flows) {
    if (!monitor.tracks(f.id)) continue;
    if (rig.pool.find(f.id) == nullptr) {
      ++run.trackedAfterReuse;
    } else {
      ++run.trackedInPool;
    }
  }
  return run;
}

TEST(FaultMonitorForget, MapsHoldOnlyFlowsStillInThePool) {
  const MonitoredRun run = runWithFaults(/*forget=*/true);
  EXPECT_GT(run.reuses, 25u);
  EXPECT_EQ(run.trackedAfterReuse, 0);
  EXPECT_EQ(static_cast<std::size_t>(run.trackedInPool), run.tracked);
}

TEST(FaultMonitorForget, RecoveryMetricsMatchAMonitorThatKeepsEveryFlow) {
  const MonitoredRun forgetting = runWithFaults(/*forget=*/true);
  const MonitoredRun keeping = runWithFaults(/*forget=*/false);
  EXPECT_GT(keeping.trackedAfterReuse, 0);
  EXPECT_GT(keeping.tracked, forgetting.tracked);
  // Finished flows whose last uplink fails still count as affected.
  EXPECT_GT(keeping.affected, keeping.rerouted);
  EXPECT_EQ(forgetting.affected, keeping.affected);
  EXPECT_EQ(forgetting.rerouted, keeping.rerouted);
  EXPECT_EQ(forgetting.rerouteSec, keeping.rerouteSec);
}

}  // namespace
}  // namespace tlbsim::fault

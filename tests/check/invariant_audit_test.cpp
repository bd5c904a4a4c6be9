#include "check/invariant_audit.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "../transport/pool_rig.hpp"
#include "harness/experiment.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "workload/traffic_gen.hpp"

namespace tlbsim::check {
namespace {

InvariantAuditor::Config lenient() {
  InvariantAuditor::Config cfg;
  cfg.assertOnViolation = false;
  return cfg;
}

TEST(InvariantAuditor, CleanStartHasNoViolations) {
  InvariantAuditor auditor(lenient());
  auditor.auditNow(microseconds(1));
  auditor.auditNow(microseconds(2));
  EXPECT_EQ(auditor.violationCount(), 0u);
  EXPECT_GE(auditor.checksRun(), 2u);
}

TEST(InvariantAuditor, DetectsTimeRegression) {
  InvariantAuditor auditor(lenient());
  auditor.auditNow(microseconds(100));
  auditor.auditNow(microseconds(50));
  ASSERT_EQ(auditor.violationCount(), 1u);
  EXPECT_NE(auditor.violations()[0].what.find("time regressed"),
            std::string::npos);
  EXPECT_EQ(auditor.violations()[0].time, microseconds(50));
}

TEST(InvariantAuditor, RecordingIsBoundedButCountIsNot) {
  auto cfg = lenient();
  cfg.maxRecorded = 2;
  InvariantAuditor auditor(cfg);
  for (int i = 5; i >= 1; --i) {
    auditor.auditNow(microseconds(i));  // strictly decreasing: 4 regressions
  }
  EXPECT_EQ(auditor.violationCount(), 4u);
  EXPECT_EQ(auditor.violations().size(), 2u);
}

TEST(InvariantAuditor, AssertOnViolationRoutesThroughFailureHandler) {
  static int fired = 0;
  fired = 0;
  auto prev = setFailureHandler(
      [](const char*, int, const char*, const char*) { ++fired; });
  InvariantAuditor auditor;  // default config asserts on violation
  auditor.auditNow(microseconds(10));
  auditor.auditNow(microseconds(5));
  setFailureHandler(prev);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(InvariantAuditor, WatchedLinkStaysConsistentThroughTraffic) {
  sim::Simulator simr;
  net::PacketStore store;
  net::Link link(simr, store, gbps(1), microseconds(10), {16, 0});
  InvariantAuditor auditor(lenient());
  auditor.watchLink(link, "test-link");

  net::Packet pkt;
  pkt.flow = 1;
  pkt.size = 1500_B;
  pkt.payload = 1500_B;
  for (int i = 0; i < 4; ++i) link.send(pkt);
  auditor.auditNow(simr.now());  // mid-flight: queued + serializing
  simr.run();
  auditor.auditNow(simr.now());  // drained: all tx'd and delivered
  EXPECT_EQ(auditor.violationCount(), 0u);
  EXPECT_EQ(link.enqueuedPackets(), 4u);
  EXPECT_EQ(link.deliveredPackets(), 4u);
}

harness::ExperimentConfig auditedConfig(harness::Scheme scheme) {
  harness::ExperimentConfig cfg;
  cfg.topo.numLeaves = 2;
  cfg.topo.numSpines = 2;
  cfg.topo.hostsPerLeaf = 4;
  cfg.topo.linkDelay = microseconds(12.5);
  cfg.topo.bufferPackets = 64;
  cfg.scheme.scheme = scheme;
  cfg.seed = 11;
  cfg.maxDuration = seconds(5);
  cfg.audit = harness::ExperimentConfig::Audit::kOn;

  workload::BasicMixConfig mix;
  mix.numShort = 16;
  mix.numLong = 2;
  mix.numHosts = 8;
  mix.hostsPerLeaf = 4;
  mix.longSize = kMB;
  Rng rng(11);
  cfg.flows = workload::basicMixWorkload(mix, rng);
  return cfg;
}

TEST(InvariantAuditor, FullTlbExperimentAuditsClean) {
  const auto res = harness::runExperiment(auditedConfig(harness::Scheme::kTlb));
  EXPECT_GT(res.auditTicks, 0u);
  EXPECT_GT(res.auditChecks, res.auditTicks);
  EXPECT_EQ(res.auditViolations, 0u);
}

TEST(InvariantAuditor, FullEcmpExperimentAuditsClean) {
  const auto res =
      harness::runExperiment(auditedConfig(harness::Scheme::kEcmp));
  EXPECT_GT(res.auditTicks, 0u);
  EXPECT_EQ(res.auditViolations, 0u);
}

/// Back-to-back 20 KB flows through an endpoint pool, audited every
/// 100 us with the pool's flows watched while their endpoints live. With
/// `plantCredit`, each pair's sender is credited one loss that never
/// happened when it launches, so the pool reuses the pair with a packet
/// still in the network. Every violation is recorded.
InvariantAuditor auditedPoolRun(bool plantCredit) {
  transport::testing::PoolRig rig;
  InvariantAuditor::Config acfg = lenient();
  acfg.interval = microseconds(100);
  acfg.maxRecorded = std::numeric_limits<std::size_t>::max();
  InvariantAuditor auditor(acfg);
  auditor.watchTopology(rig.topo);
  auditor.install(rig.simr);
  rig.pool.setLaunchHook([&auditor, plantCredit](transport::TcpSender& snd,
                                                 transport::TcpReceiver& rcv,
                                                 std::uint64_t) {
    auditor.watchFlow(snd, rcv, transport::TcpParams{}.mss);
    if (plantCredit) snd.onLoss(net::Packet{});
  });
  rig.pool.setRetireHook([&auditor](transport::TcpSender& snd,
                                    transport::TcpReceiver&,
                                    std::uint64_t) {
    auditor.unwatchFlow(snd);
  });
  using transport::testing::crossLeafFlows;
  using transport::testing::smallFabric;
  rig.post(crossLeafFlows(smallFabric(), 80, 20 * kKB, microseconds(40)));
  EXPECT_TRUE(rig.runUntilDone(seconds(1)));
  EXPECT_GT(rig.pool.reuses(), 0u);
  auditor.auditNow(rig.simr.now());
  return auditor;
}

/// The first recorded violation whose text contains `what`, or null.
const AuditViolation* findViolation(const InvariantAuditor& auditor,
                                    const std::string& what) {
  for (const AuditViolation& v : auditor.violations()) {
    if (v.what.find(what) != std::string::npos) return &v;
  }
  return nullptr;
}

TEST(InvariantAuditor, FlagsAStoreSlotNoLinkHolds) {
  transport::testing::PoolRig rig;
  InvariantAuditor auditor(lenient());
  auditor.watchTopology(rig.topo);
  rig.pool.setLaunchHook([&auditor](transport::TcpSender& snd,
                                    transport::TcpReceiver& rcv,
                                    std::uint64_t) {
    auditor.watchFlow(snd, rcv, transport::TcpParams{}.mss);
  });
  using transport::testing::crossLeafFlows;
  using transport::testing::smallFabric;
  rig.post(crossLeafFlows(smallFabric(), 8, 20 * kKB, microseconds(5)));
  rig.simr.run(microseconds(150));  // packets queued and on the wire
  net::PacketStore& store = rig.topo.packetStore();
  ASSERT_GT(store.live(), 0u);
  auditor.auditNow(rig.simr.now());
  EXPECT_EQ(auditor.violationCount(), 0u);

  const net::PacketStore::Handle stray =
      store.alloc(net::Packet{}, net::PacketStore::State::kQueued);
  auditor.auditNow(rig.simr.now());
  ASSERT_EQ(auditor.violationCount(), 1u);
  EXPECT_NE(auditor.violations()[0].what.find("packet store"),
            std::string::npos);

  store.free(stray);
  auditor.auditNow(rig.simr.now());
  EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(InvariantAuditor, FlagsAStaleUplinkView) {
  transport::testing::PoolRig rig;
  InvariantAuditor auditor(lenient());
  auditor.watchTopology(rig.topo);
  using transport::testing::crossLeafFlows;
  using transport::testing::smallFabric;
  rig.post(crossLeafFlows(smallFabric(), 8, 20 * kKB, microseconds(5)));
  rig.simr.run(microseconds(150));  // the leaves have made decisions
  net::Switch& leaf = rig.topo.leaf(0);
  const net::Link& uplink = leaf.port(leaf.uplinkGroup()[0]);
  ASSERT_FALSE(leaf.viewStale());
  ASSERT_NE(uplink.viewEntry(), nullptr);
  auditor.auditNow(rig.simr.now());
  EXPECT_EQ(auditor.violationCount(), 0u);

  // Plant a stale entry: one packet more than the queue holds.
  auto* entry = const_cast<net::PortView*>(uplink.viewEntry());
  const net::PortView kept = *entry;
  entry->setQueueBytes(kept.queueBytes + 1500_B);
  auditor.auditNow(rig.simr.now());
  ASSERT_EQ(auditor.violationCount(), 1u);
  EXPECT_NE(auditor.violations()[0].what.find("uplink view"),
            std::string::npos);

  *entry = kept;
  auditor.auditNow(rig.simr.now());
  EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(InvariantAuditor, PoolWithTheDerivedDrainTimeHasNoOrphans) {
  const InvariantAuditor auditor = auditedPoolRun(false);
  EXPECT_EQ(auditor.orphanPackets(), 0u);
  EXPECT_EQ(auditor.violationCount(), 0u);
}

TEST(InvariantAuditor, FlagsOrphansOfAPoolWithATooShortDrainTime) {
  // One spurious loss credit per pair: each is reused while one packet
  // of its old flow is still in the network, such as the FIN-ACK, which
  // then arrives with no endpoint bound.
  const InvariantAuditor auditor = auditedPoolRun(true);
  EXPECT_GT(auditor.orphanPackets(), 0u);
  EXPECT_NE(findViolation(auditor, "unbound flows"), nullptr);
  EXPECT_NE(findViolation(auditor, "in-network count"), nullptr);
}

TEST(InvariantAuditor, FlagsAMiscountedFlow) {
  transport::testing::PoolRig rig;
  InvariantAuditor auditor(lenient());
  auditor.watchTopology(rig.topo);
  transport::TcpSender* first = nullptr;
  rig.pool.setLaunchHook([&](transport::TcpSender& snd,
                             transport::TcpReceiver& rcv, std::uint64_t) {
    auditor.watchFlow(snd, rcv, transport::TcpParams{}.mss);
    if (first == nullptr) first = &snd;
  });
  using transport::testing::crossLeafFlows;
  using transport::testing::smallFabric;
  rig.post(crossLeafFlows(smallFabric(), 8, 20 * kKB, microseconds(5)));
  rig.simr.run(microseconds(150));  // packets queued and on the wire
  ASSERT_NE(first, nullptr);
  auditor.auditNow(rig.simr.now());
  EXPECT_EQ(auditor.violationCount(), 0u);

  // A loss the fabric never reported.
  first->onLoss(net::Packet{});
  auditor.auditNow(rig.simr.now());
  ASSERT_EQ(auditor.violationCount(), 1u);
  EXPECT_NE(auditor.violations()[0].what.find("in-network count"),
            std::string::npos);
}

TEST(InvariantAuditor, AuditOffRunsNoChecks) {
  auto cfg = auditedConfig(harness::Scheme::kTlb);
  cfg.audit = harness::ExperimentConfig::Audit::kOff;
  const auto res = harness::runExperiment(cfg);
  EXPECT_EQ(res.auditTicks, 0u);
  EXPECT_EQ(res.auditChecks, 0u);
}

}  // namespace
}  // namespace tlbsim::check

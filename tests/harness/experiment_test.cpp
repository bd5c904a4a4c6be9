// Integration tests: full simulations through the public harness API.
#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/flow_probe.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/traffic_gen.hpp"

namespace tlbsim::harness {
namespace {

ExperimentConfig smallConfig(Scheme scheme, std::uint64_t seed = 7) {
  ExperimentConfig cfg;
  cfg.topo.numLeaves = 2;
  cfg.topo.numSpines = 4;
  cfg.topo.hostsPerLeaf = 4;
  cfg.topo.linkDelay = microseconds(12.5);
  cfg.topo.bufferPackets = 128;
  cfg.scheme.scheme = scheme;
  cfg.seed = seed;
  cfg.maxDuration = seconds(5);

  workload::BasicMixConfig mix;
  mix.numShort = 20;
  mix.numLong = 2;
  mix.numHosts = 8;
  mix.hostsPerLeaf = 4;
  mix.longSize = 2 * kMB;
  Rng rng(seed);
  cfg.flows = workload::basicMixWorkload(mix, rng);
  return cfg;
}

TEST(Experiment, AllFlowsCompleteUnderTlb) {
  const auto res = runExperiment(smallConfig(Scheme::kTlb));
  EXPECT_EQ(res.ledger.completedCount([](const auto&) { return true; }),
            res.ledger.size());
  EXPECT_GT(res.endTime, 0_ns);
}

TEST(Experiment, FctsArePositiveAndBounded) {
  const auto res = runExperiment(smallConfig(Scheme::kTlb));
  for (const auto& f : res.ledger.flows()) {
    ASSERT_TRUE(f.completed);
    EXPECT_GT(f.fct, 0_ns);
    EXPECT_LT(f.fct, seconds(5));
  }
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a = runExperiment(smallConfig(Scheme::kTlb, 3));
  const auto b = runExperiment(smallConfig(Scheme::kTlb, 3));
  ASSERT_EQ(a.ledger.size(), b.ledger.size());
  for (std::size_t i = 0; i < a.ledger.size(); ++i) {
    EXPECT_EQ(a.ledger.flows()[i].fct, b.ledger.flows()[i].fct);
  }
  EXPECT_EQ(a.totalDrops, b.totalDrops);
}

TEST(Experiment, SamplingPopulatesTimeSeries) {
  auto cfg = smallConfig(Scheme::kTlb);
  cfg.sampleInterval = microseconds(100);
  const auto res = runExperiment(cfg);
  EXPECT_FALSE(res.longThroughputGbps.empty());
  EXPECT_FALSE(res.shortQueueDelayUs.empty());
  EXPECT_FALSE(res.fabricUtilization.empty());
}

TEST(Experiment, NonTlbSchemesHaveNoQthTrace) {
  // The q_th trace is the registry's tlb.<switch>.qth_bytes series, which
  // only a TLB instance registers.
  obs::MetricsRegistry metrics;
  auto cfg = smallConfig(Scheme::kEcmp);
  cfg.sampleInterval = microseconds(100);
  runExperiment(cfg, {.metrics = &metrics});
  const std::string json = metrics.toJson();
  EXPECT_EQ(json.find("qth_bytes"), std::string::npos) << json;
  EXPECT_NE(metrics.findCounter("switch.leaf0.forwarded"), nullptr);
}

TEST(Experiment, QueueLenSamplesAreNonNegative) {
  auto cfg = smallConfig(Scheme::kRps);
  const auto res = runExperiment(cfg);
  if (!res.shortQueueLenPkts.empty()) {
    EXPECT_GE(res.shortQueueLenPkts.min(), 0.0);
  }
}

TEST(Experiment, TlbAutoFillsPhysicalParameters) {
  // A deliberately wrong TLB RTT must be corrected from the topology.
  auto cfg = smallConfig(Scheme::kTlb);
  cfg.scheme.tlb.rtt = seconds(1);
  const auto res = runExperiment(cfg);
  EXPECT_EQ(res.ledger.completedCount([](const auto&) { return true; }),
            res.ledger.size());
}

TEST(Experiment, HardStopLeavesFlowsIncomplete) {
  auto cfg = smallConfig(Scheme::kEcmp);
  cfg.maxDuration = microseconds(200);  // barely one RTT
  const auto res = runExperiment(cfg);
  EXPECT_LT(res.ledger.completedCount([](const auto&) { return true; }),
            res.ledger.size());
  EXPECT_LE(res.endTime, microseconds(200) + microseconds(1));
}

// Property sweep: every scheme must complete the whole small mix, under
// several seeds, with zero stuck flows.
class SchemeSweep
    : public ::testing::TestWithParam<std::tuple<Scheme, std::uint64_t>> {};

TEST_P(SchemeSweep, CompletesEverything) {
  const auto [scheme, seed] = GetParam();
  const auto res = runExperiment(smallConfig(scheme, seed));
  EXPECT_EQ(res.ledger.completedCount([](const auto&) { return true; }),
            res.ledger.size())
      << schemeName(scheme) << " seed " << seed;
  // Conservation: every completed sender acked exactly its flow size.
  for (const auto& f : res.ledger.flows()) {
    EXPECT_TRUE(f.completed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeSweep,
    ::testing::Combine(
        ::testing::Values(Scheme::kEcmp, Scheme::kWcmp, Scheme::kRps,
                          Scheme::kDrill, Scheme::kPresto, Scheme::kLetFlow,
                          Scheme::kConga, Scheme::kHermes, Scheme::kRoundRobin,
                          Scheme::kFlowLevel,
                          Scheme::kShortestQueue, Scheme::kFixedGranularity,
                          Scheme::kTlb),
        ::testing::Values(1, 2, 3)));

// Asymmetric fabrics: flows must still complete when two uplinks degrade.
class AsymmetrySweep : public ::testing::TestWithParam<Scheme> {};

TEST_P(AsymmetrySweep, CompletesWithDegradedLinks) {
  auto cfg = smallConfig(GetParam());
  cfg.topo.overrides.push_back({0, 1, 0.25, 1.0});  // quarter bandwidth
  cfg.topo.overrides.push_back({0, 2, 1.0, 8.0});   // 8x delay
  const auto res = runExperiment(cfg);
  EXPECT_EQ(res.ledger.completedCount([](const auto&) { return true; }),
            res.ledger.size());
}

INSTANTIATE_TEST_SUITE_P(Asym, AsymmetrySweep,
                         ::testing::Values(Scheme::kEcmp, Scheme::kRps,
                                           Scheme::kPresto, Scheme::kLetFlow,
                                           Scheme::kTlb));

TEST(ExperimentClass, EachRunWritesOnlyToItsOwnSinks) {
  // One const Experiment, run three times: without sinks, then into sink
  // set A, then into sink set B. The sinks change nothing the run
  // reports, and each set holds exactly the one run it was given.
  const Experiment exp(smallConfig(Scheme::kTlb));
  struct SinkSet {
    obs::MetricsRegistry metrics;
    obs::EventTrace trace;
    obs::FlowProbe flows;
    Sinks sinks() {
      return {.metrics = &metrics, .trace = &trace, .flows = &flows};
    }
  };
  SinkSet a;
  SinkSet b;
  const ExperimentResult plain = exp.run();
  const ExperimentResult inA = exp.run(a.sinks());
  const ExperimentResult inB = exp.run(b.sinks());

  const std::string summary = summarizeExperiment(exp.config(), plain).toJson();
  EXPECT_GT(plain.ledger.completedCount(stats::FlowLedger::isShort), 0u);
  for (const ExperimentResult* res : {&inA, &inB}) {
    EXPECT_EQ(summarizeExperiment(exp.config(), *res).toJson(), summary);
    EXPECT_EQ(res->endTime, plain.endTime);
    ASSERT_EQ(res->ledger.size(), plain.ledger.size());
    for (std::size_t i = 0; i < plain.ledger.size(); ++i) {
      EXPECT_EQ(res->ledger.flows()[i].fct, plain.ledger.flows()[i].fct);
    }
  }

  // A second run into the same set would double its counts and its
  // records' packets, so equal sets hold one run each.
  EXPECT_FALSE(a.metrics.counterValues().empty());
  EXPECT_EQ(a.metrics.counterValues(), b.metrics.counterValues());
  EXPECT_EQ(a.metrics.toJson(), b.metrics.toJson());
  // A sink records the run; it posts no event of its own.
  EXPECT_EQ(inA.executedEvents, plain.executedEvents);
  EXPECT_EQ(inA.executedEvents, inB.executedEvents);
  EXPECT_EQ(a.metrics.findGauge("sim.executed_events")->value(),
            static_cast<double>(inA.executedEvents));
  EXPECT_GT(a.trace.size(), 0u);
  EXPECT_EQ(a.trace.toJson(), b.trace.toJson());
  EXPECT_EQ(a.flows.flowCount(), exp.config().flows.size());
  EXPECT_EQ(a.flows.toNdjson({}), b.flows.toNdjson({}));
}

TEST(ExperimentClass, RunIsRepeatableAndConst) {
  const Experiment exp(smallConfig(Scheme::kLetFlow));
  const ExperimentResult a = exp.run();
  const ExperimentResult b = exp.run();
  EXPECT_EQ(a.endTime, b.endTime);
  EXPECT_EQ(a.executedEvents, b.executedEvents);
  EXPECT_GT(a.executedEvents, 0u);
  EXPECT_DOUBLE_EQ(a.shortAfctSec(), b.shortAfctSec());
}

TEST(Experiment, TlbShortFlowsBeatEcmpOnTheBasicMix) {
  // The paper's headline direction at this small scale: TLB's short-flow
  // AFCT should not be worse than ECMP's (averaged over seeds to avoid
  // single-run noise).
  double tlbSum = 0.0;
  double ecmpSum = 0.0;
  for (std::uint64_t seed : {11, 22, 33}) {
    tlbSum += runExperiment(smallConfig(Scheme::kTlb, seed)).shortAfctSec();
    ecmpSum += runExperiment(smallConfig(Scheme::kEcmp, seed)).shortAfctSec();
  }
  EXPECT_LE(tlbSum, ecmpSum * 1.05);
}

// --- k=4 fat-tree: two stacked decision tiers through the same harness --

/// Cross-pod flows on a k=4 fat-tree, audited: a few long, a burst of
/// short.
ExperimentConfig fatTreeConfig(Scheme scheme, std::uint64_t seed = 1) {
  ExperimentConfig cfg;
  cfg.fatTree.emplace().k = 4;
  cfg.scheme.scheme = scheme;
  cfg.seed = seed;
  cfg.maxDuration = seconds(10);
  cfg.audit = ExperimentConfig::Audit::kOn;

  Rng rng(seed * 13 + 1);
  FlowId id = 1;
  for (int i = 0; i < 2; ++i) {
    transport::FlowSpec f;
    f.id = id++;
    f.src = static_cast<net::HostId>(i);
    f.dst = static_cast<net::HostId>(12 + i);
    f.size = 1 * kMB;
    cfg.flows.push_back(f);
  }
  for (int i = 0; i < 12; ++i) {
    transport::FlowSpec f;
    f.id = id++;
    f.src = static_cast<net::HostId>(rng.uniformInt(8));       // pods 0-1
    f.dst = static_cast<net::HostId>(8 + rng.uniformInt(8));   // pods 2-3
    f.size = ByteCount::fromBytes(
        rng.uniformInt((10 * kKB).bytes(), (90 * kKB).bytes()));
    f.start = microseconds(rng.uniformInt(0, 2000));
    f.deadline = milliseconds(20);
    cfg.flows.push_back(f);
  }
  return cfg;
}

class FatTreeSchemeSweep
    : public ::testing::TestWithParam<std::tuple<Scheme, std::uint64_t>> {};

TEST_P(FatTreeSchemeSweep, AllFlowsComplete) {
  const auto [scheme, seed] = GetParam();
  const auto res = runExperiment(fatTreeConfig(scheme, seed));
  EXPECT_EQ(res.ledger.completedCount([](const auto&) { return true; }),
            res.ledger.size())
      << schemeName(scheme) << " seed " << seed;
  // The auditor watched every host, link and switch of both tiers; an
  // orphan packet (a flow's packet outliving the six-hop drain) would be
  // a violation.
  EXPECT_GT(res.auditTicks, 0u);
  EXPECT_EQ(res.auditViolations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, FatTreeSchemeSweep,
    ::testing::Combine(::testing::Values(Scheme::kEcmp, Scheme::kRps,
                                         Scheme::kLetFlow, Scheme::kConga,
                                         Scheme::kPresto, Scheme::kTlb),
                       ::testing::Values(1, 2)));

TEST(FatTreeExperiment, DeterministicForSameSeed) {
  const auto a = runExperiment(fatTreeConfig(Scheme::kTlb, 5));
  const auto b = runExperiment(fatTreeConfig(Scheme::kTlb, 5));
  ASSERT_EQ(a.ledger.size(), b.ledger.size());
  for (std::size_t i = 0; i < a.ledger.size(); ++i) {
    EXPECT_EQ(a.ledger.flows()[i].fct, b.ledger.flows()[i].fct);
  }
  EXPECT_EQ(a.auditViolations, 0u);
}

TEST(FatTreeExperiment, TlbInstancesLiveAtBothTiers) {
  // TLB runs on 8 edge + 8 aggregation switches, each labelled by its
  // switch name.
  obs::MetricsRegistry metrics;
  const Experiment exp(fatTreeConfig(Scheme::kTlb));
  const auto res = exp.run({.metrics = &metrics});
  EXPECT_EQ(res.ledger.size(), exp.config().flows.size());
  EXPECT_EQ(res.auditViolations, 0u);
  const auto ticks = [&](const std::string& sw) {
    const obs::Counter* c = metrics.findCounter("tlb." + sw + ".control_ticks");
    return c != nullptr ? c->value() : 0u;
  };
  EXPECT_GT(ticks("edge0.0"), 0u);
  EXPECT_GT(ticks("agg3.1"), 0u);
  EXPECT_EQ(metrics.findCounter("tlb.core0.control_ticks"), nullptr);
  // Link obs stay at the first decision tier.
  EXPECT_NE(metrics.findCounter("port.edge0.0->agg0.1.tx_packets"), nullptr);
  EXPECT_EQ(metrics.findCounter("port.agg0.0->core0.tx_packets"), nullptr);
}

TEST(FatTreeExperiment, HardStopRespected) {
  auto cfg = fatTreeConfig(Scheme::kEcmp);
  cfg.maxDuration = microseconds(100);
  const auto res = runExperiment(cfg);
  EXPECT_LE(res.endTime, microseconds(100) + microseconds(1));
  EXPECT_LT(res.ledger.completedCount([](const auto&) { return true; }),
            res.ledger.size());
  EXPECT_EQ(res.auditViolations, 0u);
}

TEST(FatTreeExperiment, AuditedAppRunLeavesNoOrphans) {
  // Partition-aggregate queries spread over every edge switch, with
  // duplicate requests: many short RPC flows reuse drained endpoints, so
  // a pair reused while a packet of its flow was still on a six-hop path
  // would orphan it. The audit counts an orphan as a violation, so zero
  // violations means zero orphans.
  ExperimentConfig cfg;
  cfg.fatTree.emplace().k = 4;
  cfg.scheme.scheme = Scheme::kTlb;
  cfg.audit = ExperimentConfig::Audit::kOn;
  cfg.app.queries = 60;
  cfg.app.fanOut = 8;
  cfg.app.placement = app::Placement::kSpread;
  cfg.app.duplicateThreshold = 64 * kKB;
  const auto res = runExperiment(cfg);
  EXPECT_EQ(res.appQueriesCompleted, 60);
  EXPECT_GT(res.appDuplicates, 0u);
  EXPECT_GT(res.auditTicks, 0u);
  EXPECT_EQ(res.auditViolations, 0u);
}

TEST(FatTreeExperimentDeathTest, RejectsAFaultPlan) {
  auto cfg = fatTreeConfig(Scheme::kEcmp);
  cfg.fault.events.push_back({});
  EXPECT_DEATH(runExperiment(cfg), "fault plans name leaf-spine links");
}

}  // namespace
}  // namespace tlbsim::harness

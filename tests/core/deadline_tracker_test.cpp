#include "core/deadline_tracker.hpp"

#include <gtest/gtest.h>

#include "core/tlb.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tlbsim::core {
namespace {

TEST(DeadlineTracker, EmptyReturnsFallback) {
  DeadlineTracker t;
  EXPECT_EQ(t.percentile(25.0, milliseconds(10)), milliseconds(10));
  EXPECT_EQ(t.sampleCount(), 0u);
}

TEST(DeadlineTracker, IgnoresNonPositiveDeadlines) {
  DeadlineTracker t;
  t.observe(0_ns);
  t.observe(-5_ns);
  EXPECT_EQ(t.sampleCount(), 0u);
  EXPECT_EQ(t.observedCount(), 0u);
}

TEST(DeadlineTracker, PercentilesOfUniformDistribution) {
  DeadlineTracker t(4096, 1);
  Rng rng(2);
  // Uniform [5 ms, 25 ms], as in the paper's evaluation.
  for (int i = 0; i < 4000; ++i) {
    t.observe(SimTime::fromNs(
        rng.uniformInt(milliseconds(5).ns(), milliseconds(25).ns())));
  }
  // 25th percentile ~ 10 ms, 50th ~ 15 ms, 75th ~ 20 ms.
  EXPECT_NEAR(toMilliseconds(t.percentile(25, 0_ns)), 10.0, 1.0);
  EXPECT_NEAR(toMilliseconds(t.percentile(50, 0_ns)), 15.0, 1.0);
  EXPECT_NEAR(toMilliseconds(t.percentile(75, 0_ns)), 20.0, 1.0);
}

TEST(DeadlineTracker, ExtremePercentilesClamp) {
  DeadlineTracker t;
  t.observe(milliseconds(5));
  t.observe(milliseconds(10));
  t.observe(milliseconds(15));
  EXPECT_EQ(t.percentile(0, 0_ns), milliseconds(5));
  EXPECT_EQ(t.percentile(100, 0_ns), milliseconds(15));
  EXPECT_EQ(t.percentile(-3, 0_ns), milliseconds(5));
  EXPECT_EQ(t.percentile(250, 0_ns), milliseconds(15));
}

TEST(DeadlineTracker, ReservoirStaysBounded) {
  DeadlineTracker t(/*capacity=*/64, 3);
  for (int i = 0; i < 10000; ++i) t.observe(milliseconds(i % 20 + 1));
  EXPECT_EQ(t.sampleCount(), 64u);
  EXPECT_EQ(t.observedCount(), 10000u);
  // The sample still represents the distribution roughly.
  EXPECT_GT(t.percentile(50, 0_ns), milliseconds(4));
  EXPECT_LT(t.percentile(50, 0_ns), milliseconds(17));
}

// ------------------------------------- integration with TLB ------------

net::UplinkView makeView(int n) {
  net::UplinkView v;
  for (int i = 0; i < n; ++i) {
    v.push_back(net::PortView{i, 0_B, 1e9, 0.0});
  }
  return v;
}

TEST(TlbAutoDeadline, EffectiveDeadlineTracksSynTags) {
  sim::Simulator simr;
  net::PacketStore store;
  net::Switch sw(simr, store, "leaf");
  TlbConfig cfg;
  cfg.autoDeadline = true;
  cfg.deadlinePercentile = 25.0;
  cfg.deadline = milliseconds(99);  // fallback, should be replaced
  Tlb tlb(cfg, 8, 1);
  tlb.attach(sw, simr);

  Rng rng(4);
  const auto view = makeView(8);
  for (FlowId f = 1; f <= 400; ++f) {
    net::Packet syn;
    syn.flow = f;
    syn.type = net::PacketType::kSyn;
    syn.size = 40_B;
    syn.deadline = SimTime::fromNs(
        rng.uniformInt(milliseconds(5).ns(), milliseconds(25).ns()));
    tlb.selectUplink(syn, view);
  }
  tlb.controlTick();
  EXPECT_NEAR(toMilliseconds(tlb.effectiveDeadline()), 10.0, 1.5);
}

TEST(TlbAutoDeadline, FallbackBeforeAnyObservation) {
  TlbConfig cfg;
  cfg.autoDeadline = true;
  cfg.deadline = milliseconds(7);
  Tlb tlb(cfg, 8, 1);
  tlb.controlTick();
  EXPECT_EQ(tlb.effectiveDeadline(), milliseconds(7));
}

TEST(TlbAutoDeadline, DisabledModeKeepsConfiguredDeadline) {
  TlbConfig cfg;
  cfg.autoDeadline = false;
  cfg.deadline = milliseconds(12);
  Tlb tlb(cfg, 8, 1);
  const auto view = makeView(8);
  net::Packet syn;
  syn.flow = 1;
  syn.type = net::PacketType::kSyn;
  syn.deadline = milliseconds(3);
  tlb.selectUplink(syn, view);
  tlb.controlTick();
  EXPECT_EQ(tlb.effectiveDeadline(), milliseconds(12));
}

}  // namespace
}  // namespace tlbsim::core

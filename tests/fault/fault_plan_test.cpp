// FaultPlan grammar: parsing, validation, canonical round-trip, and the
// harness override vocabulary (fault.link / fault.drain).
#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include "harness/overrides.hpp"

namespace tlbsim::fault {
namespace {

using Kind = FaultEvent::Kind;

TEST(FaultPlanParse, DownUpPair) {
  FaultPlan plan;
  ASSERT_TRUE(parseLinkFaults("leaf0-spine1,down@0.1s,up@0.3s", &plan));
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0],
            (FaultEvent{0, 1, milliseconds(100), Kind::kDown, 0.0}));
  EXPECT_EQ(plan.events[1],
            (FaultEvent{0, 1, milliseconds(300), Kind::kUp, 0.0}));
}

TEST(FaultPlanParse, AllKindsAndTimeUnits) {
  FaultPlan plan;
  ASSERT_TRUE(parseLinkFaults(
      "leaf2-spine3,rate=0.25@30ms,delay=4@250us,drop=0.05@1500ns,up@1s",
      &plan));
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].kind, Kind::kRateFactor);
  EXPECT_DOUBLE_EQ(plan.events[0].value, 0.25);
  EXPECT_EQ(plan.events[0].at, milliseconds(30));
  EXPECT_EQ(plan.events[1].kind, Kind::kDelayFactor);
  EXPECT_EQ(plan.events[1].at, microseconds(250));
  EXPECT_EQ(plan.events[2].kind, Kind::kDropProb);
  EXPECT_EQ(plan.events[2].at, 1500_ns);
  EXPECT_EQ(plan.events[3].kind, Kind::kUp);
  EXPECT_EQ(plan.events[3].at, seconds(1));
  for (const auto& ev : plan.events) {
    EXPECT_EQ(ev.leaf, 2);
    EXPECT_EQ(ev.spine, 3);
  }
}

TEST(FaultPlanParse, SemicolonJoinsLinks) {
  FaultPlan plan;
  ASSERT_TRUE(parseLinkFaults(
      "leaf0-spine0,down@1ms;leaf1-spine2,drop=0.5@2ms", &plan));
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].leaf, 0);
  EXPECT_EQ(plan.events[1].leaf, 1);
  EXPECT_EQ(plan.events[1].spine, 2);
}

TEST(FaultPlanParse, AppendsAcrossCalls) {
  FaultPlan plan;
  ASSERT_TRUE(parseLinkFaults("leaf0-spine0,down@1ms", &plan));
  ASSERT_TRUE(parseLinkFaults("leaf0-spine1,down@2ms", &plan));
  EXPECT_EQ(plan.events.size(), 2u);
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                              // empty
      "bogus",                         // no link name
      "leaf0-spine1",                  // no action
      "leaf0-spine1,down",             // no time
      "leaf0-spine1,down@10",          // missing time unit
      "leaf0-spine1,down@-1ms",        // negative time
      "leaf0-spine1,explode@1ms",      // unknown action
      "leafX-spine1,down@1ms",         // bad leaf index
      "leaf0-spine1,rate=0@1ms",       // rate factor must be > 0
      "leaf0-spine1,rate=1.5@1ms",     // rate factor must be <= 1
      "leaf0-spine1,delay=0.5@1ms",    // delay factor must be >= 1
      "leaf0-spine1,drop=1.5@1ms",     // probability above 1
      "leaf0-spine1,drop=-0.1@1ms",    // probability below 0
      "leaf0-spine1,down@1ms;;",       // empty linkspec after ';'
  };
  for (const char* spec : bad) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(parseLinkFaults(spec, &plan, &error)) << spec;
    EXPECT_TRUE(plan.events.empty()) << spec << " mutated the plan";
    EXPECT_FALSE(error.empty()) << spec << " produced no error message";
  }
}

TEST(FaultPlanParse, RejectsNonFiniteAndOverflowingTimes) {
  const char* bad[] = {
      "leaf0-spine1,down@nanms",         // not a number
      "leaf0-spine1,down@infs",          // infinite
      "leaf0-spine1,down@-infus",        // infinite, negative
      "leaf0-spine1,down@1e999s",        // past double
      "leaf0-spine1,down@1e300s",        // past the int64 ns clock
      "leaf0-spine1,down@9223372037s",   // just past it
      "leaf0-spine1,rate=nan@1ms",       // factors must be finite too
      "leaf0-spine1,delay=inf@1ms",
      "leaf0-spine1,drop=nan@1ms",
      "leaf4294967296-spine1,down@1ms",  // index past int
  };
  for (const char* spec : bad) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(parseLinkFaults(spec, &plan, &error)) << spec;
    EXPECT_TRUE(plan.events.empty()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
  std::string error;
  FaultPlan plan;
  EXPECT_FALSE(parseLinkFaults("leaf0-spine1,down@1e300s", &plan, &error));
  EXPECT_NE(error.find("overflows"), std::string::npos) << error;
  // The clock's last whole second still fits.
  ASSERT_TRUE(parseLinkFaults("leaf0-spine1,down@9223372036s", &plan));
  EXPECT_EQ(plan.events.back().at, 9223372036 * kSecond);
}

TEST(FaultPlanParse, FailureLeavesExistingEventsUntouched) {
  FaultPlan plan;
  ASSERT_TRUE(parseLinkFaults("leaf0-spine0,down@1ms", &plan));
  EXPECT_FALSE(parseLinkFaults("leaf0-spine1,bogus", &plan));
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].kind, Kind::kDown);
}

TEST(FaultPlanToString, RoundTripIsCanonical) {
  FaultPlan plan;
  ASSERT_TRUE(parseLinkFaults(
      "leaf1-spine2,rate=0.25@30ms,rate=1@90ms;leaf0-spine1,down@0.1s,"
      "up@300ms",
      &plan));
  const std::string canonical = plan.toString();
  FaultPlan reparsed;
  ASSERT_TRUE(parseLinkFaults(canonical, &reparsed));
  EXPECT_EQ(reparsed.events, plan.events);
  EXPECT_EQ(reparsed.toString(), canonical) << "toString must be idempotent";
}

TEST(FaultPlanToString, UsesLargestExactUnit) {
  FaultPlan plan;
  ASSERT_TRUE(parseLinkFaults("leaf0-spine0,down@100ms,up@1500us", &plan));
  const std::string s = plan.toString();
  EXPECT_NE(s.find("down@100ms"), std::string::npos) << s;
  EXPECT_NE(s.find("up@1500us"), std::string::npos) << s;
}

TEST(FaultPlan, DisruptiveClassification) {
  EXPECT_TRUE((FaultEvent{0, 0, 0_ns, Kind::kDown, 0.0}).disruptive());
  EXPECT_FALSE((FaultEvent{0, 0, 0_ns, Kind::kUp, 0.0}).disruptive());
  EXPECT_TRUE((FaultEvent{0, 0, 0_ns, Kind::kRateFactor, 0.5}).disruptive());
  EXPECT_FALSE((FaultEvent{0, 0, 0_ns, Kind::kRateFactor, 1.0}).disruptive());
  EXPECT_TRUE((FaultEvent{0, 0, 0_ns, Kind::kDelayFactor, 2.0}).disruptive());
  EXPECT_FALSE((FaultEvent{0, 0, 0_ns, Kind::kDelayFactor, 1.0}).disruptive());
  EXPECT_TRUE((FaultEvent{0, 0, 0_ns, Kind::kDropProb, 0.01}).disruptive());
  EXPECT_FALSE((FaultEvent{0, 0, 0_ns, Kind::kDropProb, 0.0}).disruptive());
}

TEST(FaultPlan, FirstDisruptiveAt) {
  FaultPlan plan;
  EXPECT_EQ(plan.firstDisruptiveAt(), -1_ns);
  ASSERT_TRUE(parseLinkFaults(
      "leaf0-spine0,up@1ms,rate=1@2ms,down@5ms,down@3ms", &plan));
  EXPECT_EQ(plan.firstDisruptiveAt(), milliseconds(3));
}

TEST(FaultOverrides, FaultLinkAppendsAndFaultDrainSets) {
  harness::ExperimentConfig cfg;
  std::string err;
  ASSERT_TRUE(harness::applyOverrides(
      cfg,
      {"fault.link=leaf0-spine1,down@0.1s,up@0.3s",
       "fault.link=leaf1-spine0,drop=0.05@50ms", "fault.drain=true"},
      &err))
      << err;
  EXPECT_EQ(cfg.fault.events.size(), 3u);
  EXPECT_TRUE(cfg.fault.drainOnDown);
  EXPECT_EQ(cfg.fault.events[2].kind, Kind::kDropProb);
}

TEST(FaultOverrides, BadFaultValueIsRejected) {
  harness::ExperimentConfig cfg;
  std::string err;
  EXPECT_FALSE(harness::applyOverride(cfg, "fault.link", "bogus", &err));
  EXPECT_FALSE(err.empty());
  EXPECT_TRUE(cfg.fault.empty());
}

}  // namespace
}  // namespace tlbsim::fault

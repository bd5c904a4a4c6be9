#include "harness/overrides.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <utility>

namespace tlbsim::harness {
namespace {

/// Every field an override can set, as one comparable string.
std::string fingerprint(const ExperimentConfig& c) {
  std::ostringstream s;
  const auto& t = c.topo;
  const auto& tlb = c.scheme.tlb;
  const auto& a = c.app;
  s << schemeCliName(c.scheme.scheme) << ' ' << t.numLeaves << ' '
    << t.numSpines << ' ' << t.hostsPerLeaf << ' ' << t.bufferPackets << ' '
    << t.ecnThresholdPackets << ' ' << t.hostLinkRate.bitsPerSecond() << ' '
    << t.fabricLinkRate.bitsPerSecond() << ' ' << t.linkDelay.ns() << ' '
    << c.tcp.enableEcn << c.tcp.holeRetransmitGuard << ' ' << c.tcp.minRto.ns()
    << ' ' << tlb.updateInterval.ns() << ' ' << tlb.idleTimeout.ns() << ' '
    << tlb.shortFlowThreshold.bytes() << ' ' << tlb.sprayStickiness.bytes()
    << ' ' << tlb.deadline.ns() << ' ' << c.scheme.flowletTimeout.ns() << ' '
    << c.scheme.prestoCellBytes.bytes() << ' ' << c.scheme.fixedK << ' '
    << c.maxDuration.ns() << ' ' << c.sampleInterval.ns() << ' ' << a.queries
    << ' ' << a.fanOut << ' ' << static_cast<int>(a.arrival) << ' ' << a.qps
    << ' ' << a.concurrency << ' ' << a.thinkTime.ns() << ' '
    << a.requestBytes.bytes() << ' ' << static_cast<int>(a.responseDist)
    << ' ' << a.responseBytes.bytes() << ' ' << a.serviceTime.ns() << ' '
    << a.slo.ns() << ' ' << a.timeout.ns() << ' ' << a.maxRetries << ' '
    << a.duplicateThreshold.bytes() << ' ' << static_cast<int>(a.placement)
    << ' ' << a.aggregator << ' ' << c.fault.toString() << ' '
    << c.fault.drainOnDown;
  return s.str();
}

/// The config `flag value` builds through its sugar.
ExperimentConfig viaFlag(const std::string& flag, const std::string& value) {
  std::vector<std::string> overrides;
  std::string err;
  EXPECT_TRUE(flagOverrides(flag, value, &overrides, &err)) << err;
  ExperimentConfig cfg;
  EXPECT_TRUE(applyOverrides(cfg, overrides, &err)) << err;
  return cfg;
}

TEST(Overrides, AppliesTypedValues) {
  ExperimentConfig cfg;
  EXPECT_TRUE(applyOverride(cfg, "topo.buffer", "128"));
  EXPECT_EQ(cfg.topo.bufferPackets, 128);
  EXPECT_TRUE(applyOverride(cfg, "scheme", "letflow"));
  EXPECT_EQ(cfg.scheme.scheme, Scheme::kLetFlow);
  EXPECT_TRUE(applyOverride(cfg, "tlb.update-interval-us", "250"));
  EXPECT_EQ(cfg.scheme.tlb.updateInterval, microseconds(250));
  EXPECT_TRUE(applyOverride(cfg, "tcp.hole-guard", "false"));
  EXPECT_FALSE(cfg.tcp.holeRetransmitGuard);
}

TEST(Overrides, EcnThresholdKeepsTcpEcnConsistent) {
  ExperimentConfig cfg;
  EXPECT_TRUE(applyOverride(cfg, "topo.ecn-k", "0"));
  EXPECT_FALSE(cfg.tcp.enableEcn);
  EXPECT_TRUE(applyOverride(cfg, "topo.ecn-k", "65"));
  EXPECT_TRUE(cfg.tcp.enableEcn);
  EXPECT_EQ(cfg.topo.ecnThresholdPackets, 65);
}

TEST(Overrides, RejectsUnknownKeyWithExplanation) {
  ExperimentConfig cfg;
  std::string err;
  EXPECT_FALSE(applyOverride(cfg, "no.such.key", "1", &err));
  EXPECT_NE(err.find("no.such.key"), std::string::npos);
}

TEST(Overrides, RejectsGarbageValuesInsteadOfDefaulting) {
  ExperimentConfig cfg;
  const int before = cfg.topo.bufferPackets;
  std::string err;
  EXPECT_FALSE(applyOverride(cfg, "topo.buffer", "many", &err));
  EXPECT_EQ(cfg.topo.bufferPackets, before);
  EXPECT_FALSE(applyOverride(cfg, "topo.buffer", "128x", &err));
  EXPECT_FALSE(applyOverride(cfg, "scheme", "no-such-scheme", &err));
  EXPECT_FALSE(applyOverride(cfg, "topo.rate-gbps", "-1", &err));
}

// A value parses only in full: no blanks, no '+', no hex, no suffix.
TEST(Overrides, RejectsAnythingButTheWholeNumber) {
  const std::pair<const char*, const char*> bad[] = {
      {"topo.buffer", " 64"},       {"topo.buffer", "64 "},
      {"topo.buffer", "+64"},       {"topo.buffer", "0x40"},
      {"topo.buffer", ""},          {"topo.rate-gbps", " 10"},
      {"topo.rate-gbps", "0x1p3"},  {"tlb.deadline-ms", "5ms"},
      {"tcp.hole-guard", " true"},
  };
  ExperimentConfig cfg;
  const std::string before = fingerprint(cfg);
  for (const auto& [key, value] : bad) {
    std::string err;
    EXPECT_FALSE(applyOverride(cfg, key, value, &err)) << key << "=" << value;
    EXPECT_NE(err.find(key), std::string::npos) << err;
  }
  EXPECT_EQ(fingerprint(cfg), before);
  EXPECT_TRUE(applyOverride(cfg, "topo.rate-gbps", "1e1"));
  EXPECT_TRUE(applyOverride(cfg, "tlb.deadline-ms", ".5"));
  EXPECT_EQ(cfg.scheme.tlb.deadline, microseconds(500));
}

TEST(Overrides, RejectsRealsThatAreNotFinite) {
  const char* keys[] = {"topo.rate-gbps", "app.qps", "max-duration-ms",
                        "topo.rtt-us", "app.timeout-ms"};
  ExperimentConfig cfg;
  const std::string before = fingerprint(cfg);
  for (const char* key : keys) {
    for (const char* value : {"inf", "-inf", "infinity", "nan", "1e999"}) {
      std::string err;
      EXPECT_FALSE(applyOverride(cfg, key, value, &err))
          << key << "=" << value;
      EXPECT_NE(err.find(value), std::string::npos) << err;
    }
  }
  EXPECT_EQ(fingerprint(cfg), before);
}

// A time's integer nanoseconds must fit the clock: 2^63 ns is 292 years.
TEST(Overrides, RejectsTimesBeyondTheClock) {
  const std::pair<const char*, const char*> bad[] = {
      {"max-duration-ms", "1e13"},   {"max-duration-ms", "1e300"},
      {"topo.rtt-us", "1e16"},       {"tlb.idle-timeout-us", "9.3e15"},
      {"app.slo-ms", "9.3e12"},      {"sample-interval-us", "1e308"},
  };
  ExperimentConfig cfg;
  const std::string before = fingerprint(cfg);
  for (const auto& [key, value] : bad) {
    std::string err;
    EXPECT_FALSE(applyOverride(cfg, key, value, &err)) << key << "=" << value;
    EXPECT_NE(err.find("overflows"), std::string::npos) << err;
  }
  EXPECT_EQ(fingerprint(cfg), before);
  // The largest times that fit are still accepted, exactly as before.
  ASSERT_TRUE(applyOverride(cfg, "max-duration-ms", "9.2e12"));
  EXPECT_EQ(cfg.maxDuration, milliseconds(9.2e12));
  ASSERT_TRUE(applyOverride(cfg, "topo.rtt-us", "100.004"));
  EXPECT_EQ(cfg.topo.linkDelay, microseconds(100.004 / 8.0));
}

TEST(Overrides, ListAppliesInOrderAndStopsAtFirstFailure) {
  ExperimentConfig cfg;
  std::string err;
  EXPECT_TRUE(applyOverrides(
      cfg, {"topo.buffer=32", "topo.buffer=64", "scheme=rps"}, &err));
  EXPECT_EQ(cfg.topo.bufferPackets, 64);
  EXPECT_EQ(cfg.scheme.scheme, Scheme::kRps);

  EXPECT_FALSE(applyOverrides(cfg, {"topo.buffer=96", "nonsense"}, &err));
  EXPECT_EQ(cfg.topo.bufferPackets, 96) << "prefix before the failure applies";
  EXPECT_NE(err.find("key=value"), std::string::npos);
}

TEST(Overrides, FlagSpellingsMatchTheirKeys) {
  const struct {
    const char* flag;
    const char* value;
    std::vector<std::string> keys;
  } cases[] = {
      {"scheme", "letflow", {"scheme=letflow"}},
      {"leaves", "3", {"topo.leaves=3"}},
      {"spines", "5", {"topo.spines=5"}},
      {"hosts-per-leaf", "6", {"topo.hosts-per-leaf=6"}},
      {"buffer", "100", {"topo.buffer=100"}},
      {"ecn-k", "0", {"topo.ecn-k=0"}},
      {"rate-gbps", "10", {"topo.rate-gbps=10"}},
      {"rtt-us", "80", {"topo.rtt-us=80"}},
      {"classic-tcp", "", {"tcp.hole-guard=false"}},
      {"fault", "leaf0-spine1,down@5ms", {"fault.link=leaf0-spine1,down@5ms"}},
      {"fault-drain", "", {"fault.drain=true"}},
      {"app", "queries=10,fan-out=4", {"app.queries=10", "app.fan-out=4"}},
      {"topo.buffer", "64", {"topo.buffer=64"}},
  };
  for (const auto& c : cases) {
    ExperimentConfig byKey;
    ASSERT_TRUE(applyOverrides(byKey, c.keys)) << c.flag;
    EXPECT_EQ(fingerprint(viaFlag(c.flag, c.value)), fingerprint(byKey))
        << c.flag;
    EXPECT_NE(fingerprint(byKey), fingerprint(ExperimentConfig{})) << c.flag;
  }
}

TEST(Overrides, SwitchesReadBoolsFromConfigFiles) {
  EXPECT_EQ(flagArity("classic-tcp"), FlagArity::kSwitch);
  EXPECT_EQ(flagArity("fault-drain"), FlagArity::kSwitch);
  EXPECT_EQ(flagArity("tcp.hole-guard"), FlagArity::kValue);
  EXPECT_EQ(flagArity("leaves"), FlagArity::kValue);
  EXPECT_EQ(flagArity("app"), FlagArity::kValue);
  EXPECT_EQ(flagArity("no-such-flag"), FlagArity::kUnknown);

  EXPECT_FALSE(viaFlag("classic-tcp", "true").tcp.holeRetransmitGuard);
  EXPECT_TRUE(viaFlag("classic-tcp", "false").tcp.holeRetransmitGuard);
  EXPECT_FALSE(viaFlag("fault-drain", "no").fault.drainOnDown);

  std::vector<std::string> out;
  std::string err;
  EXPECT_FALSE(flagOverrides("classic-tcp", "maybe", &out, &err));
  EXPECT_FALSE(flagOverrides("no-such-flag", "1", &out, &err));
  EXPECT_NE(err.find("--no-such-flag"), std::string::npos);
  EXPECT_TRUE(out.empty());
}

TEST(Overrides, EveryRangeRuleRejectsItsBadValueAndKeepsTheConfig) {
  const std::pair<const char*, const char*> bad[] = {
      {"topo.leaves", "0"},
      {"topo.spines", "0"},
      {"topo.hosts-per-leaf", "0"},
      {"topo.buffer", "0"},
      {"topo.ecn-k", "-1"},
      {"topo.rate-gbps", "0"},
      {"topo.rtt-us", "0"},
      {"tcp.min-rto-us", "-1"},
      {"tlb.update-interval-us", "0"},
      {"tlb.idle-timeout-us", "-1"},
      {"tlb.short-threshold-bytes", "-1"},
      {"tlb.spray-stickiness-bytes", "-1"},
      {"tlb.deadline-ms", "0"},
      {"scheme.flowlet-timeout-us", "-1"},
      {"scheme.presto-cell-bytes", "0"},
      {"scheme.fixed-k", "-1"},
      {"max-duration-ms", "0"},
      {"sample-interval-us", "-1"},
      {"app.queries", "-1"},
      {"app.fan-out", "0"},
      {"app.qps", "0"},
      {"app.concurrency", "-1"},
      {"app.think-time-us", "-1"},
      {"app.request-bytes", "-1"},
      {"app.response-bytes", "-1"},
      {"app.service-time-us", "-1"},
      {"app.slo-ms", "-1"},
      {"app.timeout-ms", "-1"},
      {"app.max-retries", "-1"},
      {"app.duplicate-threshold-bytes", "-1"},
      {"app.aggregator", "-2"},
  };
  // Keys whose values are names, bools or fault specs: no range rule.
  std::set<std::string> unranged = {"scheme",      "tcp.hole-guard",
                                    "app.arrival", "app.response-dist",
                                    "app.placement", "fault.link",
                                    "fault.drain"};
  ExperimentConfig cfg;
  ASSERT_TRUE(applyOverride(cfg, "topo.buffer", "200"));
  const std::string before = fingerprint(cfg);
  for (const auto& [key, value] : bad) {
    std::string err;
    EXPECT_FALSE(applyOverride(cfg, key, value, &err)) << key;
    EXPECT_NE(err.find("must be"), std::string::npos) << key << ": " << err;
    EXPECT_EQ(fingerprint(cfg), before) << key;
    unranged.insert(key);
  }
  for (const std::string& line : overrideHelp()) {
    const std::string key = line.substr(0, line.find(' '));
    EXPECT_EQ(unranged.count(key), 1u) << key << " has no range case here";
  }
}

TEST(Overrides, CheckConfigRejectsCrossFieldContradictions) {
  ExperimentConfig cfg;
  ASSERT_TRUE(applyOverrides(cfg, {"topo.buffer=64", "topo.ecn-k=64"}));
  std::string err;
  EXPECT_TRUE(checkConfig(cfg, &err)) << err;
  ASSERT_TRUE(applyOverride(cfg, "topo.ecn-k", "65"));
  EXPECT_FALSE(checkConfig(cfg, &err));
  EXPECT_NE(err.find("topo.ecn-k"), std::string::npos);

  ExperimentConfig faulty;  // 2 leaves x 15 spines
  ASSERT_TRUE(applyOverride(faulty, "fault.link", "leaf1-spine14,down@1ms"));
  EXPECT_TRUE(checkConfig(faulty, &err)) << err;
  ASSERT_TRUE(applyOverride(faulty, "fault.link", "leaf2-spine0,down@1ms"));
  EXPECT_FALSE(checkConfig(faulty, &err));
  EXPECT_NE(err.find("leaf2-spine0"), std::string::npos);

  // Fault factors must leave every time they scale inside the clock. The
  // plan's extreme factor on a link counts, whatever its order. The first
  // two overflow the scaled delay and a segment's serialization; the third
  // fits them, but not a full-buffer round trip over four such hops.
  for (const char* spec : {"leaf0-spine1,delay=1e300@1ms",
                           "leaf0-spine1,rate=1e-300@1ms,rate=1@2ms",
                           "leaf1-spine3,delay=2e14@1ms"}) {
    ExperimentConfig scaled;
    ASSERT_TRUE(applyOverride(scaled, "fault.link", spec)) << spec;
    EXPECT_FALSE(checkConfig(scaled, &err)) << spec;
    EXPECT_NE(err.find(std::string(spec, 12) + ": rate factor"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("simulated clock"), std::string::npos) << err;
  }
  // Large factors whose times still fit are the run's to keep.
  ExperimentConfig slow;
  ASSERT_TRUE(applyOverride(slow, "fault.link",
                            "leaf0-spine1,delay=1e13@1ms,rate=1e-9@2ms"));
  EXPECT_TRUE(checkConfig(slow, &err)) << err;
}

TEST(Overrides, HelpCoversEveryKey) {
  const auto help = overrideHelp();
  EXPECT_GE(help.size(), 15u);
  ExperimentConfig cfg;
  for (const std::string& line : help) {
    const std::string key = line.substr(0, line.find(' '));
    // Every documented key must be recognized (value may still be bad).
    std::string err;
    applyOverride(cfg, key, "not-a-value", &err);
    EXPECT_EQ(err.find("unknown override key"), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace tlbsim::harness

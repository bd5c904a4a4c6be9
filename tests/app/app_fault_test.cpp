// Robustness of the per-query state machine against link faults: the
// ISSUE's two hard acceptance checks. A query whose worker path is killed
// mid-flight must recover via the app-level retry timer (not TCP's RTO),
// and no query may ever hang past maxDuration — with the InvariantAuditor's
// open-query accounting green throughout.
#include <gtest/gtest.h>

#include <string>

#include "app/query_probe.hpp"
#include "fault/plan.hpp"
#include "harness/experiment.hpp"

namespace tlbsim::app {
namespace {

using harness::ExperimentConfig;
using harness::Scheme;

/// 2 leaves x 2 spines, one query from host 0; every uplink silently
/// drops all packets from t=0 (a gray failure: links stay "up", selectors
/// keep using them) until `healAt`.
ExperimentConfig grayFailureConfig(SimTime healAt) {
  ExperimentConfig cfg;
  cfg.topo.numLeaves = 2;
  cfg.topo.numSpines = 2;
  cfg.topo.hostsPerLeaf = 2;
  cfg.scheme.scheme = Scheme::kEcmp;
  cfg.seed = 17;
  cfg.maxDuration = seconds(2);
  cfg.audit = ExperimentConfig::Audit::kOn;

  cfg.app.queries = 1;
  cfg.app.fanOut = 2;
  cfg.app.concurrency = 1;
  cfg.app.placement = Placement::kSpread;
  cfg.app.responseBytes = 8 * kKB;
  cfg.app.slo = milliseconds(10);
  cfg.app.timeout = milliseconds(10);
  cfg.app.maxRetries = 6;
  // TCP must not be the recoverer: with its RTO floored at 200 ms, only
  // the app-layer retry (fresh flows at 10 ms intervals) can finish the
  // query before that.
  cfg.tcp.minRto = milliseconds(200);

  std::string spec;
  for (int leaf = 0; leaf < 2; ++leaf) {
    for (int spine = 0; spine < 2; ++spine) {
      if (!spec.empty()) spec += ";";
      spec += "leaf" + std::to_string(leaf) + "-spine" +
              std::to_string(spine) + ",drop=1@0us,drop=0@" +
              std::to_string(static_cast<long long>(
                  toMicroseconds(healAt))) +
              "us";
    }
  }
  EXPECT_TRUE(fault::parseLinkFaults(spec, &cfg.fault));
  return cfg;
}

TEST(AppFault, QueryRecoversThroughRetryNotTcpRto) {
  const SimTime healAt = milliseconds(25);
  auto cfg = grayFailureConfig(healAt);
  QueryProbe probe;
  const auto res = harness::runExperiment(cfg, {.queries = &probe});

  // The query must complete, and complete through an app retry: after the
  // fabric heals at 25 ms, the first retry past the heal (at 30 ms) wins,
  // far before TCP's 200 ms RTO floor could resurrect the dead attempts.
  ASSERT_EQ(res.appQueriesCompleted, 1);
  EXPECT_GE(res.appRetries, 2u);  // timers at 10/20 ms fired into the fault
  const QueryRecord* r = probe.find(0);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->completed);
  EXPECT_GT(r->qct, healAt);
  EXPECT_LT(r->qct, milliseconds(200));
  EXPECT_TRUE(r->sloMiss);  // 10 ms SLO is long gone
  EXPECT_GE(r->retryEvents.size(), 2u);
  // Fresh flows per retry: strictly more than the fault-free 4.
  EXPECT_GT(res.appRpcFlows, 4u);
  EXPECT_EQ(res.auditViolations, 0u);
}

TEST(AppFault, NoQueryHangsPastMaxDuration) {
  // The fabric never heals and retries are capped: the query can never
  // complete. The run must still terminate at maxDuration with the books
  // balanced — the query finalized as an incomplete SLO miss, and the
  // auditor's open-query accounting clean for the whole run.
  auto cfg = grayFailureConfig(/*healAt=*/seconds(10));
  cfg.maxDuration = milliseconds(50);
  cfg.app.maxRetries = 2;
  QueryProbe probe;
  const auto res = harness::runExperiment(cfg, {.queries = &probe});

  EXPECT_LE(res.endTime, milliseconds(50));
  EXPECT_EQ(res.appQueriesLaunched, 1);
  EXPECT_EQ(res.appQueriesCompleted, 0);
  EXPECT_EQ(res.appSloMisses, 1);  // finalize() books the straggler
  EXPECT_EQ(res.appQctSeconds.count(), 0u);
  const QueryRecord* r = probe.find(0);
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->completed);
  EXPECT_TRUE(r->sloMiss);
  EXPECT_EQ(r->retries, 2);
  EXPECT_EQ(res.auditViolations, 0u);
}

TEST(AppFault, RpcFlowsAreClassifiedBySize) {
  // App-only traffic through a link that goes down and comes back. Every
  // RPC flow (the default 2 KB requests and 32 KB responses) is below
  // shortThreshold, so none of them may count as an affected long flow:
  // the fault monitor classifies service-minted flows by their spec size,
  // not by absence from the (empty) static short-flow set.
  ExperimentConfig cfg;
  cfg.topo.numLeaves = 4;
  cfg.topo.numSpines = 4;
  cfg.topo.hostsPerLeaf = 8;
  cfg.scheme.scheme = Scheme::kTlb;
  cfg.seed = 1;
  cfg.app.queries = 200;
  cfg.app.fanOut = 8;
  ASSERT_LT(cfg.app.responseBytes, cfg.shortThreshold);
  ASSERT_TRUE(
      fault::parseLinkFaults("leaf0-spine1,down@5ms,up@50ms", &cfg.fault));
  const auto res = harness::runExperiment(cfg);

  ASSERT_EQ(res.appQueriesCompleted, 200);
  EXPECT_EQ(res.faultEventsApplied, 2u);
  EXPECT_GT(res.faultDrops, 0u);  // the fault did hit RPC traffic
  EXPECT_EQ(res.faultAffectedLongFlows, 0);
  EXPECT_EQ(res.faultReroutedLongFlows, 0);
}

}  // namespace
}  // namespace tlbsim::app

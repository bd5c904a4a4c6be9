#include "workloads.hpp"

#include <algorithm>
#include <utility>

#include "fault/plan.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/flow_size_dist.hpp"
#include "workload/traffic_gen.hpp"

namespace perfbench {

using namespace tlbsim;

namespace {

// Scaled-down sizes of the issue's workloads, so that one run takes about
// a second of host time and a measurement window holds ~20 of them.
constexpr int kWebsearchFlows = 250;
constexpr int kLossyFlows = 200;
constexpr int kIncastQueries = 800;

/// Inverse CDF of `dist` at `u`: the same piecewise-linear interpolation
/// FlowSizeDistribution::sample applies to its uniform draw.
ByteCount quantile(const workload::FlowSizeDistribution& dist, double u) {
  const auto& t = dist.table();
  if (u <= t.front().second) return t.front().first;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (u <= t[i].second) {
      const double c0 = t[i - 1].second;
      const double c1 = t[i].second;
      const double frac = c1 > c0 ? (u - c0) / (c1 - c0) : 1.0;
      const double s0 = static_cast<double>(t[i - 1].first.bytes());
      const double s1 = static_cast<double>(t[i].first.bytes());
      return ByteCount::fromBytes(s0 + frac * (s1 - s0));
    }
  }
  return t.back().first;
}

/// The CLI's web-search flow list (workload::poissonWorkload with the
/// CLI's capacity reference), with sizes re-drawn by stratified sampling:
/// flow i of n gets the quantile of one draw from [i/n, (i+1)/n), in a
/// seeded random order. Arrivals and host pairs stay the generator's. The
/// heavy tail then contributes the same bytes at every seed, so host time
/// tracks the code rather than which seed drew the 30 MB flows. Deadlines
/// are re-drawn to match the new short/long split, as the generator does.
std::vector<transport::FlowSpec> websearchFlows(const harness::ExperimentConfig& cfg,
                                                double load, int count) {
  Rng rng(cfg.seed);
  const auto dist = workload::FlowSizeDistribution::webSearch(30 * kMB);
  workload::PoissonConfig pcfg;
  pcfg.load = load;
  pcfg.flowCount = count;
  pcfg.numHosts = cfg.topo.numHosts();
  pcfg.hostsPerLeaf = cfg.topo.hostsPerLeaf;
  pcfg.hostRate = cfg.topo.hostLinkRate;
  pcfg.offeredCapacityBps = static_cast<double>(cfg.topo.numLeaves) *
                            static_cast<double>(cfg.topo.numSpines) *
                            cfg.topo.fabricLinkRate.bytesPerSecond();
  auto flows = workload::poissonWorkload(pcfg, dist, rng);

  std::vector<ByteCount> sizes;
  sizes.reserve(flows.size());
  const double n = static_cast<double>(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    sizes.push_back(
        quantile(dist, (static_cast<double>(i) + rng.uniform()) / n));
  }
  for (std::size_t i = sizes.size(); i > 1; --i) {
    std::swap(sizes[i - 1], sizes[static_cast<std::size_t>(rng.uniformInt(i))]);
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    auto& f = flows[i];
    f.size = sizes[i];
    f.deadline = f.size < pcfg.shortThreshold
                     ? SimTime::fromNs(rng.uniformInt(pcfg.deadlineMin.ns(),
                                                      pcfg.deadlineMax.ns()))
                     : SimTime{};
  }
  return flows;
}

/// The CLI's run defaults for a leaf-spine fabric.
harness::ExperimentConfig baseConfig(harness::Scheme scheme, int leaves,
                                     int spines, int hostsPerLeaf, int buffer,
                                     int ecnK, std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.topo.numLeaves = leaves;
  cfg.topo.numSpines = spines;
  cfg.topo.hostsPerLeaf = hostsPerLeaf;
  cfg.topo.hostLinkRate = gbps(1);
  cfg.topo.fabricLinkRate = gbps(1);
  cfg.topo.linkDelay = microseconds(100.0 / 8.0);
  cfg.topo.bufferPackets = buffer;
  cfg.topo.ecnThresholdPackets = ecnK;
  cfg.scheme.scheme = scheme;
  cfg.tcp.enableEcn = ecnK > 0;
  cfg.seed = seed;
  cfg.maxDuration = seconds(120);
  return cfg;
}

}  // namespace

std::optional<harness::ExperimentConfig> makeConfig(const std::string& name,
                                                    std::uint64_t seed) {
  if (name == "websearch_tlb") {
    auto cfg = baseConfig(harness::Scheme::kTlb, 8, 8, 16, 256, 65, seed);
    cfg.flows = websearchFlows(cfg, 0.8, kWebsearchFlows);
    return cfg;
  }
  if (name == "incast_app") {
    auto cfg = baseConfig(harness::Scheme::kTlb, 2, 15, 16, 256, 65, seed);
    cfg.app.queries = kIncastQueries;
    cfg.app.fanOut = 16;
    cfg.app.arrival = app::Arrival::kClosedLoop;
    cfg.app.concurrency = 4;
    cfg.app.placement = app::Placement::kSpread;
    cfg.app.responseDist = app::ResponseDist::kFixed;
    cfg.app.responseBytes = 32 * kKB;
    return cfg;
  }
  if (name == "lossy_ecmp") {
    auto cfg = baseConfig(harness::Scheme::kEcmp, 8, 8, 16, 32, 0, seed);
    cfg.flows = websearchFlows(cfg, 0.6, kLossyFlows);
    std::string err;
    const bool ok = fault::parseLinkFaults(
        "leaf0-spine1,down@0.5s,up@1s;leaf3-spine5,drop=0.01@0s", &cfg.fault,
        &err);
    TLBSIM_ASSERT(ok, "fault plan: %s", err.c_str());
    return cfg;
  }
  return std::nullopt;
}

std::size_t operations(const harness::ExperimentConfig& cfg) {
  return cfg.flows.size() + static_cast<std::size_t>(cfg.app.queries);
}

std::size_t failedOperations(const harness::ExperimentConfig& cfg,
                             const harness::ExperimentResult& res) {
  const std::size_t flowsDone =
      res.ledger.completedCount([](const auto&) { return true; });
  return operations(cfg) - flowsDone -
         static_cast<std::size_t>(res.appQueriesCompleted);
}

}  // namespace perfbench

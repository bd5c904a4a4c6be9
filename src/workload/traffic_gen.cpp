#include "workload/traffic_gen.hpp"

#include "util/check.hpp"
#include "util/parse.hpp"

namespace tlbsim::workload {

namespace {

int leafOf(int host, int hostsPerLeaf) { return host / hostsPerLeaf; }

/// `t` plus an inter-arrival gap of `gapSec` seconds, or SimTime::max()
/// once the sum lies past the clock: that flow, and every later one, never
/// starts and is reported incomplete.
SimTime afterGap(SimTime t, double gapSec) {
  const std::optional<SimTime> gap = util::delayFrom(t, gapSec, kSecond);
  return gap.has_value() ? t + *gap : SimTime::max();
}

}  // namespace

std::vector<transport::FlowSpec> poissonWorkload(
    const PoissonConfig& cfg, const FlowSizeDistribution& dist, Rng& rng,
    FlowId firstId) {
  TLBSIM_ASSERT(cfg.hostsPerLeaf >= 1 && cfg.numHosts > cfg.hostsPerLeaf,
                "poisson workload needs 2 leaves (%d hosts, %d per leaf)",
                cfg.numHosts, cfg.hostsPerLeaf);
  // Aggregate flow arrival rate: load * reference capacity / mean size.
  const double refCapacity =
      cfg.offeredCapacityBps > 0.0
          ? cfg.offeredCapacityBps
          : static_cast<double>(cfg.numHosts) * cfg.hostRate.bytesPerSecond();
  const double lambda = cfg.load * refCapacity / dist.meanBytes();
  const double meanGapSec = 1.0 / lambda;

  std::vector<transport::FlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(cfg.flowCount));
  SimTime t;
  for (int i = 0; i < cfg.flowCount; ++i) {
    t = afterGap(t, rng.exponential(meanGapSec));
    transport::FlowSpec f;
    f.id = firstId + static_cast<FlowId>(i);
    f.src = static_cast<net::HostId>(rng.uniformInt(
        static_cast<std::uint64_t>(cfg.numHosts)));
    do {
      f.dst = static_cast<net::HostId>(rng.uniformInt(
          static_cast<std::uint64_t>(cfg.numHosts)));
    } while (leafOf(f.dst, cfg.hostsPerLeaf) ==
             leafOf(f.src, cfg.hostsPerLeaf));
    f.size = dist.sample(rng);
    f.start = t;
    if (f.size < cfg.shortThreshold && cfg.deadlineMax > 0_ns) {
      f.deadline =
          SimTime::fromNs(rng.uniformInt(cfg.deadlineMin.ns(), cfg.deadlineMax.ns()));
    }
    flows.push_back(f);
  }
  return flows;
}

PoissonConfig poissonConfigFor(const net::LeafSpineConfig& topo, double load,
                               int flowCount) {
  PoissonConfig pcfg;
  pcfg.load = load;
  pcfg.flowCount = flowCount;
  pcfg.numHosts = topo.numHosts();
  pcfg.hostsPerLeaf = topo.hostsPerLeaf;
  pcfg.hostRate = topo.hostLinkRate;
  pcfg.offeredCapacityBps = static_cast<double>(topo.numLeaves) *
                            static_cast<double>(topo.numSpines) *
                            topo.fabricLinkRate.bytesPerSecond();
  return pcfg;
}

std::vector<transport::FlowSpec> basicMixWorkload(const BasicMixConfig& cfg,
                                                  Rng& rng, FlowId firstId) {
  // Long senders wrap around the leaf when numLong > hostsPerLeaf (several
  // long flows then share an access link).
  TLBSIM_ASSERT(cfg.numHosts == 2 * cfg.hostsPerLeaf,
                "basic mix assumes a 2-leaf topology (hosts=%d, hosts/leaf=%d)",
                cfg.numHosts, cfg.hostsPerLeaf);
  std::vector<transport::FlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(cfg.numShort + cfg.numLong));
  FlowId id = firstId;

  // Long flows: distinct sender/receiver pairs, all start at t=0.
  for (int i = 0; i < cfg.numLong; ++i) {
    transport::FlowSpec f;
    f.id = id++;
    f.src = static_cast<net::HostId>(i % cfg.hostsPerLeaf);
    f.dst = static_cast<net::HostId>(cfg.hostsPerLeaf + i % cfg.hostsPerLeaf);
    f.size = cfg.longSize;
    f.start = 0_ns;
    flows.push_back(f);
  }

  // Short flows: Poisson arrivals from random leaf-0 senders to random
  // leaf-1 receivers.
  SimTime t;
  for (int i = 0; i < cfg.numShort; ++i) {
    t = afterGap(t, rng.exponential(toSeconds(cfg.shortInterArrival)));
    transport::FlowSpec f;
    f.id = id++;
    f.src = static_cast<net::HostId>(
        rng.uniformInt(static_cast<std::uint64_t>(cfg.hostsPerLeaf)));
    f.dst = static_cast<net::HostId>(
        cfg.hostsPerLeaf +
        static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(cfg.hostsPerLeaf))));
    f.size = ByteCount::fromBytes(
        rng.uniformInt(cfg.shortMin.bytes(), cfg.shortMax.bytes()));
    f.start = t;
    f.deadline =
        SimTime::fromNs(rng.uniformInt(cfg.deadlineMin.ns(), cfg.deadlineMax.ns()));
    flows.push_back(f);
  }
  return flows;
}

std::optional<std::vector<transport::FlowSpec>> namedWorkload(
    const std::string& name, const net::LeafSpineConfig& topo, double load,
    int flowCount, Rng& rng, std::string* error) {
  const auto reject = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  const std::string leaves = std::to_string(topo.numLeaves);
  if (name == "none") return std::vector<transport::FlowSpec>{};
  if (name == "basicmix") {
    if (topo.numLeaves != 2) {
      return reject("basicmix needs exactly 2 leaves (this fabric has " +
                    leaves + ")");
    }
    BasicMixConfig mix;
    mix.numHosts = topo.numHosts();
    mix.hostsPerLeaf = topo.hostsPerLeaf;
    return basicMixWorkload(mix, rng);
  }
  if (name != "websearch" && name != "datamining") {
    return reject("unknown workload '" + name +
                  "' (websearch | datamining | basicmix | none)");
  }
  if (topo.numLeaves < 2) {
    return reject(name + " flows cross leaves, so it needs at least 2 "
                  "leaves (this fabric has " + leaves + ")");
  }
  const auto dist = name == "datamining"
                        ? FlowSizeDistribution::dataMining(35 * kMB)
                        : FlowSizeDistribution::webSearch(30 * kMB);
  return poissonWorkload(poissonConfigFor(topo, load, flowCount), dist, rng);
}

}  // namespace tlbsim::workload

#include "net/fat_tree.hpp"

#include <string>

#include "util/check.hpp"

namespace tlbsim::net {

FatTreeTopology::FatTreeTopology(sim::Simulator& simr,
                                 const FatTreeConfig& cfg,
                                 const SelectorFactory& makeSelector)
    : Fabric(simr), cfg_(cfg) {
  TLBSIM_ASSERT(cfg.k >= 2 && cfg.k % 2 == 0,
                "fat-tree k must be even and >= 2 (got %d)", cfg.k);
  const int half = cfg.k / 2;
  const QueueConfig qcfg{cfg.bufferPackets, cfg.ecnThresholdPackets};
  const int edges = cfg.k * half;
  reserve(cfg.numHosts(), 2 * edges + cfg.numCores());

  for (int p = 0; p < cfg.k; ++p) {
    for (int i = 0; i < half; ++i) {
      addSwitch("edge" + std::to_string(p) + "." + std::to_string(i),
                /*tier=*/1);
    }
  }
  for (int p = 0; p < cfg.k; ++p) {
    for (int i = 0; i < half; ++i) {
      addSwitch("agg" + std::to_string(p) + "." + std::to_string(i),
                /*tier=*/2);
    }
  }
  for (int c = 0; c < cfg.numCores(); ++c) {
    addSwitch("core" + std::to_string(c), /*tier=*/3);
  }

  // Hosts + host<->edge links: edge switch e (pod-major) serves hosts
  // e * half .. e * half + half - 1.
  for (int e = 0; e < edges; ++e) {
    for (int h = 0; h < half; ++h) {
      addHost(e, cfg.linkRate, cfg.linkDelay, qcfg);
    }
  }

  // Edge <-> aggregation links (intra-pod full mesh).
  for (int p = 0; p < cfg.k; ++p) {
    for (int e = 0; e < half; ++e) {
      Switch& esw = edge(p, e);
      std::vector<int> group;
      for (int a = 0; a < half; ++a) {
        Switch& asw = agg(p, a);
        const CablePorts ports =
            connect(esw, asw, cfg.linkRate, cfg.linkDelay, qcfg);
        group.push_back(ports.up);
        // Aggregation: hosts under edge(p, e) exit via this downlink.
        for (int h = 0; h < half; ++h) {
          asw.setRoute(static_cast<HostId>(p * half * half + e * half + h),
                       ports.down);
        }
      }
      setUplinks(esw, std::move(group));
      // Everything not directly attached goes via the uplinks.
      for (int id = 0; id < cfg.numHosts(); ++id) {
        const bool local =
            id / (half * half) == p && (id % (half * half)) / half == e;
        if (!local) esw.routeViaUplinks(static_cast<HostId>(id));
      }
    }
  }

  // Aggregation <-> core links: agg j of every pod connects to core group j.
  for (int p = 0; p < cfg.k; ++p) {
    for (int a = 0; a < half; ++a) {
      Switch& asw = agg(p, a);
      std::vector<int> group;
      for (int j = 0; j < half; ++j) {
        Switch& csw = core(a * half + j);
        const CablePorts ports =
            connect(asw, csw, cfg.linkRate, cfg.linkDelay, qcfg);
        group.push_back(ports.up);
        // Core: every host of pod p exits via this downlink.
        for (int id = p * half * half; id < (p + 1) * half * half; ++id) {
          csw.setRoute(static_cast<HostId>(id), ports.down);
        }
      }
      setUplinks(asw, std::move(group));
      // Hosts outside this pod go via the core uplinks.
      for (int id = 0; id < cfg.numHosts(); ++id) {
        if (id / (half * half) != p) {
          asw.routeViaUplinks(static_cast<HostId>(id));
        }
      }
    }
  }

  // Selectors on both decision tiers: edges first, then aggs.
  installSelectors(makeSelector);
}

}  // namespace tlbsim::net

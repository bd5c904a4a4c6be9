#include "net/leaf_spine.hpp"

#include <string>

#include "util/check.hpp"

namespace tlbsim::net {

namespace {

/// Applies any matching override to (rate, delay) for the leaf-spine cable.
void applyOverride(const LeafSpineConfig& cfg, int leafIdx, int spineIdx,
                   LinkRate* rate, SimTime* delay) {
  for (const auto& ov : cfg.overrides) {
    if (ov.leaf == leafIdx && ov.spine == spineIdx) {
      *rate = rate->scaled(ov.rateFactor);
      *delay = *delay * ov.delayFactor;
    }
  }
}

}  // namespace

LeafSpineTopology::LeafSpineTopology(sim::Simulator& simr,
                                     const LeafSpineConfig& cfg,
                                     const SelectorFactory& makeSelector)
    : Fabric(simr), cfg_(cfg) {
  TLBSIM_ASSERT(cfg.numLeaves >= 1 && cfg.numSpines >= 1 &&
                    cfg.hostsPerLeaf >= 1,
                "leaf-spine needs at least 1 leaf, 1 spine, 1 host/leaf "
                "(got %d/%d/%d)",
                cfg.numLeaves, cfg.numSpines, cfg.hostsPerLeaf);
  const QueueConfig qcfg{cfg.bufferPackets, cfg.ecnThresholdPackets};
  reserve(cfg.numHosts(), cfg.numLeaves + cfg.numSpines);

  for (int l = 0; l < cfg.numLeaves; ++l) {
    addSwitch("leaf" + std::to_string(l), /*tier=*/1);
  }
  for (int s = 0; s < cfg.numSpines; ++s) {
    addSwitch("spine" + std::to_string(s), /*tier=*/2);
  }

  // Hosts + access links: a leaf's host downlinks are its first ports.
  for (int h = 0; h < cfg.numHosts(); ++h) {
    addHost(leafOf(h), cfg.hostLinkRate, cfg.linkDelay, qcfg);
  }

  // Fabric links + uplink groups, leaf by leaf, so spine s reaches leaf l
  // on its port l.
  for (int l = 0; l < cfg.numLeaves; ++l) {
    Switch& lf = leaf(l);
    std::vector<int> group;
    for (int s = 0; s < cfg.numSpines; ++s) {
      LinkRate rate = cfg.fabricLinkRate;
      SimTime delay = cfg.linkDelay;
      applyOverride(cfg, l, s, &rate, &delay);
      group.push_back(connect(lf, spine(s), rate, delay, qcfg).up);
    }
    setUplinks(lf, std::move(group));
    // Any host not under this leaf is reached via the uplinks.
    for (int h = 0; h < cfg.numHosts(); ++h) {
      if (leafOf(h) != l) lf.routeViaUplinks(static_cast<HostId>(h));
    }
  }

  // Spine routing: every host via its leaf's downlink.
  for (int s = 0; s < cfg.numSpines; ++s) {
    for (int h = 0; h < cfg.numHosts(); ++h) {
      spine(s).setRoute(static_cast<HostId>(h), leafOf(h));
    }
  }
  installSelectors(makeSelector);
}

Link& LeafSpineTopology::leafUplink(int leafIdx, int spineIdx) {
  Switch& lf = leaf(leafIdx);
  return lf.port(lf.uplinkGroup()[static_cast<std::size_t>(spineIdx)]);
}

Link& LeafSpineTopology::spineDownlink(int spineIdx, int leafIdx) {
  return spine(spineIdx).port(leafIdx);
}

Link& LeafSpineTopology::leafDownlink(HostId host) {
  return leaf(leafOf(host)).port(static_cast<int>(host) % cfg_.hostsPerLeaf);
}

}  // namespace tlbsim::net

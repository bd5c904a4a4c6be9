#include "net/leaf_spine.hpp"

#include <algorithm>
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
    : sim_(simr), cfg_(cfg) {
  TLBSIM_ASSERT(cfg.numLeaves >= 1 && cfg.numSpines >= 1 &&
                    cfg.hostsPerLeaf >= 1,
                "leaf-spine needs at least 1 leaf, 1 spine, 1 host/leaf "
                "(got %d/%d/%d)",
                cfg.numLeaves, cfg.numSpines, cfg.hostsPerLeaf);
  const QueueConfig qcfg{cfg.bufferPackets, cfg.ecnThresholdPackets};

  for (int l = 0; l < cfg.numLeaves; ++l) {
    leaves_.push_back(
        std::make_unique<Switch>(simr, "leaf" + std::to_string(l)));
  }
  for (int s = 0; s < cfg.numSpines; ++s) {
    spines_.push_back(
        std::make_unique<Switch>(simr, "spine" + std::to_string(s)));
  }

  leafUplinkPort_.assign(static_cast<std::size_t>(cfg.numLeaves), {});
  leafDownlinkPort_.assign(static_cast<std::size_t>(cfg.numLeaves), {});
  spineDownlinkPort_.assign(static_cast<std::size_t>(cfg.numSpines), {});

  // Hosts + access links.
  for (int h = 0; h < cfg.numHosts(); ++h) {
    const int l = h / cfg.hostsPerLeaf;
    auto host = std::make_unique<Host>(static_cast<HostId>(h),
                                       "h" + std::to_string(h));
    // Host -> leaf.
    auto up = std::make_unique<Link>(simr, cfg.hostLinkRate, cfg.linkDelay,
                                     qcfg);
    up->connect(leaves_[static_cast<std::size_t>(l)].get(), /*peerPort=*/-1);
    host->attachUplink(std::move(up));
    // Leaf -> host.
    auto down = std::make_unique<Link>(simr, cfg.hostLinkRate, cfg.linkDelay,
                                       qcfg);
    down->connect(host.get(), /*peerPort=*/0);
    const int port =
        leaves_[static_cast<std::size_t>(l)]->addPort(std::move(down));
    leafDownlinkPort_[static_cast<std::size_t>(l)].push_back(port);
    leaves_[static_cast<std::size_t>(l)]->setRoute(static_cast<HostId>(h),
                                                   port);
    hosts_.push_back(std::move(host));
  }

  // Fabric links + uplink groups + spine routing.
  for (int l = 0; l < cfg.numLeaves; ++l) {
    Switch& leaf = *leaves_[static_cast<std::size_t>(l)];
    std::vector<int> group;
    for (int s = 0; s < cfg.numSpines; ++s) {
      Switch& spine = *spines_[static_cast<std::size_t>(s)];

      LinkRate rate = cfg.fabricLinkRate;
      SimTime delay = cfg.linkDelay;
      applyOverride(cfg, l, s, &rate, &delay);

      // Leaf -> spine.
      auto up = std::make_unique<Link>(simr, rate, delay, qcfg);
      up->connect(&spine, /*peerPort=*/-1);
      const int upPort = leaf.addPort(std::move(up));
      leafUplinkPort_[static_cast<std::size_t>(l)].push_back(upPort);
      group.push_back(upPort);

      // Spine -> leaf.
      auto down = std::make_unique<Link>(simr, rate, delay, qcfg);
      down->connect(&leaf, /*peerPort=*/-1);
      const int downPort = spine.addPort(std::move(down));
      spineDownlinkPort_[static_cast<std::size_t>(s)].push_back(downPort);
    }
    leaf.setUplinkGroup(std::move(group));
    // Any host not under this leaf is reached via the uplinks.
    for (int h = 0; h < cfg.numHosts(); ++h) {
      if (h / cfg.hostsPerLeaf != l) leaf.routeViaUplinks(static_cast<HostId>(h));
    }
    if (makeSelector) leaf.setSelector(makeSelector(leaf, l));
  }

  // Spine routing: every host via its leaf's downlink.
  for (int s = 0; s < cfg.numSpines; ++s) {
    Switch& spine = *spines_[static_cast<std::size_t>(s)];
    for (int h = 0; h < cfg.numHosts(); ++h) {
      const int l = h / cfg.hostsPerLeaf;
      spine.setRoute(static_cast<HostId>(h),
                     spineDownlinkPort_[static_cast<std::size_t>(s)]
                                       [static_cast<std::size_t>(l)]);
    }
  }
}

Link& LeafSpineTopology::leafUplink(int leafIdx, int spineIdx) {
  return leaves_[static_cast<std::size_t>(leafIdx)]->port(
      leafUplinkPort_[static_cast<std::size_t>(leafIdx)]
                     [static_cast<std::size_t>(spineIdx)]);
}

Link& LeafSpineTopology::spineDownlink(int spineIdx, int leafIdx) {
  return spines_[static_cast<std::size_t>(spineIdx)]->port(
      spineDownlinkPort_[static_cast<std::size_t>(spineIdx)]
                        [static_cast<std::size_t>(leafIdx)]);
}

Link& LeafSpineTopology::leafDownlink(HostId host) {
  const int l = leafOf(host);
  const int local = static_cast<int>(host) % cfg_.hostsPerLeaf;
  return leaves_[static_cast<std::size_t>(l)]->port(
      leafDownlinkPort_[static_cast<std::size_t>(l)]
                       [static_cast<std::size_t>(local)]);
}

void LeafSpineTopology::forEachFabricLink(
    // setup-time iteration. tlbsim-lint: allow(std-function-hot-path)
    const std::function<void(Link&)>& fn) {
  for (int l = 0; l < cfg_.numLeaves; ++l) {
    for (int s = 0; s < cfg_.numSpines; ++s) {
      fn(leafUplink(l, s));
      fn(spineDownlink(s, l));
    }
  }
}

SimTime LeafSpineTopology::worstCaseOneWay(ByteCount maxPacket) {
  SimTime access, up, down, deliver;
  for (int h = 0; h < numHosts(); ++h) {
    access = std::max(access, host(h).uplink().worstCaseTransit(maxPacket));
    deliver = std::max(deliver, leafDownlink(static_cast<HostId>(h))
                                    .worstCaseTransit(maxPacket));
  }
  for (int l = 0; l < numLeaves(); ++l) {
    for (int s = 0; s < numSpines(); ++s) {
      up = std::max(up, leafUplink(l, s).worstCaseTransit(maxPacket));
      down = std::max(down, spineDownlink(s, l).worstCaseTransit(maxPacket));
    }
  }
  return access + up + down + deliver;
}

}  // namespace tlbsim::net

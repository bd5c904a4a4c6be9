// Leaf-spine (2-tier Clos) topology builder.
//
// Every pair of hosts under different leaves has `numSpines` equal-cost
// paths; the load-balancing decision point is the sending leaf's uplink
// group, exactly as in the paper. Supports the asymmetric variants of
// Figs. 16/17 by scaling the delay/bandwidth of selected leaf-spine cables.
#pragma once

#include <vector>

#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace tlbsim::net {

struct LeafSpineConfig {
  int numLeaves = 2;
  int numSpines = 15;
  int hostsPerLeaf = 16;

  LinkRate hostLinkRate = gbps(1);
  LinkRate fabricLinkRate = gbps(1);

  /// One-way per-link propagation delay. A host-to-host path crosses 4
  /// links each way, so the base RTT is 8 * linkDelay.
  SimTime linkDelay = microseconds(12.5);

  int bufferPackets = 256;
  int ecnThresholdPackets = 65;  ///< 0 disables ECN marking

  /// Degrade a specific leaf<->spine cable (both directions).
  struct LinkOverride {
    int leaf = 0;
    int spine = 0;
    double rateFactor = 1.0;   ///< bandwidth multiplier (e.g. 0.5 = half)
    double delayFactor = 1.0;  ///< propagation-delay multiplier
  };
  std::vector<LinkOverride> overrides;

  int numHosts() const { return numLeaves * hostsPerLeaf; }
  SimTime baseRtt() const { return 8 * linkDelay; }
};

class LeafSpineTopology : public Fabric {
 public:
  /// `makeSelector` is invoked for every leaf, with the leaf's index.
  LeafSpineTopology(sim::Simulator& simr, const LeafSpineConfig& cfg,
                    const SelectorFactory& makeSelector);

  const LeafSpineConfig& config() const { return cfg_; }

  Switch& leaf(int i) { return *accessSwitches()[static_cast<std::size_t>(i)]; }
  /// Spines are added after the leaves.
  Switch& spine(int i) {
    return *switches()[static_cast<std::size_t>(cfg_.numLeaves + i)];
  }
  int numLeaves() const { return cfg_.numLeaves; }
  int numSpines() const { return cfg_.numSpines; }

  int leafOf(HostId h) const { return static_cast<int>(h) / cfg_.hostsPerLeaf; }

  /// The leaf->spine fabric link (load-balanced direction).
  Link& leafUplink(int leafIdx, int spineIdx);
  /// The spine->leaf fabric link (return direction).
  Link& spineDownlink(int spineIdx, int leafIdx);
  /// The leaf->host access link (where short flows queue behind long ones
  /// when the fabric is not the bottleneck).
  Link& leafDownlink(HostId host);

 private:
  LeafSpineConfig cfg_;
};

}  // namespace tlbsim::net

// Leaf-spine (2-tier Clos) topology builder.
//
// Every pair of hosts under different leaves has `numSpines` equal-cost
// paths; the load-balancing decision point is the sending leaf's uplink
// group, exactly as in the paper. Supports the asymmetric variants of
// Figs. 16/17 by scaling the delay/bandwidth of selected leaf-spine cables.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/host.hpp"
#include "net/switch.hpp"
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

/// Builds one UplinkSelector per leaf switch. `leafIndex` lets schemes
/// derive per-switch salts/seeds.
// Called once per switch at topology construction (cold path).
// tlbsim-lint: allow(std-function-hot-path)
using SelectorFactory =
    // tlbsim-lint: allow(std-function-hot-path)
    std::function<std::unique_ptr<UplinkSelector>(Switch& sw, int leafIndex)>;

class LeafSpineTopology {
 public:
  LeafSpineTopology(sim::Simulator& simr, const LeafSpineConfig& cfg,
                    const SelectorFactory& makeSelector);

  const LeafSpineConfig& config() const { return cfg_; }

  int numHosts() const { return cfg_.numHosts(); }
  Host& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }
  Switch& leaf(int i) { return *leaves_[static_cast<std::size_t>(i)]; }
  Switch& spine(int i) { return *spines_[static_cast<std::size_t>(i)]; }
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

  /// Upper bound on the one-way time of a packet of at most `maxPacket`
  /// bytes between any two hosts: the worst Link::worstCaseTransit() of
  /// each tier, summed over the four hops of a cross-leaf path. It covers
  /// every factor an installed fault plan declared on the links
  /// (Link::faultPlanFactors), including faults that have not fired yet.
  SimTime worstCaseOneWay(ByteCount maxPacket);

  /// Visit every fabric link (both directions); used to install stats
  /// hooks at setup time (cold path).
  // tlbsim-lint: allow(std-function-hot-path)
  void forEachFabricLink(const std::function<void(Link&)>& fn);

 private:
  sim::Simulator& sim_;
  LeafSpineConfig cfg_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Switch>> leaves_;
  std::vector<std::unique_ptr<Switch>> spines_;
  // Port bookkeeping: port indices into each switch, by peer.
  std::vector<std::vector<int>> leafUplinkPort_;    // [leaf][spine]
  std::vector<std::vector<int>> leafDownlinkPort_;  // [leaf][local host idx]
  std::vector<std::vector<int>> spineDownlinkPort_;  // [spine][leaf]
};

}  // namespace tlbsim::net

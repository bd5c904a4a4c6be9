// k-ary fat-tree topology builder (Al-Fares et al., SIGCOMM 2008) — the
// other multi-rooted tree the paper's introduction names. Load balancing
// happens at TWO tiers here: each edge switch picks among its k/2
// aggregation uplinks and each aggregation switch among its k/2 core
// uplinks, so schemes are exercised with stacked decision points.
//
// Layout for parameter k (even):
//   * k pods, each with k/2 edge and k/2 aggregation switches,
//   * each edge switch hosts k/2 end hosts,
//   * (k/2)^2 core switches in k/2 groups; aggregation switch j of every
//     pod connects to all k/2 cores of group j,
//   * k^3/4 hosts total; (k/2)^2 equal-cost paths between pods.
#pragma once

#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace tlbsim::net {

struct FatTreeConfig {
  int k = 4;  ///< arity; must be even and >= 2
  LinkRate linkRate = gbps(1);
  SimTime linkDelay = microseconds(12.5);
  int bufferPackets = 256;
  int ecnThresholdPackets = 65;

  int numPods() const { return k; }
  int numHosts() const { return k * k * k / 4; }
  int numCores() const { return (k / 2) * (k / 2); }
  /// A pod-to-pod path crosses 6 links each way.
  SimTime baseRtt() const { return 12 * linkDelay; }
};

class FatTreeTopology : public Fabric {
 public:
  /// `makeSelector` is invoked for every edge and aggregation switch with
  /// a unique switch index (edges first, then aggs).
  FatTreeTopology(sim::Simulator& simr, const FatTreeConfig& cfg,
                  const SelectorFactory& makeSelector);

  const FatTreeConfig& config() const { return cfg_; }

  Switch& edge(int pod, int i) { return switchAt(pod * half() + i); }
  Switch& agg(int pod, int i) {
    return switchAt(cfg_.k * half() + pod * half() + i);
  }
  Switch& core(int i) { return switchAt(2 * cfg_.k * half() + i); }

  int podOf(HostId h) const { return static_cast<int>(h) / (half() * half()); }
  int edgeOf(HostId h) const {
    return (static_cast<int>(h) % (half() * half())) / half();
  }

 private:
  int half() const { return cfg_.k / 2; }
  /// Switches are added edges, then aggs, then cores, each pod-major.
  Switch& switchAt(int i) { return *switches()[static_cast<std::size_t>(i)]; }

  FatTreeConfig cfg_;
};

}  // namespace tlbsim::net

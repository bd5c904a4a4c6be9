// Workload generation: Poisson flow arrivals between random host pairs
// (paper §6.2) and the fixed short/long mixes of the basic tests (§4.2,
// §6.1, §7).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/leaf_spine.hpp"
#include "transport/tcp_params.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workload/flow_size_dist.hpp"

namespace tlbsim::workload {

/// Poisson-arrival workload at a target load (fraction of aggregate edge
/// capacity), from time zero, between hosts under different leaves.
/// Generation stops after `flowCount` flows.
struct PoissonConfig {
  double load = 0.5;
  int flowCount = 300;
  int numHosts = 32;
  int hostsPerLeaf = 8;
  LinkRate hostRate = gbps(1);
  /// Capacity the load is defined against, bytes/sec. 0 = aggregate edge
  /// capacity (numHosts * hostRate). For oversubscribed fabrics set this
  /// to the bisection capacity so "load 0.8" stresses the fabric, not the
  /// (unreachable) edge sum.
  double offeredCapacityBps = 0.0;
  /// Deadlines assigned to flows below `shortThreshold`, uniform in
  /// [deadlineMin, deadlineMax] (paper: [5 ms, 25 ms]); 0/0 disables.
  static constexpr ByteCount shortThreshold = transport::kShortFlowSize;
  SimTime deadlineMin = milliseconds(5);
  SimTime deadlineMax = milliseconds(25);
};

std::vector<transport::FlowSpec> poissonWorkload(
    const PoissonConfig& cfg, const FlowSizeDistribution& dist, Rng& rng,
    FlowId firstId = 1);

/// Poisson arrivals on a leaf-spine fabric: hosts and host rate come from
/// `topo`, and load is defined against the leaf-uplink aggregate (leaves x
/// spines x fabric rate), the binding resource of an oversubscribed
/// fabric.
PoissonConfig poissonConfigFor(const net::LeafSpineConfig& topo, double load,
                               int flowCount);

/// The paper's basic mix: `numLong` long flows (all starting at t=0 from
/// distinct sender hosts) plus `numShort` short flows with Poisson
/// arrivals, senders on leaf 0 and receivers on leaf 1 of a 2-leaf fabric.
struct BasicMixConfig {
  int numShort = 100;
  int numLong = 5;
  ByteCount shortMin = 40 * kKB;   ///< uniform short sizes, mean 70 KB
  ByteCount shortMax = 100 * kKB;
  ByteCount longSize = 10 * kMB;
  int numHosts = 32;           ///< split half senders / half receivers
  int hostsPerLeaf = 16;
  /// Mean inter-arrival gap of the short flows.
  SimTime shortInterArrival = microseconds(200);
  SimTime deadlineMin = milliseconds(5);
  SimTime deadlineMax = milliseconds(25);
};

std::vector<transport::FlowSpec> basicMixWorkload(const BasicMixConfig& cfg,
                                                  Rng& rng,
                                                  FlowId firstId = 1);

/// The workloads a command line names: "websearch" and "datamining"
/// (Poisson arrivals at `load` via poissonConfigFor, sizes from the §6.2
/// CDFs capped at 30 and 35 MB), "basicmix" (the default BasicMixConfig)
/// and "none" (no flows, for app-only runs). Draws from `rng`, so each
/// caller keeps its own seeding. nullopt, explained into *error, for an
/// unknown name or a fabric the workload cannot run on: basic mix needs
/// exactly 2 leaves, and the Poisson mixes (cross-leaf flows only) at
/// least 2.
std::optional<std::vector<transport::FlowSpec>> namedWorkload(
    const std::string& name, const net::LeafSpineConfig& topo, double load,
    int flowCount, Rng& rng, std::string* error = nullptr);

}  // namespace tlbsim::workload

// Test rig: a small leaf-spine fabric whose flows start through a
// transport::EndpointPool the way Experiment::run starts them — one start
// event per flow, posted up front in flow order at the flow's start time,
// with the pair built and the SYN sent inside that event.
#pragma once

#include <memory>
#include <vector>

#include "lb/ecmp.hpp"
#include "net/leaf_spine.hpp"
#include "sim/simulator.hpp"
#include "transport/endpoint_pool.hpp"
#include "transport/tcp_params.hpp"

namespace tlbsim::transport::testing {

/// 2 leaves x 2 spines x 2 hosts, 1 Gbps links, 16-packet buffers.
inline net::LeafSpineConfig smallFabric() {
  net::LeafSpineConfig cfg;
  cfg.numLeaves = 2;
  cfg.numSpines = 2;
  cfg.hostsPerLeaf = 2;
  cfg.bufferPackets = 16;
  cfg.ecnThresholdPackets = 0;
  return cfg;
}

inline net::SelectorFactory ecmpLeaves() {
  return [](net::Switch&, int leaf) -> std::unique_ptr<net::UplinkSelector> {
    return std::make_unique<lb::Ecmp>(static_cast<std::uint64_t>(leaf) + 1);
  };
}

/// `n` flows of `size` bytes starting at i * gap, ids from 1: flow i runs
/// from host i (mod hosts) to the same host index under the next leaf.
inline std::vector<FlowSpec> crossLeafFlows(const net::LeafSpineConfig& cfg,
                                            int n, ByteCount size,
                                            SimTime gap) {
  std::vector<FlowSpec> flows;
  const int hosts = cfg.numHosts();
  for (int i = 0; i < n; ++i) {
    FlowSpec f;
    f.id = static_cast<FlowId>(i) + 1;
    f.src = static_cast<net::HostId>(i % hosts);
    f.dst = static_cast<net::HostId>((i + cfg.hostsPerLeaf) % hosts);
    f.size = size;
    f.start = i * gap;
    flows.push_back(f);
  }
  return flows;
}

struct PoolRig {
  sim::Simulator simr;
  net::LeafSpineTopology topo;
  EndpointPool pool;
  std::vector<FlowSpec> flows;
  std::size_t completed = 0;

  explicit PoolRig(const net::LeafSpineConfig& cfg = smallFabric(),
                   const TcpParams& tcp = {},
                   const net::SelectorFactory& selectors = ecmpLeaves())
      : topo(simr, cfg, selectors), pool(simr, topo, tcp) {}

  /// Post one start event per flow, in flow order; flow i's pair carries
  /// tag i.
  void post(std::vector<FlowSpec> list) {
    flows = std::move(list);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      simr.postAt(flows[i].start, [this, i] {
        pool.launch(flows[i], i, [this] { ++completed; });
      });
    }
  }

  /// Run until every flow completed or `limit`; true when all completed.
  bool runUntilDone(SimTime limit) {
    auto& sched = simr.scheduler();
    while (completed < flows.size() && !sched.empty()) {
      if (!sched.step(limit)) break;
    }
    return completed == flows.size();
  }

  std::uint64_t orphanPackets() {
    std::uint64_t n = 0;
    for (int h = 0; h < topo.numHosts(); ++h) n += topo.host(h).orphanPackets();
    return n;
  }
};

}  // namespace tlbsim::transport::testing

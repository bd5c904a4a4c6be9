// Counts global operator new/delete to prove the packet path's claim: once
// the fabric's packet store has reached its high-water mark, a packet's
// whole trip — host uplink, the leaf's TLB decision over the
// switch-owned uplink view, the uplink and downlink queues, the spine, the
// host's flow demux — and TLB's control ticks perform zero heap
// allocations. The second test runs short TCP flows through an endpoint
// pool on the same fabric: once warm, starting a flow (reusing a drained
// pair), its whole transfer and its completion allocate nothing either.
// Its own binary: it replaces the global operators.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "../transport/pool_rig.hpp"
#include "core/tlb.hpp"
#include "net/host.hpp"
#include "net/leaf_spine.hpp"
#include "sim/simulator.hpp"

namespace {
std::atomic<unsigned long long> g_newCalls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_newCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tlbsim::net {
namespace {

unsigned long long newCalls() {
  return g_newCalls.load(std::memory_order_relaxed);
}

class CountingHandler : public PacketHandler {
 public:
  void onPacket(const Packet&) override { ++packets; }
  std::uint64_t packets = 0;
};

TEST(NetAllocCount, CounterSeesVectorGrowth) {
  const auto before = newCalls();
  std::vector<Packet> v;
  v.push_back(Packet{});
  EXPECT_GT(newCalls(), before);
}

/// 2 leaves x 4 spines x 4 hosts. Fabric links run at half the host rate
/// and buffers are small, so queues fill to their buffers during warm-up.
LeafSpineConfig smallTlbFabric() {
  LeafSpineConfig cfg;
  cfg.numLeaves = 2;
  cfg.numSpines = 4;
  cfg.hostsPerLeaf = 4;
  cfg.hostLinkRate = gbps(1);
  cfg.fabricLinkRate = mbps(500);
  cfg.bufferPackets = 16;
  cfg.ecnThresholdPackets = 4;
  return cfg;
}

SelectorFactory tlbLeaves(const LeafSpineConfig& cfg) {
  core::TlbConfig tlbCfg;
  tlbCfg.rtt = cfg.baseRtt();
  tlbCfg.linkCapacity = cfg.fabricLinkRate;
  tlbCfg.bufferPackets = cfg.bufferPackets;
  tlbCfg.qthCapPackets = cfg.ecnThresholdPackets;
  return [tlbCfg, spines = cfg.numSpines](Switch&, int leaf) {
    return std::make_unique<core::Tlb>(tlbCfg, spines,
                                       static_cast<std::uint64_t>(leaf) + 1);
  };
}

TEST(NetAllocCount, SteadyStatePacketPathIsAllocationFree) {
  // Every leaf uplink and (under the rotating incast below) every leaf
  // downlink fills to its buffer during warm-up: the packet store then
  // sits at its final size.
  const LeafSpineConfig cfg = smallTlbFabric();
  sim::Simulator simr;
  LeafSpineTopology topo(simr, cfg, tlbLeaves(cfg));

  // One flow per cross-leaf (src, dst) pair, bound at its destination.
  const int hosts = cfg.numHosts();
  const auto flowOf = [hosts](int src, int dst) {
    return static_cast<FlowId>(src * hosts + dst);
  };
  std::vector<CountingHandler> handlers(static_cast<std::size_t>(hosts));
  for (int src = 0; src < hosts; ++src) {
    for (int dst = 0; dst < hosts; ++dst) {
      if (topo.leafOf(src) == topo.leafOf(dst)) continue;
      topo.host(dst).bind(flowOf(src, dst),
                          &handlers[static_cast<std::size_t>(dst)]);
    }
  }

  // Every 200 us each host sends a 16-packet burst to one host on the
  // other leaf; all senders of a leaf aim at the same receiver, which
  // changes every 8 bursts.
  std::uint64_t round = 0;
  std::uint64_t seq = 0;
  simr.every(microseconds(200), [&] {
    const int perLeaf = cfg.hostsPerLeaf;
    const int target = static_cast<int>((round / 8) % perLeaf);
    for (int src = 0; src < hosts; ++src) {
      const int otherLeaf = 1 - topo.leafOf(src);
      const int dst = otherLeaf * perLeaf + target;
      for (int i = 0; i < 16; ++i) {
        Packet p;
        p.flow = flowOf(src, dst);
        p.type = PacketType::kData;
        p.src = src;
        p.dst = dst;
        p.size = 1500_B;
        p.payload = 1460_B;
        p.seq = seq++;
        p.ecnCapable = true;
        p.sentAt = simr.now();
        topo.host(src).send(p);
      }
    }
    ++round;
  });

  std::uint64_t controlTicks = 0;
  const auto countTicks = [&controlTicks](const char* name, SimTime) {
    if (name != nullptr && std::strcmp(name, "tlb.control_tick") == 0) {
      ++controlTicks;
    }
  };
  simr.scheduler().setPeriodicTickHook(countTicks);

  const auto leafForwards = [&] {
    return topo.leaf(0).forwardedPackets() + topo.leaf(1).forwardedPackets();
  };
  const auto delivered = [&] {
    std::uint64_t n = 0;
    for (const auto& h : handlers) n += h.packets;
    return n;
  };

  // Warm-up: two full rotations of the incast target (6.4 ms each). By
  // then the store has held the fabric's busiest moment.
  simr.run(milliseconds(13));
  const std::size_t storeSlots = topo.packetStore().capacity();
  ASSERT_GT(storeSlots, 0u);

  const auto forwardsBefore = leafForwards();
  const auto deliveredBefore = delivered();
  const auto ticksBefore = controlTicks;
  const auto before = newCalls();
  simr.run(milliseconds(43));
  const auto allocations = newCalls() - before;

  EXPECT_EQ(topo.packetStore().capacity(), storeSlots);
  EXPECT_GE(leafForwards() - forwardsBefore, 20'000u);
  // The incast receiver's 1 Gbps downlink is the bottleneck per leaf.
  EXPECT_GE(delivered() - deliveredBefore, 5'000u);
  EXPECT_GE(controlTicks - ticksBefore, 100u);  // both leaves' TLB loops
  EXPECT_EQ(allocations, 0u);
}

TEST(NetAllocCount, SteadyStateTcpFlowsThroughThePoolAreAllocationFree) {
  // 24 KB TCP flows across the leaves, each pair built in its flow's start
  // event as Experiment::run does. The first 1,500 start every 60 us, 80 %
  // of the cross-leaf capacity: queues fill to their buffers and more
  // flows overlap than ever after. The rest start every 120 us. By then
  // the pool, the host demux tables, the packet store, TLB's flow table
  // and the event core are at their high-water marks, and every receiver
  // storage that saw reordering holds a window's worth of ranges: a
  // flow's launch into a reused pair, its transfer and its completion
  // allocate nothing.
  const LeafSpineConfig cfg = smallTlbFabric();
  transport::testing::PoolRig rig(cfg, transport::TcpParams{}, tlbLeaves(cfg));
  constexpr int kDense = 1500;
  constexpr int kFlows = 4500;
  auto flows = transport::testing::crossLeafFlows(cfg, kFlows, 24 * kKB,
                                                  microseconds(60));
  const int perLeaf = cfg.hostsPerLeaf;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const int n = static_cast<int>(i);
    if (n >= kDense) {
      flows[i].start =
          kDense * microseconds(60) + (n - kDense) * microseconds(120);
    }
    // Rotate destinations too, so every cross-leaf host pair is used.
    const int src = static_cast<int>(flows[i].src);
    const int otherLeaf = 1 - src / perLeaf;
    flows[i].dst =
        static_cast<HostId>(otherLeaf * perLeaf + (n / 8 + src) % perLeaf);
  }
  rig.post(flows);

  rig.simr.run(flows[kDense + 200].start);  // warm-up, then settle
  const std::size_t storeSlots = rig.topo.packetStore().capacity();
  const auto completedBefore = rig.completed;
  const auto reusesBefore = rig.pool.reuses();
  const auto before = newCalls();
  rig.simr.run(flows[kFlows - 300].start);
  const auto allocations = newCalls() - before;

  EXPECT_GE(rig.pool.reuses() - reusesBefore, 2'000u);
  EXPECT_GE(rig.completed - completedBefore, 2'000u);
  EXPECT_LE(rig.pool.pairs(), 42u);
  EXPECT_EQ(rig.orphanPackets(), 0u);
  EXPECT_EQ(rig.topo.packetStore().capacity(), storeSlots);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace tlbsim::net

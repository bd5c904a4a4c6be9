// The kept uplink view (Switch::uplinkView) against one built from
// scratch: random raw-packet traffic through a leaf-spine and a fat-tree,
// with a link fault of every kind landing at odd nanoseconds, and after
// every event each decision switch's view must hold the up uplinks in
// group order with bit-equal bytes, rate, delay and wait. Each link's kept
// entry must also match its queue whenever the link holds one, stale view
// or not.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lb/selector_util.hpp"
#include "net/fat_tree.hpp"
#include "net/leaf_spine.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tlbsim::net {
namespace {

/// Picks an up uplink at random, half the time, and the least wait
/// otherwise, so queues both build up and even out.
class MixedSelector : public UplinkSelector {
 public:
  explicit MixedSelector(std::uint64_t seed) : rng_(seed) {}
  int selectUplink(const Packet&, const UplinkView& uplinks) override {
    if (rng_.uniform() < 0.5) {
      return uplinks[rng_.uniformInt(uplinks.size())].port;
    }
    return uplinks[lb::shortestQueueIndex(uplinks, rng_)].port;
  }
  const char* name() const override { return "mixed"; }

 private:
  Rng rng_;
};

SelectorFactory mixedSelectors(std::uint64_t seed) {
  return [seed](Switch&, int index) -> std::unique_ptr<UplinkSelector> {
    return std::make_unique<MixedSelector>(seed * 31 +
                                           static_cast<std::uint64_t>(index));
  };
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A view built from scratch: each up uplink, in group order, read from
/// its link.
UplinkView viewFromScratch(const Switch& sw) {
  UplinkView v;
  for (int p : sw.uplinkGroup()) {
    const Link& link = sw.port(p);
    if (!link.up()) continue;
    v.push_back(PortView{p, link.queueBytes(),
                         link.effectiveRate().bitsPerSecond(),
                         toSeconds(link.effectiveDelay())});
  }
  return v;
}

/// The first difference between `sw`'s kept state and a view built from
/// scratch, or "" when there is none. Reads each link's kept entry before
/// uplinkView() rebuilds a stale view.
std::string keptViewMismatch(Switch& sw) {
  std::ostringstream out;
  for (int p : sw.uplinkGroup()) {
    const Link& link = sw.port(p);
    const PortView* entry = link.viewEntry();
    if (entry == nullptr) continue;
    if (entry->queueBytes != link.queueBytes()) {
      out << sw.name() << " port " << p << ": kept entry holds "
          << entry->queueBytes.bytes() << " B, queue holds "
          << link.queueBytes().bytes() << " B";
      return out.str();
    }
  }
  const UplinkView& kept = sw.uplinkView();
  const UplinkView fresh = viewFromScratch(sw);
  if (kept.size() != fresh.size()) {
    out << sw.name() << ": " << kept.size() << " entries, "
        << fresh.size() << " up uplinks";
    return out.str();
  }
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const PortView& k = kept[i];
    const PortView& f = fresh[i];
    if (k.port != f.port || k.queueBytes != f.queueBytes ||
        bits(k.rateBps) != bits(f.rateBps) ||
        bits(k.linkDelaySec) != bits(f.linkDelaySec) ||
        bits(k.wait) != bits(f.wait)) {
      out << sw.name() << " entry " << i << ": kept {port " << k.port
          << ", " << k.queueBytes.bytes() << " B, " << k.rateBps
          << " bps, " << k.linkDelaySec << " s, wait " << k.wait
          << "} vs fresh {port " << f.port << ", " << f.queueBytes.bytes()
          << " B, " << f.rateBps << " bps, " << f.linkDelaySec
          << " s, wait " << f.wait << "}";
      return out.str();
    }
  }
  return "";
}

/// One fault of a random kind on `link`, as a FaultInjector would apply
/// it (the test drives the link directly, on either topology).
void randomFault(Link& link, Rng& rng) {
  switch (rng.uniformInt(std::uint64_t{6})) {
    case 0:
      link.faultDown(/*drainInFlight=*/true);
      break;
    case 1:
      link.faultDown(/*drainInFlight=*/false);
      break;
    case 2:
      link.faultUp();
      break;
    case 3:
      link.faultSetRateFactor(rng.uniform() < 0.3 ? 1.0
                                                  : rng.uniform(0.1, 0.9));
      break;
    case 4:
      link.faultSetDelayFactor(rng.uniform() < 0.3 ? 1.0
                                                   : rng.uniform(1.5, 8.0));
      break;
    default:
      link.faultSetDropProb(rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.0, 0.3),
                            rng());
      break;
  }
}

/// Posts bursts of raw packets between random hosts and faults on random
/// uplinks of decision switches, then steps the run one event at a time
/// and compares every decision switch's view after each.
void runAndCompare(sim::Simulator& simr, Fabric& fabric, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Link*> uplinks;
  for (Switch* sw : fabric.decisionSwitches()) {
    for (int p : sw->uplinkGroup()) uplinks.push_back(&sw->port(p));
  }
  const int hosts = fabric.numHosts();
  FlowId nextFlow = 1;
  for (int burst = 0; burst < 300; ++burst) {
    // Odd nanoseconds, so no burst shares a time with a serialization end.
    const SimTime at = SimTime::fromNs(
        2 * static_cast<std::int64_t>(rng.uniformInt(std::uint64_t{1000000})) +
        1);
    const auto src = static_cast<HostId>(rng.uniformInt(
        static_cast<std::uint64_t>(hosts)));
    HostId dst = static_cast<HostId>(rng.uniformInt(
        static_cast<std::uint64_t>(hosts - 1)));
    if (dst >= src) ++dst;
    const int count = static_cast<int>(rng.uniformInt(1, 24));
    const FlowId flow = nextFlow++;
    const ByteCount size = ByteCount::fromBytes(rng.uniformInt(64, 1500));
    simr.postAt(at, [&fabric, src, dst, count, flow, size] {
      for (int i = 0; i < count; ++i) {
        Packet pkt;
        pkt.flow = flow;
        pkt.src = src;
        pkt.dst = dst;
        pkt.size = size;
        pkt.payload = size;
        pkt.seq = static_cast<std::uint64_t>(i);
        pkt.ecnCapable = true;
        fabric.host(src).send(pkt);
      }
    });
  }
  for (int f = 0; f < 120; ++f) {
    const SimTime at = SimTime::fromNs(
        2 * static_cast<std::int64_t>(rng.uniformInt(std::uint64_t{1000000})) +
        1);
    Link* link = uplinks[rng.uniformInt(uplinks.size())];
    const std::uint64_t faultSeed = rng();
    simr.postAt(at, [link, faultSeed] {
      Rng faultRng(faultSeed);
      randomFault(*link, faultRng);
    });
  }

  std::uint64_t events = 0;
  while (simr.scheduler().step()) {
    ++events;
    for (Switch* sw : fabric.decisionSwitches()) {
      const std::string mismatch = keptViewMismatch(*sw);
      ASSERT_EQ(mismatch, "") << "after event " << events << " at "
                              << simr.now().ns() << " ns";
    }
  }
  EXPECT_GT(events, 1000u);
}

class KeptUplinkView : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KeptUplinkView, LeafSpineMatchesAViewBuiltFromScratch) {
  sim::Simulator simr;
  LeafSpineConfig cfg;
  cfg.numLeaves = 2;
  cfg.numSpines = 4;
  cfg.hostsPerLeaf = 4;
  cfg.hostLinkRate = gbps(10);  // uplinks are the bottleneck: queues build
  cfg.bufferPackets = 16;
  cfg.ecnThresholdPackets = 8;
  LeafSpineTopology topo(simr, cfg, mixedSelectors(GetParam()));
  runAndCompare(simr, topo, GetParam());
}

TEST_P(KeptUplinkView, FatTreeMatchesAViewBuiltFromScratch) {
  sim::Simulator simr;
  FatTreeConfig cfg;
  cfg.k = 4;
  cfg.bufferPackets = 16;
  cfg.ecnThresholdPackets = 8;
  FatTreeTopology topo(simr, cfg, mixedSelectors(GetParam()));
  runAndCompare(simr, topo, GetParam() + 1000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeptUplinkView, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace tlbsim::net

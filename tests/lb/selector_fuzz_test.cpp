// Property test: every selector returns a valid member of the uplink
// group for arbitrary (randomized) queue states, group sizes, rates, and
// packet streams — the invariant the switch relies on unconditionally.
#include <gtest/gtest.h>

#include <tuple>

#include "harness/scheme.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tlbsim::lb {
namespace {

using harness::Scheme;

class SelectorFuzz
    : public ::testing::TestWithParam<std::tuple<Scheme, std::uint64_t>> {};

TEST_P(SelectorFuzz, AlwaysReturnsPortFromGroup) {
  const auto [scheme, seed] = GetParam();
  harness::SchemeConfig cfg;
  cfg.scheme = scheme;
  cfg.numPaths = 16;
  auto sel = harness::makeSelector(cfg, seed);
  ASSERT_NE(sel, nullptr);

  sim::Simulator simr;
  net::PacketStore store;
  net::Switch sw(simr, store, "fuzz");
  sel->attach(sw, simr);

  Rng rng(seed * 7919 + 13);
  for (int iter = 0; iter < 3000; ++iter) {
    // Random group: 2..16 ports with arbitrary port numbers, queue
    // states, rates, and cable delays.
    const int n = static_cast<int>(rng.uniformInt(2, 16));
    net::UplinkView view;
    int port = static_cast<int>(rng.uniformInt(0, 3));
    for (int i = 0; i < n; ++i) {
      const int p = port;
      port += static_cast<int>(rng.uniformInt(1, 3));
      const ByteCount bytes = ByteCount::fromBytes(rng.uniformInt(0, 400000));
      const double rate = rng.uniform() < 0.2 ? 0.0 : rng.uniform(1e8, 1e10);
      const double delay =
          rng.uniform() < 0.5 ? 0.0 : rng.uniform(0.0, 1e-2);
      // Constructed whole, so the view carries the wait of its fields.
      view.push_back(net::PortView{p, bytes, rate, delay});
    }

    net::Packet pkt;
    pkt.flow = rng.uniformInt(32);  // small flow space: state paths hit
    const double typeDraw = rng.uniform();
    if (typeDraw < 0.05) {
      pkt.type = net::PacketType::kSyn;
      pkt.size = 40_B;
    } else if (typeDraw < 0.10) {
      pkt.type = net::PacketType::kFin;
      pkt.size = 40_B;
    } else if (typeDraw < 0.25) {
      pkt.type = net::PacketType::kAck;
      pkt.size = 40_B;
    } else {
      pkt.type = net::PacketType::kData;
      pkt.payload = ByteCount::fromBytes(rng.uniformInt(1, 1460));
      pkt.size = pkt.payload + 40_B;
    }

    const int chosen = sel->selectUplink(pkt, view);
    bool valid = false;
    for (const auto& u : view) {
      if (u.port == chosen) valid = true;
    }
    ASSERT_TRUE(valid) << harness::schemeName(scheme) << " iter " << iter
                       << " returned port " << chosen;

    // Occasionally advance simulated time so flowlet/DRE state ages.
    if (iter % 100 == 99) simr.run(simr.now() + microseconds(200));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SelectorFuzz,
    ::testing::Combine(
        ::testing::Values(Scheme::kEcmp, Scheme::kWcmp, Scheme::kRps,
                          Scheme::kDrill, Scheme::kPresto, Scheme::kLetFlow,
                          Scheme::kConga, Scheme::kHermes, Scheme::kRoundRobin,
                          Scheme::kShortestQueue,
                          Scheme::kFlowLevel, Scheme::kFixedGranularity,
                          Scheme::kTlb),
        ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace tlbsim::lb

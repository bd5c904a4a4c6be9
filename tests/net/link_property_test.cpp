// Property tests on the link/queue substrate: conservation and ordering
// under randomized traffic.
#include <gtest/gtest.h>

#include <vector>

#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tlbsim::net {
namespace {

class CountingSink : public Node {
 public:
  void receive(PacketStore& store, PacketStore::Handle slot, int) override {
    const Packet& pkt = store[slot].pkt;
    bytes += pkt.size;
    ++packets;
    seqs.push_back(pkt.seq);
    store.free(slot);
  }
  std::string name() const override { return "sink"; }

  ByteCount bytes;
  int packets = 0;
  std::vector<std::uint64_t> seqs;
};

class LinkConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinkConservation, BytesInEqualsDeliveredPlusDropped) {
  sim::Simulator simr;
  PacketStore store;
  CountingSink sink;
  Link link(simr, store, gbps(1), microseconds(5), QueueConfig{32, 0});
  link.connect(&sink, 0);

  Rng rng(GetParam());
  ByteCount offered;
  int offeredPkts = 0;
  // Bursty arrivals over simulated time: sometimes overrun the queue.
  for (int burst = 0; burst < 50; ++burst) {
    const int n = static_cast<int>(rng.uniformInt(1, 60));
    for (int i = 0; i < n; ++i) {
      Packet p;
      p.flow = 1;
      p.seq = static_cast<std::uint64_t>(offeredPkts);
      p.size = ByteCount::fromBytes(rng.uniformInt(40, 1500));
      offered += p.size;
      ++offeredPkts;
      link.send(p);
    }
    simr.run(simr.now() + microseconds(rng.uniformInt(10, 400)));
  }
  simr.run();

  EXPECT_EQ(sink.bytes + link.queue().droppedBytes(), offered);
  EXPECT_EQ(sink.packets + static_cast<int>(link.drops()), offeredPkts);
}

TEST_P(LinkConservation, DeliveryOrderIsFifo) {
  sim::Simulator simr;
  PacketStore store;
  CountingSink sink;
  Link link(simr, store, gbps(10), microseconds(1), QueueConfig{4096, 0});
  link.connect(&sink, 0);

  Rng rng(GetParam() + 100);
  for (int i = 0; i < 500; ++i) {
    Packet p;
    p.seq = static_cast<std::uint64_t>(i);
    p.size = ByteCount::fromBytes(rng.uniformInt(40, 1500));
    link.send(p);
    if (rng.uniform() < 0.3) {
      simr.run(simr.now() + microseconds(rng.uniformInt(0, 5)));
    }
  }
  simr.run();
  ASSERT_EQ(sink.seqs.size(), 500u);
  for (std::size_t i = 0; i < sink.seqs.size(); ++i) {
    EXPECT_EQ(sink.seqs[i], i);  // no drops possible; strict FIFO
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkConservation,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(LinkThroughput, SaturatedLinkRunsAtLineRate) {
  sim::Simulator simr;
  PacketStore store;
  CountingSink sink;
  Link link(simr, store, gbps(1), microseconds(1), QueueConfig{100000, 0});
  link.connect(&sink, 0);
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    Packet p;
    p.size = 1500_B;
    link.send(p);
  }
  simr.run();
  // n packets at 12 us serialization each, plus the final propagation.
  EXPECT_EQ(simr.now(), n * microseconds(12) + microseconds(1));
  EXPECT_DOUBLE_EQ(toSeconds(link.busyTime()), n * 12e-6);
}

}  // namespace
}  // namespace tlbsim::net

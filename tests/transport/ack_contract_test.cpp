// The receiver's ACK contract: exactly one ACK per arriving data segment,
// sent at once and echoing that segment's CE bit. DCTCP's marking-fraction
// estimate and the paper's dup-ACK ratio (Fig. 3(b)) both assume it.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "tcp_rig.hpp"
#include "util/units.hpp"

namespace tlbsim::transport {
namespace {

using testing::TcpRig;

/// Sits between the data-direction link and host B: records the CE bit of
/// each data segment in arrival order, then hands the segment to B.
class ArrivalTap : public net::Node {
 public:
  explicit ArrivalTap(net::Host& host) : host_(host) {}

  void receive(net::PacketStore& store, net::PacketStore::Handle slot,
               int inPort) override {
    const net::Packet& pkt = store[slot].pkt;
    if (pkt.isData()) ce.push_back(pkt.ce);
    host_.receive(store, slot, inPort);
  }
  std::string name() const override { return "tap"; }

  std::vector<bool> ce;

 private:
  net::Host& host_;
};

TEST(AckContract, OneAckPerSegmentEchoingItsCeBit) {
  TcpRig rig;
  ArrivalTap tap(rig.hostB);
  rig.abOut->connect(&tap, 0);

  // Data direction: CE-mark every third segment, duplicate every seventh,
  // and hold every fifth back until the next one has gone ahead of it.
  int seen = 0;
  std::optional<net::Packet> held;
  rig.abFilter.setHook([&](net::Packet& p) {
    if (!p.isData()) return 1;
    ++seen;
    if (seen % 3 == 0) p.ce = true;
    if (seen % 5 == 0) {
      held = p;
      return 0;
    }
    if (held.has_value()) {
      rig.abFilter.flushAfter.push_back(*held);
      held.reset();
    }
    return seen % 7 == 0 ? 2 : 1;
  });
  // ACK direction: record each pure ACK's ECE bit in send order.
  std::vector<bool> ece;
  rig.baFilter.setHook([&](net::Packet& p) {
    if (p.type == net::PacketType::kAck) ece.push_back(p.ece);
    return 1;
  });

  auto f = rig.makeFlow(300 * kKB);
  f.sender->start();
  rig.simr.run(seconds(20));

  ASSERT_TRUE(f.sender->completed());
  ASSERT_GT(f.receiver->outOfOrderPackets(), 0u);  // the path did reorder
  EXPECT_EQ(f.receiver->acksSent(), f.receiver->dataPacketsReceived());
  ASSERT_EQ(tap.ce.size(), f.receiver->dataPacketsReceived());
  ASSERT_EQ(ece.size(), tap.ce.size());
  std::size_t marked = 0;
  for (std::size_t i = 0; i < ece.size(); ++i) {
    EXPECT_EQ(ece[i], tap.ce[i]) << "ACK " << i;
    if (tap.ce[i]) ++marked;
  }
  EXPECT_GT(marked, 0u);
  EXPECT_LT(marked, ece.size());
}

// The receiver never holds an ACK back. These two cases keep the suite
// name of the coalescing receiver they outlived: a gap still draws
// dup-ACKs fast enough for fast retransmit, and a CE-marked run still
// reaches the sender's DCTCP estimate.

TEST(DelayedAck, OutOfOrderStillAcksImmediately) {
  TcpRig rig;
  bool armed = true;
  rig.abFilter.setHook([&](net::Packet& p) {
    if (armed && p.isData() && p.seq == 14600 && !p.retransmit) {
      armed = false;
      return 0;  // drop one segment -> subsequent arrivals are OOO
    }
    return 1;
  });
  auto f = rig.makeFlow(100 * kKB);
  f.sender->start();
  rig.simr.run(seconds(10));
  ASSERT_TRUE(f.sender->completed());
  EXPECT_GT(f.receiver->outOfOrderPackets(), 0u);
  EXPECT_EQ(f.receiver->acksSent(), f.receiver->dataPacketsReceived());
  // Dup-ACKs reached the sender fast enough for fast retransmit (no RTO).
  EXPECT_GE(f.sender->fastRetransmits(), 1u);
  EXPECT_EQ(f.sender->timeouts(), 0u);
}

TEST(DelayedAck, CeChangeFlushesImmediately) {
  // CE-mark a mid-flow run of segments: the sender's DCTCP alpha must rise.
  TcpRig rig;
  int marked = 0;
  rig.abFilter.setHook([&](net::Packet& p) {
    if (p.isData() && p.seq >= 50000 && p.seq < 80000) {
      p.ce = true;
      ++marked;
    }
    return 1;
  });
  auto f = rig.makeFlow(200 * kKB);
  f.sender->start();
  rig.simr.run(seconds(10));
  ASSERT_TRUE(f.sender->completed());
  ASSERT_GT(marked, 0);
  EXPECT_GT(f.sender->dctcpAlpha(), 0.0);
}

}  // namespace
}  // namespace tlbsim::transport

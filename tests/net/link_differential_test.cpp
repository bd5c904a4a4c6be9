// Differential test: net::Link, which posts a packet's outcome when its
// serialization starts (one event per hop), against the two-event link
// model it replaced, where a transmit-done event at serialization end put
// the packet on the wire. Both run on one scheduler and see the same
// random sends and the same fault mutations; every packet must meet the
// same fate at the same simulated time. Only the order of events that
// share a timestamp may differ between the two.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tlbsim::net {
namespace {

enum class Fate { kNone, kDelivered, kQueueDrop, kRejected, kFlushed, kWire };

struct Outcome {
  Fate fate = Fate::kNone;
  SimTime at;
};

/// One outcome per packet, indexed by the packet's seq.
struct Outcomes {
  std::vector<Outcome> byId;
  void note(const Packet& pkt, Fate fate, SimTime at) {
    Outcome& o = byId.at(pkt.seq);
    EXPECT_EQ(o.fate, Fate::kNone) << "packet " << pkt.seq << " ends twice";
    o = {fate, at};
  }
};

/// The two-event link: serialization done at now + txTime, then the
/// delivery at now + propagation. Mirrors the fault semantics the one-event
/// Link keeps: the packet being serialized meets the fault state in force
/// when its serialization ends.
class TwoEventLink {
 public:
  TwoEventLink(sim::Simulator& simr, LinkRate rate, SimTime delay,
               QueueConfig cfg, Outcomes& out)
      : sim_(simr),
        rate_(rate),
        delay_(delay),
        queue_(store_, cfg),
        out_(out) {}

  void send(const Packet& pkt) {
    if (!up_) return out_.note(pkt, Fate::kRejected, sim_.now());
    const PacketStore::Handle slot = store_.alloc(pkt);
    if (!queue_.enqueue(slot, sim_.now())) {
      store_.free(slot);
      return out_.note(pkt, Fate::kQueueDrop, sim_.now());
    }
    if (!transmitting_) start();
  }
  void down(bool drain) {
    if (!up_) return;
    up_ = false;
    drain_ = drain;
    if (!drain) ++epoch_;
    while (!queue_.empty()) {
      out_.note(pop(), Fate::kFlushed, sim_.now());
    }
  }
  void up() {
    if (up_) return;
    up_ = true;
    drain_ = false;
    if (!transmitting_ && !queue_.empty()) start();
  }
  void setDropProb(double prob, std::uint64_t seed) {
    dropProb_ = prob;
    rng_.reseed(seed);
  }
  double rateFactor = 1.0;
  double delayFactor = 1.0;

 private:
  /// The head packet, its slot freed.
  Packet pop() {
    const PacketStore::Handle slot = queue_.dequeue(sim_.now());
    const Packet pkt = store_[slot].pkt;
    store_.free(slot);
    return pkt;
  }
  void start() {
    tx_ = pop();
    transmitting_ = true;
    sim_.post(rate_.scaled(rateFactor).transmissionTime(tx_.size),
              [this] { done(); });
  }
  void done() {
    const bool kill = !up_ && !drain_;
    const bool gray = dropProb_ > 0.0 && rng_.uniform() < dropProb_;
    if (kill || gray) {
      out_.note(tx_, Fate::kWire, sim_.now());
    } else {
      lastArrival_ = std::max(sim_.now() + delay_ * delayFactor, lastArrival_);
      sim_.postAt(lastArrival_, [this, pkt = tx_, epoch = epoch_] {
        out_.note(pkt, epoch == epoch_ ? Fate::kDelivered : Fate::kWire,
                  sim_.now());
      });
    }
    transmitting_ = false;
    if (up_ && !queue_.empty()) start();
  }

  sim::Simulator& sim_;
  LinkRate rate_;
  SimTime delay_;
  PacketStore store_;
  DropTailQueue queue_;
  Outcomes& out_;
  Packet tx_;
  bool transmitting_ = false;
  bool up_ = true;
  bool drain_ = false;
  std::uint64_t epoch_ = 0;
  double dropProb_ = 0.0;
  Rng rng_{0};
  SimTime lastArrival_;
};

/// Records the one-event Link's deliveries.
class RecordingSink : public Node {
 public:
  RecordingSink(sim::Simulator& simr, Outcomes& out) : sim_(simr), out_(out) {}
  void receive(PacketStore& store, PacketStore::Handle slot, int) override {
    out_.note(store[slot].pkt, Fate::kDelivered, sim_.now());
    store.free(slot);
  }
  std::string name() const override { return "sink"; }

 private:
  sim::Simulator& sim_;
  Outcomes& out_;
};

const double kRateFactors[] = {1.0, 0.5, 0.25};
const double kDelayFactors[] = {0.5, 1.0, 1.5, 2.0, 3.0};
const double kDropProbs[] = {0.0, 0.3, 0.7, 1.0};

/// A size whose serialization time is an even number of nanoseconds at
/// every rate factor. Send times, propagation delays and their factored
/// values are even too, so every link event lands on an even time and a
/// fault at an odd time never ties one: off the serialization grid, the
/// two models see each fault in the same state.
ByteCount onGridSize(Rng& rng, LinkRate rate) {
  for (;;) {
    const ByteCount size = ByteCount::fromBytes(rng.uniformInt(40, 1500));
    const bool even = std::all_of(
        std::begin(kRateFactors), std::end(kRateFactors), [&](double f) {
          return rate.scaled(f).transmissionTime(size).ns() % 2 == 0;
        });
    if (even) return size;
  }
}

TEST(LinkDifferential, EveryPacketMeetsTheTwoEventModelsFate) {
  constexpr int kPackets = 80;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    sim::Simulator simr;
    Outcomes got;
    Outcomes want;
    got.byId.resize(kPackets);
    want.byId.resize(kPackets);
    const LinkRate rate = rng.uniform() < 0.5 ? gbps(1) : gbps(4);
    const SimTime delay = SimTime::fromNs(4 * rng.uniformInt(250, 3000));
    const int capacity = static_cast<int>(rng.uniformInt(2, 40));
    const QueueConfig cfg{capacity, rng.uniform() < 0.5 ? 0 : capacity / 2};
    RecordingSink sink(simr, got);
    PacketStore store;
    Link link(simr, store, rate, delay, cfg);
    link.connect(&sink, 0);
    TwoEventLink oracle(simr, rate, delay, cfg, want);
    link.addDropHook(
        [&](const Packet& p) { got.note(p, Fate::kQueueDrop, simr.now()); });
    std::uint64_t rejected = 0;
    std::uint64_t flushed = 0;
    link.addFaultDropHook([&](const Packet& p) {
      Fate fate = Fate::kWire;
      if (link.faultRejectedPackets() != rejected) fate = Fate::kRejected;
      if (link.faultFlushedPackets() != flushed) fate = Fate::kFlushed;
      rejected = link.faultRejectedPackets();
      flushed = link.faultFlushedPackets();
      got.note(p, fate, simr.now());
    });

    // Sends at even times, in bursts with idle gaps between.
    SimTime t;
    for (int i = 0; i < kPackets; ++i) {
      if (rng.uniform() < 0.6) t += SimTime::fromNs(2 * rng.uniformInt(8000));
      Packet p;
      p.flow = 1;
      p.seq = static_cast<std::uint64_t>(i);
      p.size = onGridSize(rng, rate);
      p.payload = p.size;
      p.ecnCapable = rng.uniform() < 0.5;
      simr.postAt(t, [&link, &oracle, p] {
        link.send(p);
        oracle.send(p);
      });
    }
    // Fault mutations at odd times, over the sends and their tail. Half
    // follow the previous one within a few serializations, so several
    // often land inside one packet's serialization.
    const int faults = static_cast<int>(rng.uniformInt(2, 24));
    SimTime at;
    for (int j = 0; j < faults; ++j) {
      if (j > 0 && rng.uniform() < 0.5) {
        at += SimTime::fromNs(2 * rng.uniformInt(4000));
      } else {
        at = SimTime::fromNs(2 * rng.uniformInt(t.ns() / 2 + 20'000) + 1);
      }
      const int kind = static_cast<int>(rng.uniformInt(6));
      const double rateF = kRateFactors[rng.uniformInt(3)];
      const double delayF = kDelayFactors[rng.uniformInt(5)];
      const double prob = kDropProbs[rng.uniformInt(4)];
      const std::uint64_t dropSeed = rng.uniformInt(1, 1'000'000);
      simr.postAt(at, [&link, &oracle, kind, rateF, delayF, prob, dropSeed] {
        switch (kind) {
          case 0:
          case 1:
            link.faultDown(/*drainInFlight=*/kind == 1);
            oracle.down(kind == 1);
            break;
          case 2:
            link.faultUp();
            oracle.up();
            break;
          case 3:
            link.faultSetRateFactor(rateF);
            oracle.rateFactor = rateF;
            break;
          case 4:
            link.faultSetDelayFactor(delayF);
            oracle.delayFactor = delayF;
            break;
          default:
            link.faultSetDropProb(prob, dropSeed);
            oracle.setDropProb(prob, dropSeed);
            break;
        }
      });
    }
    simr.run();

    for (int i = 0; i < kPackets; ++i) {
      const Outcome& w = want.byId[static_cast<std::size_t>(i)];
      const Outcome& g = got.byId[static_cast<std::size_t>(i)];
      ASSERT_NE(w.fate, Fate::kNone) << "packet " << i;
      ASSERT_EQ(g.fate, w.fate) << "packet " << i;
      ASSERT_EQ(g.at, w.at) << "packet " << i;
    }
    EXPECT_FALSE(link.transmitting());
    EXPECT_EQ(link.txPackets(), link.deliveredPackets() +
                                    link.faultWireDrops());
  }
}

}  // namespace
}  // namespace tlbsim::net

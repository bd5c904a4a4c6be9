// Test rig: two hosts joined by per-direction filter nodes that can drop,
// duplicate, or mutate packets deterministically — the loss/marking
// injection needed to exercise every TCP recovery path.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp_params.hpp"
#include "transport/tcp_receiver.hpp"
#include "transport/tcp_sender.hpp"

namespace tlbsim::transport::testing {

/// Forwards packets onward, subject to an optional mutation hook.
/// The hook returns how many copies to forward (0 = drop, 2 = duplicate)
/// and may mutate the packet (e.g. set the CE bit).
class FilterNode : public net::Node {
 public:
  using Hook = std::function<int(net::Packet&)>;

  void setOutput(net::Link* out) { out_ = out; }
  void setHook(Hook hook) { hook_ = std::move(hook); }

  void receive(net::PacketStore& store, net::PacketStore::Handle slot,
               int) override {
    net::Packet pkt = store[slot].pkt;  // the hook may mutate its copy
    store.free(slot);
    int copies = 1;
    if (hook_) copies = hook_(pkt);
    if (copies <= 0) {
      ++dropped;
    } else {
      for (int i = 0; i < copies; ++i) out_->send(pkt);
    }
    // Packets the hook parked for delivery AFTER the current one (lets
    // tests reorder: hold packet A, release it behind packet B).
    for (const auto& held : flushAfter) out_->send(held);
    flushAfter.clear();
  }
  std::string name() const override { return "filter"; }

  int dropped = 0;
  std::vector<net::Packet> flushAfter;

 private:
  net::Link* out_ = nullptr;
  Hook hook_;
};

/// hostA <-> hostB with a FilterNode in each direction. Four links, each
/// with the given rate/delay, so base RTT = 4 * delay (+ serialization).
struct TcpRig {
  sim::Simulator simr;
  net::PacketStore store;
  net::Host hostA{0, "A"};
  net::Host hostB{1, "B"};
  FilterNode abFilter;  ///< data direction (A -> B)
  FilterNode baFilter;  ///< ack direction (B -> A)
  std::unique_ptr<net::Link> abOut, baOut;

  explicit TcpRig(LinkRate rate = gbps(1), SimTime delay = microseconds(25),
                  net::QueueConfig qcfg = {256, 0}) {
    auto aUp = std::make_unique<net::Link>(simr, store, rate, delay, qcfg);
    aUp->connect(&abFilter, 0);
    hostA.attachUplink(std::move(aUp));
    abOut = std::make_unique<net::Link>(simr, store, rate, delay, qcfg);
    abOut->connect(&hostB, 0);
    abFilter.setOutput(abOut.get());

    auto bUp = std::make_unique<net::Link>(simr, store, rate, delay, qcfg);
    bUp->connect(&baFilter, 0);
    hostB.attachUplink(std::move(bUp));
    baOut = std::make_unique<net::Link>(simr, store, rate, delay, qcfg);
    baOut->connect(&hostA, 0);
    baFilter.setOutput(baOut.get());
  }

  /// Convenience: create endpoints for a single flow of `size` bytes.
  struct Flow {
    FlowSpec spec;
    std::unique_ptr<TcpReceiver> receiver;
    std::unique_ptr<TcpSender> sender;
  };

  Flow makeFlow(ByteCount size, const TcpParams& params = {}, FlowId id = 1) {
    Flow f;
    f.spec.id = id;
    f.spec.src = 0;
    f.spec.dst = 1;
    f.spec.size = size;
    f.spec.start = 0_ns;
    f.receiver = std::make_unique<TcpReceiver>(simr, hostB, f.spec, params);
    f.sender = std::make_unique<TcpSender>(simr, hostA, f.spec, params);
    return f;
  }
};

}  // namespace tlbsim::transport::testing

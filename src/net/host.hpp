// End host: owns its access link and demultiplexes arriving packets to the
// transport endpoints registered per flow.
#pragma once

#include <bit>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "util/flow_key.hpp"

namespace tlbsim::net {

/// Implemented by transport endpoints (TCP sender / receiver).
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void onPacket(const Packet& pkt) = 0;
};

class Host : public Node {
 public:
  Host(HostId id, std::string name) : id_(id), name_(std::move(name)) {}

  HostId id() const { return id_; }
  std::string name() const override { return name_; }

  /// Attach the (owned) uplink toward the access switch.
  void attachUplink(std::unique_ptr<Link> link) { uplink_ = std::move(link); }
  Link& uplink() { return *uplink_; }
  const Link& uplink() const { return *uplink_; }

  /// Transmit a packet into the network.
  void send(const Packet& pkt) { uplink_->send(pkt); }

  /// Register the local endpoint of a flow. One handler per (host, flow):
  /// the sender registers at the source host, the receiver at the
  /// destination host. Binding a flow that is already bound replaces its
  /// handler (decorators rebind endpoints this way).
  void bind(FlowId flow, PacketHandler* handler);
  /// Forget a flow's handler; a no-op when the flow is not bound.
  void unbind(FlowId flow);

  /// The handler bound to `flow`, or null.
  PacketHandler* handlerFor(FlowId flow) const {
    return demux_.empty() ? nullptr : demux_[probe(flow)].handler;
  }

  void receive(const Packet& pkt, int inPort) override {
    (void)inPort;
    if (PacketHandler* handler = handlerFor(pkt.flow)) handler->onPacket(pkt);
  }

  // --- demux table shape (what the tests probe) -------------------------
  std::size_t boundFlows() const { return used_; }
  /// Table size: 0 before the first bind, then a power of two at least
  /// twice boundFlows().
  std::size_t demuxSlots() const { return demux_.size(); }
  /// Where `flow`'s probe run starts in a table of `slots` (a power of
  /// two, at least 2): Fibonacci hashing, so strided flow ids still
  /// spread out.
  static std::size_t homeSlot(FlowId flow, std::size_t slots) {
    return static_cast<std::size_t>((flow * 0x9e3779b97f4a7c15ULL) >>
                                    (64 - std::countr_zero(slots)));
  }

 private:
  /// Flow demux: open addressing with linear probing over a power-of-two
  /// table kept at most half full, so a lookup is one multiply and a short
  /// scan of adjacent slots. unbind() shifts the rest of a probe run back
  /// instead of leaving tombstones. An empty slot has flow == kInvalidFlow.
  struct DemuxSlot {
    FlowId flow = kInvalidFlow;
    PacketHandler* handler = nullptr;
  };
  static constexpr std::size_t kMinDemuxSlots = 8;

  /// Index of `flow`'s slot, or of the empty slot that ends its probe run
  /// (the table always has one: it is at most half full).
  std::size_t probe(FlowId flow) const {
    const std::size_t mask = demux_.size() - 1;
    std::size_t i = homeSlot(flow, demux_.size());
    while (demux_[i].flow != flow && demux_[i].flow != kInvalidFlow) {
      i = (i + 1) & mask;
    }
    return i;
  }
  void growDemux();

  HostId id_;
  std::string name_;
  std::unique_ptr<Link> uplink_;
  std::vector<DemuxSlot> demux_;
  std::size_t used_ = 0;
};

}  // namespace tlbsim::net

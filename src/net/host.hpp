// End host: owns its access link and demultiplexes arriving packets to the
// transport endpoints registered per flow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "net/link.hpp"
#include "net/node.hpp"
#include "util/flow_index.hpp"
#include "util/flow_key.hpp"

namespace tlbsim::net {

/// Implemented by transport endpoints (TCP sender / receiver).
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void onPacket(const Packet& pkt) = 0;
  /// The fabric lost `pkt`, which this handler sent (Fabric::reportLoss).
  /// A handler that does not count its packets, such as a decorator,
  /// ignores it.
  virtual void onLoss(const Packet& pkt) { (void)pkt; }
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
  /// handler (decorators rebind endpoints this way) and never resizes the
  /// demux table.
  void bind(FlowId flow, PacketHandler* handler);
  /// Forget a flow's handler; a no-op when the flow is not bound.
  void unbind(FlowId flow) { demux_.erase(flow); }

  /// The handler bound to `flow`, or null.
  PacketHandler* handlerFor(FlowId flow) const {
    PacketHandler* const* handler = demux_.find(flow);
    return handler != nullptr ? *handler : nullptr;
  }

  /// Hands the packet, read in place, to its flow's handler, then frees
  /// its slot: the packet's trip ends here. A packet of an unbound flow
  /// is dropped and counted: the endpoint pool reuses a pair only when
  /// none of its packets is in the network, so a nonzero count means a
  /// miscounted packet.
  void receive(PacketStore& store, PacketStore::Handle slot,
               int inPort) override {
    (void)inPort;
    const Packet& pkt = store[slot].pkt;
    if (PacketHandler* handler = handlerFor(pkt.flow)) {
      handler->onPacket(pkt);
    } else {
      ++orphanPackets_;
    }
    store.free(slot);
  }

  /// Packets that arrived for a flow with no bound handler.
  std::uint64_t orphanPackets() const { return orphanPackets_; }

  // --- demux table shape (what the tests probe) -------------------------
  std::size_t boundFlows() const { return demux_.size(); }
  /// Table size: 0 before the first bind, then a power of two at least
  /// twice boundFlows().
  std::size_t demuxSlots() const { return demux_.slots(); }
  /// Where `flow`'s probe run starts in a table of `slots` (a power of
  /// two, at least 2).
  static std::size_t homeSlot(FlowId flow, std::size_t slots) {
    return util::FlowIndex<PacketHandler*>::homeSlot(flow, slots);
  }

 private:
  HostId id_;
  std::string name_;
  std::unique_ptr<Link> uplink_;
  /// Flow demux: the open-addressing table of util/flow_index.hpp.
  util::FlowIndex<PacketHandler*> demux_;
  std::uint64_t orphanPackets_ = 0;
};

}  // namespace tlbsim::net

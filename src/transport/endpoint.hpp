// What both TCP endpoints share: the flow, its host and clock, and the
// count the endpoint pool reuses a pair by: packets handed to the host,
// minus packets the host handed back and packets the fabric reported lost
// (net::Fabric::reportLoss). Each packet of a flow reaches the other
// endpoint or is lost, so the two counts sum to the flow's packets in the
// network. send() is the one way to the host (lint rule endpoint-send).
#pragma once

#include <cstdint>

#include "net/host.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp_params.hpp"

namespace tlbsim::obs {
class FlowProbe;
}

namespace tlbsim::transport {

class Endpoint : public net::PacketHandler {
 public:
  const FlowSpec& flow() const { return flow_; }
  /// Packets sent, minus packets received and packets reported lost.
  std::int32_t packetsInNetwork() const { return inNetwork_; }
  void onLoss(const net::Packet& /*pkt*/) final { --inNetwork_; }

  /// Wire the per-flow decision probe: the sender reports every
  /// retransmission it puts on the wire (go-back-N resends too, which
  /// carry retransmit=false), the receiver each out-of-order data arrival.
  /// One null-pointer branch per segment when not installed.
  void setFlowProbe(obs::FlowProbe* probe) { flowProbe_ = probe; }

 protected:
  Endpoint(sim::Simulator& simr, net::Host& host, const FlowSpec& flow,
           const TcpParams& params)
      : host_(host), sim_(simr), flow_(flow), params_(params) {
    host_.bind(flow_.id, this);
  }

  /// A header-only packet of `type` from this endpoint to the other.
  net::Packet control(net::PacketType type) const {
    net::Packet pkt;
    pkt.flow = flow_.id;
    pkt.type = type;
    pkt.src = host_.id();
    pkt.dst = host_.id() == flow_.src ? flow_.dst : flow_.src;
    pkt.size = TcpParams::headerBytes;
    pkt.sentAt = sim_.now();
    return pkt;
  }
  void send(const net::Packet& pkt) {
    ++inNetwork_;
    host_.send(pkt);
  }
  /// Every onPacket starts here.
  void countArrival() { --inNetwork_; }

  net::Host& host_;
  sim::Simulator& sim_;
  FlowSpec flow_;
  TcpParams params_;
  obs::FlowProbe* flowProbe_ = nullptr;

 private:
  std::int32_t inNetwork_ = 0;  ///< last: derived flags fill its padding
};

}  // namespace tlbsim::transport

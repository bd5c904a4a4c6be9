// TCP receiver endpoint: cumulative ACKs, out-of-order buffering, ECN echo.
//
// ACKing is immediate (one ACK per data segment), which is both the DCTCP
// recommendation for accurate per-packet CE echo and what makes the paper's
// dup-ACK-ratio metric (Fig. 3(b)) well defined.
#pragma once

#include <cstdint>
#include <utility>

#include "net/host.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "transport/endpoint.hpp"
#include "transport/reorder_buffer.hpp"
#include "transport/tcp_params.hpp"

namespace tlbsim::transport {

class TcpReceiver : public Endpoint {
 public:
  /// `spare`'s storage (emptied) becomes the reorder buffer: a receiver
  /// built in a reused endpoint's place takes its predecessor's buffer
  /// over (see releaseReorderBuffer) and allocates nothing.
  TcpReceiver(sim::Simulator& simr, net::Host& localHost, const FlowSpec& flow,
              const TcpParams& params, ReorderBuffer spare = {});

  /// Hand the reorder buffer's storage to a successor.
  ReorderBuffer releaseReorderBuffer() { return std::move(reorder_); }

  void onPacket(const net::Packet& pkt) override;

  // --- reordering / progress statistics --------------------------------
  std::uint64_t dataPacketsReceived() const { return dataPackets_; }
  /// Segments that arrived ahead of the next expected byte (reordered or
  /// filling after loss) — the paper's "out-of-order packets".
  std::uint64_t outOfOrderPackets() const { return outOfOrder_; }
  std::uint64_t dupAcksSent() const { return dupAcks_; }
  std::uint64_t acksSent() const { return acksSent_; }
  std::uint64_t cumulativeAck() const { return cumAck_; }
  bool finReceived() const { return finSeen_; }

 private:
  void acceptData(const net::Packet& pkt);
  void sendAck(SimTime echoTs, bool ece);

  // First, so they share the Endpoint base's last 8 bytes with its count.
  bool sentFirstAck_ = false;
  bool finSeen_ = false;

  std::uint64_t cumAck_ = 0;  ///< next byte expected
  /// Out-of-order byte ranges beyond cumAck_.
  ReorderBuffer reorder_;

  std::uint64_t dataPackets_ = 0;
  std::uint64_t outOfOrder_ = 0;
  std::uint64_t dupAcks_ = 0;
  std::uint64_t acksSent_ = 0;
  std::uint64_t lastAckNo_ = 0;
};

}  // namespace tlbsim::transport

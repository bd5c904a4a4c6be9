#include "transport/tcp_receiver.hpp"

#include <utility>

#include "obs/flow_probe.hpp"

namespace tlbsim::transport {

// Every pooled endpoint pair holds one receiver (see tcp_sender.cpp).
#if defined(__GLIBCXX__) && UINTPTR_MAX == UINT64_MAX
static_assert(sizeof(TcpReceiver) <= 192,
              "TcpReceiver outgrew its 192 bytes");
#endif

TcpReceiver::TcpReceiver(sim::Simulator& simr, net::Host& localHost,
                         const FlowSpec& flow, const TcpParams& params,
                         ReorderBuffer spare)
    : Endpoint(simr, localHost, flow, params), reorder_(std::move(spare)) {
  reorder_.clear();
}

void TcpReceiver::onPacket(const net::Packet& pkt) {
  countArrival();
  switch (pkt.type) {
    case net::PacketType::kSyn: {
      net::Packet synAck = control(net::PacketType::kSynAck);
      synAck.echoTs = pkt.sentAt;
      send(synAck);
      break;
    }
    case net::PacketType::kData:
      acceptData(pkt);
      break;
    case net::PacketType::kFin: {
      finSeen_ = true;
      send(control(net::PacketType::kFinAck));
      break;
    }
    default:
      break;  // stray SYN-ACK/ACK: not for the receiver side
  }
}

void TcpReceiver::acceptData(const net::Packet& pkt) {
  ++dataPackets_;
  const std::uint64_t start = pkt.seq;
  const std::uint64_t end = pkt.seq + static_cast<std::uint64_t>(pkt.payload.bytes());

  if (start > cumAck_) {
    // Hole before this segment: buffer it.
    ++outOfOrder_;
    if (flowProbe_ != nullptr) flowProbe_->onOutOfOrder(flow_.id, sim_.now());
    if (reorder_.capacity() == 0) {
      // The first reordering this storage sees sizes it for the whole
      // window, so it never grows again, here or in a successor.
      const std::int64_t mss = params_.mss.bytes();
      const auto segments = static_cast<std::size_t>(
          (params_.receiverWindow.bytes() + mss - 1) / mss);
      reorder_.reserve(segments / 2 + 1);
    }
    reorder_.insert(start, end);
  } else if (end > cumAck_) {
    // Drain any buffered ranges now contiguous.
    cumAck_ = reorder_.drain(end);
  }
  // else: fully duplicate segment (spurious retransmit); still ACK it.

  sendAck(pkt.sentAt, pkt.ce);
}

void TcpReceiver::sendAck(SimTime echoTs, bool ece) {
  net::Packet ack = control(net::PacketType::kAck);
  ack.ack = cumAck_;
  ack.ece = ece;  // per-packet CE echo (DCTCP style)
  ack.echoTs = echoTs;
  ++acksSent_;
  if (sentFirstAck_ && ack.ack == lastAckNo_) ++dupAcks_;
  sentFirstAck_ = true;
  lastAckNo_ = ack.ack;
  send(ack);
}

}  // namespace tlbsim::transport

// The on-wire unit. A packet in the network lives in one slot of its
// fabric's PacketStore (net/packet_store.hpp) from its host's NIC to its
// delivery or loss: links and nodes pass the slot's handle from hop to
// hop, and endpoints and hooks read the packet by const reference, the
// way ns-2 allocates a Packet once from one free list and passes it by
// pointer.
#pragma once

#include <cstdint>

#include "util/flow_key.hpp"
#include "util/units.hpp"

namespace tlbsim::net {

enum class PacketType : std::uint8_t {
  kSyn,
  kSynAck,
  kData,
  kAck,
  kFin,
  kFinAck,
};

constexpr const char* toString(PacketType t) {
  switch (t) {
    case PacketType::kSyn: return "SYN";
    case PacketType::kSynAck: return "SYN-ACK";
    case PacketType::kData: return "DATA";
    case PacketType::kAck: return "ACK";
    case PacketType::kFin: return "FIN";
    case PacketType::kFinAck: return "FIN-ACK";
  }
  return "?";
}

using HostId = std::int32_t;

struct Packet {
  FlowId flow = kInvalidFlow;
  PacketType type = PacketType::kData;
  HostId src = -1;
  HostId dst = -1;

  ByteCount size;     ///< total wire size (payload + headers)
  ByteCount payload;  ///< TCP payload bytes (0 for pure control/ack)

  std::uint64_t seq = 0;  ///< first payload byte offset (data segments)
  std::uint64_t ack = 0;  ///< cumulative ack (ack segments)

  bool ecnCapable = false;  ///< ECT set by a DCTCP sender
  bool ce = false;          ///< congestion-experienced mark (set by queues)
  bool ece = false;         ///< CE echo on the ACK path

  SimTime sentAt;    ///< transport send timestamp (TCP-timestamp option)
  /// Echoed sentAt on ACKs, for RTT estimation. -1 = no echo present
  /// (0 is a valid timestamp: flows can start at simulated time zero).
  SimTime echoTs = -1_ns;
  bool retransmit = false;

  /// Application deadline tag, carried on the SYN (paper §5: deadline-aware
  /// apps expose their budget; switches may collect statistics). 0 = none.
  SimTime deadline;

  bool isData() const { return type == PacketType::kData; }
};

}  // namespace tlbsim::net

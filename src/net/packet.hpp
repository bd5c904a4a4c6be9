// The on-wire unit. A packet inside a link lives in a slot of its fabric's
// PacketStore (net/packet_store.hpp): a hop copies it once, into the next
// link's store slot, and nodes and hooks read it by const reference, the
// way ns-2 allocates Packets from one free list and passes them by
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

// Base class for anything a link can deliver packets to.
#pragma once

#include <string>

#include "net/packet.hpp"

namespace tlbsim::net {

class Node {
 public:
  virtual ~Node() = default;

  /// Deliver `pkt`, which arrived on the node's port `inPort`. The
  /// reference is only valid for the duration of the call.
  virtual void receive(const Packet& pkt, int inPort) = 0;

  virtual std::string name() const = 0;
};

}  // namespace tlbsim::net
